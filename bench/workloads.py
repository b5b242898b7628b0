"""Seeded input generators for the three workloads.

Every generator is pure Python and imports nothing from hyperlog, so the
parent process can rebuild a round's inputs without loading the program.
A round is a fixed list of cases: the same families in the same numbers,
with the parameters drawn from the seed (see Draw) and the order shuffled by
the seed and the round number.  Expected answers are built here from closed forms, or the case names
the property its check tests.

Series in the check data are written as ``{"terms": [[pieces, coeff], ...],
"bound": pieces | None}`` with ``pieces = [[lo, hi, exp], ...]``: ordinal
texts for the interval ends and rational texts for exponent and coefficient.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from golden import GOLDEN

WORKLOADS = ("session", "expand", "compose")


@dataclass
class Case:
    kind: str            # family; selects the check
    text: str            # the input line, as a user would type it
    budget: int          # term budget (Precision) of the evaluation
    mode: str = "text"   # render mode: text, latex or json
    op: str = ""         # library operation; "" sends text to cli.eval_text
    args: tuple = ()     # operand expressions of a library operation
    data: dict = field(default_factory=dict)


class Draw:
    """Two generators: ``shape`` fixes the structure of every slot (levels,
    exponents, which terms appear) and is the same for every seed; ``coef``
    draws coefficients and ordinals from the seed.  Rounds built
    from different seeds then cost about the same, which keeps the spread of
    the timings between seeds small."""

    def __init__(self, workload: str, seed: int):
        self.shape = random.Random("%s/shape" % workload)
        self.coef = random.Random("%s/%d" % (workload, seed))


def generate(workload: str, seed: int, rnd: int) -> list:
    """The inputs of round ``rnd``: every round of a run evaluates the same
    inputs, each round in its own seeded order, so that the state of the
    caches an input meets is averaged over orders."""
    draw = Draw(workload, seed)
    if workload == "session":
        cases = _session(draw.coef)
    else:
        cases = {"expand": _expand, "compose": _compose}[workload](draw)
    random.Random("%s/%d/%d" % (workload, seed, rnd)).shuffle(cases)
    return cases


# --- small helpers -----------------------------------------------------------

def frac(rng, lo=-4, hi=4, dens=(1, 2, 3)) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return Fraction(num, rng.choice(dens))


def q(c: Fraction) -> str:
    """A rational as an expression atom."""
    c = Fraction(c)
    body = str(abs(c))
    if c.denominator != 1:
        body = "(%s)" % body
    return "-" + body if c < 0 else body


def exp_text(e: Fraction) -> str:
    e = Fraction(e)
    if e.denominator == 1:
        return "^%d" % e if e != 1 else ""
    return "^(%s)" % e


def mono_text(mono) -> str:
    """Expression text of a monomial {level: exponent}; level "W" stands for
    the interval product prod(l[0..w])."""
    factors = []
    for level in sorted(mono, key=lambda v: (v == "W", v)):
        e = mono[level]
        if level == "W":
            atom = "prod(l[0..w])"
        elif level == 0:
            atom = "x"
        else:
            atom = "l[%d]" % level
        factors.append(atom + exp_text(e))
    return "*".join(factors) if factors else "1"


def series_text(terms) -> str:
    """Expression text of a sum of (coeff, {level: exp}) terms."""
    parts = []
    for c, mono in terms:
        c = Fraction(c)
        body = mono_text(mono)
        mag = abs(c)
        if body == "1":
            piece = q(mag)
        elif mag == 1:
            piece = body
        else:
            piece = "%s*%s" % (q(mag), body)
        if not parts:
            parts.append(("-" if c < 0 else "") + piece)
        else:
            parts.append(("- " if c < 0 else "+ ") + piece)
    return " ".join(parts) if parts else "0"


def mono_key(mono):
    """Sort key matching the monomial order for levels 0..3 and "W".

    prod(l[0..w])^-1 lowers the exponent of every finite level by one, so the
    exponents at levels 0, 1, 2, 3 and at the levels above them decide.
    """
    w = mono.get("W", 0)
    return tuple(mono.get(k, 0) + w for k in range(4)) + (w,)


def series_data(terms, bound=None):
    return {"terms": [[p, str(Fraction(c))] for p, c in terms],
            "bound": bound}


# --- ordinals below w^(w+2), as ranked Cantor normal form terms ---------------

_OMEGA_POWERS = ["", "w", "w^2", "w^3", "w^w", "w^(w+1)"]  # rank -> base text


def ord_term_text(rank, coeff):
    if rank == 0:
        return str(coeff)
    base = _OMEGA_POWERS[rank]
    return base if coeff == 1 else "%s*%d" % (base, coeff)


def ord_text(terms):
    return "+".join(ord_term_text(r, c) for r, c in terms) if terms else "0"


def ord_sum(items):
    """Ordinal sum of (rank, coeff) items, in order: lower terms are absorbed."""
    acc = []
    for rank, coeff in items:
        while acc and acc[-1][0] < rank:
            acc.pop()
        if acc and acc[-1][0] == rank:
            acc[-1] = (rank, acc[-1][1] + coeff)
        else:
            acc.append((rank, coeff))
    return acc


def ord_succ(terms):
    if terms and terms[-1][0] == 0:
        return terms[:-1] + [(0, terms[-1][1] + 1)]
    return terms + [(0, 1)]


def rand_infinite_ordinal(rng):
    """(input text, canonical terms) of an infinite ordinal; a third of the
    inputs are written out of order, so the parser must absorb terms."""
    ranks = sorted(rng.sample(range(1, len(_OMEGA_POWERS)), rng.randint(1, 3)),
                   reverse=True)
    if rng.random() < 0.5:
        ranks.append(0)
    items = [(r, rng.randint(1, 3)) for r in ranks]
    if rng.random() < 1 / 3:
        low = (rng.randint(0, items[0][0] - 1), rng.randint(1, 3))
        items.insert(0, low)
    text = "+".join(ord_term_text(r, c) for r, c in items)
    return text, ord_sum(items)


# --- session: a REPL session of short lines ------------------------------------

# lines that fail today because of faults; their checks hold the right answers
FAULT_LINES = [
    ("((10^20+39)^2)^(1/2)", {"root_of": str((10**20 + 39) ** 2)}),
    ("(3^80)^(1/2)", {"root_of": str(3**80)}),
    ("(10^400)^(1/2)", {"root_of": str(10**400)}),
    ("prod(l[3..1])", {"error": "DomainError", "any_subclass": True}),
]

MODES = ("text", "latex", "json")
SESSION_PREC = 8
SESSION_REPEATS = 15  # seeded blocks per round, next to the golden lines


def _session(rng):
    cases = [Case("golden", expr, prec, fmt, data={"want": want})
             for _, fmt, prec, expr, want in GOLDEN]
    for _ in range(SESSION_REPEATS):
        cases += _ordinal_lines(rng) + _ordinal_lines(rng)
        cases += _doubling_lines(rng) + _doubling_lines(rng)
        cases += [_constant_line(rng) for _ in range(24)]
        cases += [_root_line(rng) for _ in range(8)]
        cases += _error_lines(rng)
        cases += _small_composition_lines(rng)
    for text, data in FAULT_LINES:
        kind = "error" if "error" in data else "root"
        cases.append(Case(kind, text, SESSION_PREC, "text", data=data))
    return cases


def _ordinal_lines(rng):
    out = []
    for form in ("atom", "power", "D", "dagger", "int", "lambda", "prod"):
        for _ in range(3):
            text, terms = rand_infinite_ordinal(rng)
            a = ord_text(terms)
            succ = ord_text(ord_succ(terms))
            mode = rng.choice(("text", "json"))
            if form == "atom":
                line, want = "l[%s]" % text, [[[a, succ, "1"]], "1"]
            elif form == "power":
                e = rng.choice([Fraction(2), Fraction(3), Fraction(-1),
                                Fraction(1, 2)])
                line = "l[%s]%s" % (text, exp_text(e))
                want = [[[a, succ, str(e)]], "1"]
            elif form == "D":
                line, want = "D(l[%s])" % text, [[["0", a, "-1"]], "1"]
            elif form == "dagger":
                line, want = "dagger(l[%s])" % text, [[["0", succ, "-1"]], "1"]
            elif form == "int":
                line = "int(prod(l[0..%s])^-1)" % text
                want = [[[a, succ, "1"]], "1"]
            elif form == "prod":
                e = rng.choice([Fraction(2), Fraction(-1), Fraction(1, 2)])
                line = "prod(l[1..%s])%s" % (text, exp_text(e))
                want = [[["1", a, str(e)]], "1"]
            else:
                c = frac(rng)
                line = "lambda(l[%s] + %s)" % (text, q(c))
                out.append(Case("lambda", line, SESSION_PREC, mode,
                                data={"ordinal": a}))
                continue
            out.append(Case("exact", line, SESSION_PREC, mode,
                            data=series_data([want])))
    return out


def _doubling_lines(rng):
    """The same expressions at budgets 2, 4 and 8, as in expansion_demo.py."""
    c = frac(rng)
    alpha = rng.choice(["w", "w^2", "w*2"])
    xc = series_text([(1, {0: 1}), (c, {})])
    out = []
    for n in (2, 4, 8):
        mode = rng.choice(MODES)
        # log(x + c) = l[1] + sum (-1)^(k-1) c^k / k x^-k
        terms = [([["1", "2", "1"]], 1)]
        terms += [([["0", "1", str(-k)]], (-1) ** (k - 1) * c**k / k)
                  for k in range(1, n + 1)]
        out.append(Case("exact", "log@%d(%s)" % (n, xc), SESSION_PREC,
                        mode, data=series_data(terms, [["0", "1", str(-n)]])))
        # dagger(x + c) = 1/(x + c) = sum (-c)^k x^-(k+1)
        terms = [([["0", "1", str(-k - 1)]], (-c) ** k) for k in range(n)]
        out.append(Case("exact", "dagger@%d(%s)" % (n, xc),
                        SESSION_PREC, mode,
                        data=series_data(terms, [["0", "1", str(-n)]])))
        # D(prod(l[0..a])^-1) = -sum_k prod(l[0..k+1])^-2 * prod(l[k+1..a])^-1
        terms = [([["0", str(k + 1), "-2"], [str(k + 1), alpha, "-1"]], -1)
                 for k in range(n)]
        out.append(Case("exact", "D@%d(prod(l[0..%s])^-1)" % (n, alpha),
                        SESSION_PREC, mode,
                        data=series_data(terms, terms[-1][0])))
    return out


def _rand_constant_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        v = Fraction(rng.randint(1, 12), rng.choice((1, 1, 2, 3, 5)))
        return q(v), v
    op = rng.choice("+-*/^")
    lt, lv = _rand_constant_expr(rng, depth - 1)
    if op == "^":
        k = rng.choice([2, 3, -1, -2])
        if lv == 0 and k < 0:
            k = 2
        return "(%s)^%s" % (lt, q(k)), lv**k
    rt, rv = _rand_constant_expr(rng, depth - 1)
    if op == "/" and rv == 0:
        op = "*"
    value = {"+": lv + rv, "-": lv - rv, "*": lv * rv,
             "/": lv / rv if rv else None}[op]
    return "(%s %s %s)" % (lt, op, rt), value


def _constant_line(rng):
    text, value = _rand_constant_expr(rng, 3)
    terms = [([], value)] if value != 0 else []
    return Case("exact", text, SESSION_PREC, rng.choice(MODES),
                data=series_data(terms))


def _root_line(rng):
    """A rational power of an exact perfect power small enough for floats."""
    k = rng.choice((2, 3))
    r, s = rng.randint(2, 999), rng.randint(1, 30)
    p = rng.choice((1, 2, -1))
    text = "(%d/%d)^(%s)" % (r**k, s**k, Fraction(p, k))
    value = Fraction(r, s) ** p
    return Case("exact", text, SESSION_PREC, rng.choice(MODES),
                data=series_data([([], value)]))


def _error_lines(rng):
    n = rng.randint(1, 3)
    k = rng.randint(2, 5)
    c = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
    p = rng.choice((2, 3, 5, 6, 7))
    lines = [
        ("log(0)", "ZeroSeries"),
        ("1/(x - x)", "ZeroSeries"),
        ("inv(l[%d])" % n, "NotInvertible"),
        ("comp(x^%d, %s)" % (k, q(c)), "NotGreaterThanR"),
        ("comp(x, 1/x)", "NotGreaterThanR"),
        ("log(%d*x + %s)" % (k, q(c)), "NonMonicLog"),
        ("x ^ l[%d]" % n, "DomainError"),
        ("O(0)", "DomainError"),
        ("x + %s +" % q(c), "CliSyntaxError"),
        ("(x + %d" % k, "CliSyntaxError"),
        ("%d^(1/2)" % p, "IrrationalConstantPower"),
        ("taylor(x^2, x, %d*x)" % k, "HNotSmaller"),
        ("log(-x - %s)" % q(c), "NotPositive"),
        ("inv(l[%d] + x^-1)" % n, "NotInvertible"),
    ]
    return [Case("error", text, SESSION_PREC, rng.choice(MODES),
                 data={"error": name}) for text, name in lines]


def _small_composition_lines(rng):
    out = []
    for b in (3, 4):
        c, a = frac(rng), frac(rng)
        n = rng.randint(1, 3)
        mode = rng.choice(MODES)
        # comp(l[w], l[n]) = l[w] - n
        out.append(Case("exact", "comp@%d(l[w], l[%d])" % (b, n), SESSION_PREC,
                        mode, data=series_data([([["w", "w+1", "1"]], 1),
                                                ([], -n)])))
        # comp(x^2 + a*x, x + c) = x^2 + (2c + a)*x + c^2 + a*c
        out.append(Case("exact", "comp@%d(x^2 + %s*x, x + %s)" % (b, q(a), q(c)),
                        SESSION_PREC, mode, data=series_data(
                            [([["0", "1", "2"]], 1),
                             ([["0", "1", "1"]], 2 * c + a),
                             ([], c * c + a * c)])))
        # taylor(x^2, x, c) = (x + c)^2; at budget 3 the output may close
        # with a bound, so it is compared down to that bound
        out.append(Case("to_bound", "taylor@%d(x^2, x, %s)" % (b, q(c)),
                        SESSION_PREC, mode, data=series_data(
                            [([["0", "1", "2"]], 1), ([["0", "1", "1"]], 2 * c),
                             ([], c * c)])))
        # inv(x + c) = x - c
        out.append(Case("exact", "inv@%d(x + %s)" % (b, q(c)), SESSION_PREC,
                        mode, data=series_data([([["0", "1", "1"]], 1),
                                                ([], -c)])))
        # inv(x + c + d/x): comp with the input gives x both ways
        d = frac(rng)
        g = "x + %s + %s*x^-1" % (q(c), q(d))
        out.append(Case("inverse", "inv@%d(%s)" % (b, g), SESSION_PREC, mode,
                        data={"g": g}))
    return out


# --- expand: expansions of seeded monic series at budgets 12 to 16 -------------

def _smaller_monomials(lead, xonly):
    """Candidate tail monomials strictly below the leading monomial."""
    px = lead.get(0, 0)
    cands = []
    for i in range(px - 2, px + 1):
        for j in ((0,) if xonly else (-1, 0, 1)):
            for k in ((0,) if xonly else (-1, 0, 1)):
                m = {lvl: e for lvl, e in ((0, i), (1, j), (2, k)) if e}
                if mono_key(m) < mono_key(lead):
                    cands.append(m)
    if not xonly:
        cands.append({0: px, "W": -1})    # x^p * prod(l[0..w])^-1
    return cands


LEADS = [{0: 1}, {0: 2}, {0: 1, 1: 1}, {0: 2, 2: -1}]


def _monic(draw, lead, xonly, tail):
    cands = _smaller_monomials(lead, xonly)
    picks = draw.shape.sample(cands, min(tail, len(cands)))
    picks.sort(key=mono_key, reverse=True)
    return [(Fraction(1), lead)] + [(frac(draw.coef), m) for m in picks]


def _finite_series(draw, nterms, levels=(0, 1, 2)):
    shape = draw.shape
    monos = []
    while len(monos) < nterms:
        m = {lvl: Fraction(shape.choice([-2, -1, 1, 2, 3]), shape.choice([1, 1, 2]))
             for lvl in shape.sample(levels, min(len(levels), shape.randint(1, 2)))}
        if m not in monos:
            monos.append(m)
    monos.sort(key=mono_key, reverse=True)
    return [(frac(draw.coef), m) for m in monos]


def _xonly_data(terms):
    return [[str(c), str(Fraction(m.get(0, 0)))] for c, m in terms]


def _expand(draw):
    """Each slot has a fixed operation, budget and leading monomial, so that
    rounds drawn from different seeds cost about the same; the seed draws the
    tails, coefficients and exponents.  The first slot of each expansion is a
    series in x alone."""
    cases = []
    plan = [("div", 6), ("log", 5), ("pow", 5), ("dagger", 4), ("int", 4)]
    for op, count in plan:
        for i in range(count):
            budget = (12, 14, 16)[i % 3]
            xonly = op != "int" and i == 0
            mode = "json" if i % 4 == 3 else "text"
            data = {}
            if op == "int":
                f = _finite_series(draw, 3)
                args = (series_text(f),)
                text = "int@%d(%s)" % (budget, args[0])
            else:
                lead = LEADS[i % 2 if xonly else i % len(LEADS)]
                a = _monic(draw, lead, xonly, 3)
                args = (series_text(a),)
                if xonly:
                    data["a"] = _xonly_data(a)
                if op == "div":
                    num = ([(Fraction(1), {})] if i % 2 else
                           _monic(draw, {0: 1}, xonly, 1))
                    args = (series_text(num),) + args
                    if xonly:
                        data["num"] = _xonly_data(num)
                    text = "(%s)/(%s)" % args
                elif op == "pow":
                    p = Fraction(draw.shape.choice((1, -1, 2)),
                                 draw.shape.choice((2, 3)))
                    data["p"] = str(p)
                    text = "(%s)^(%s)" % (args[0], p)
                else:
                    text = "%s@%d(%s)" % (op, budget, args[0])
            data["xonly"] = xonly
            cases.append(Case(op, text, budget, mode, op=op, args=args,
                              data=data))
    return cases


# --- compose: composition, Taylor expansion and inversion at budgets 5 to 8 ----

INCREMENTS = ("xinv", "const", "linv")


def _small_increment(rng, extra):
    """Terms h of x + h: a constant plus x^-1, l[1]^-1 or l[1] ("l1")."""
    terms = [(frac(rng, 1, 3), {})]
    if extra == "xinv":
        terms.append((frac(rng), {0: -1}))
    elif extra == "linv":
        terms.append((frac(rng), {1: -1}))
    elif extra == "l1":
        terms.insert(0, (Fraction(1), {1: 1}))
    return terms


def _composable(draw, lead_level, tail, with_log=True):
    """l[m] + smaller terms, so that every iterated log stays monic."""
    lead = {lead_level: 1}
    cands = [{}, {lead_level: -1}] + ([{lead_level + 1: 1}] if with_log else [])
    picks = draw.shape.sample(cands, tail)
    picks.sort(key=mono_key, reverse=True)
    return [(Fraction(1), lead)] + [(frac(draw.coef), m) for m in picks]


def _invertible(draw):
    """a*x^b + smaller terms with a rational root of a; tails touching l[1]
    only in the monic degree-one case, as in the test suite's generator."""
    shape = draw.shape
    a = shape.choice([Fraction(1), Fraction(1), Fraction(4), Fraction(1, 9)])
    b = shape.choice([1, 1, 2])
    smalls = [{}, {0: b - 1} if b > 1 else {0: -1}, {0: -2}]
    if a == 1 and b == 1:
        smalls.append({0: 1, 1: -shape.randint(1, 2)})
    picks = shape.sample(smalls, shape.randint(1, 2))
    picks.sort(key=mono_key, reverse=True)
    return [(a, {0: b})] + [(frac(draw.coef), m) for m in picks]


TRANSFINITE = [
    # (family, f text, budgets)
    ("lw", "l[w]", (5, 6, 7)),
    ("lw_sq", "l[w]^2", (6,)),
    ("lw_l1", "l[w]*l[1]", (6,)),
    ("lw_succ", "l[w+1]", (6, 8)),
    ("lw2", "l[w^2]", (5, 5)),
    ("dlw", "prod(l[0..w])^-1", (5,)),
]


def _compose(draw):
    """Like _expand, each slot fixes the family, budget and shape of its
    input; the seed draws coefficients, exponents and tails.  Increments with
    l[1] appear only at budget 5, where composition stays affordable."""
    cases = []
    slot = 0
    for family, f, budgets in TRANSFINITE:
        for budget in budgets:
            extra = "l1" if budget == 5 and slot % 2 else INCREMENTS[slot % 3]
            slot += 1
            g = "x + " + series_text(_small_increment(draw.coef, extra))
            cases.append(Case(family, "comp@%d(%s, %s)" % (budget, f, g), budget,
                              op="comp", args=(f, g)))
    for i in range(6):
        budget = (6, 7, 8)[i % 3]
        numeric = i < 3
        if numeric:
            # levels 0 and 1 only, so mpmath can evaluate f(g(x)) at 10^200
            f = _finite_series(draw, 2, levels=(0, 1))
            g = [(Fraction(1), {0: 1})] + _small_increment(draw.coef,
                                                           INCREMENTS[i])
        else:
            f = _finite_series(draw, 2)
            g = _composable(draw, i % 2, 1 + i % 2)
        args = (series_text(f), series_text(g))
        data = {"numeric": numeric}
        if numeric:
            data["f"] = [[str(c), {str(k): str(e) for k, e in m.items()}]
                         for c, m in f]
            data["g"] = [[str(c), {str(k): str(e) for k, e in m.items()}]
                         for c, m in g]
        cases.append(Case("comp", "comp@%d(%s, %s)" % ((budget,) + args), budget,
                          op="comp", args=args, data=data))
    for i in range(3):
        f = series_text(_finite_series(draw, 2))
        g = series_text(_composable(draw, 0, 1 + i % 2, with_log=False))
        h = q(Fraction(draw.coef.randint(1, 3), 2))
        cases.append(Case("taylor", "taylor@6(%s, %s, %s)" % (f, g, h), 6,
                          op="taylor", args=(f, g, h)))
    for budget in (6, 7, 8, 8):
        g = series_text(_invertible(draw))
        cases.append(Case("inv", "inv@%d(%s)" % (budget, g), budget,
                          op="inv", args=(g,)))
    return cases
