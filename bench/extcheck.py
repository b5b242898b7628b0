"""Checks against programs other than hyperlog, run once per run by run.py.

* Expansions of series in x alone are compared, term by term down to the
  bound, with ``sympy.series`` at infinity (through t = 1/x).
* Compositions of finite-level series are evaluated with ``mpmath`` at a
  large x; the truncated output must agree within the size of its bound.

Each function returns None when the output agrees and a reason otherwise.
"""
from __future__ import annotations

import math
from fractions import Fraction


def _terms(out):
    """Map the hyperlog/1 JSON of a series in x and l[1] to plain data:
    ({x exponent: coeff}, coefficient of l[1], x exponent of the bound)."""
    xs, log_coeff = {}, Fraction(0)
    for term in out["terms"]:
        c = Fraction(term["coeff"])
        pieces = term["monomial"]
        if not pieces:
            xs[Fraction(0)] = c
        elif pieces == [{"from": "1", "to": "2", "exp": "1"}]:
            log_coeff = c
        elif len(pieces) == 1 and pieces[0]["from"] == "0" and pieces[0]["to"] == "1":
            xs[Fraction(pieces[0]["exp"])] = c
        else:
            raise ValueError("not a series in x: %r" % (pieces,))
    bound = None
    if out["bound"] is not None:
        (piece,) = out["bound"]
        if piece["from"] != "0" or piece["to"] != "1":
            raise ValueError("bound is not a power of x")
        bound = Fraction(piece["exp"])
    return xs, log_coeff, bound


def sympy_check(item):
    """Compare an expansion of a series in x with sympy's."""
    import sympy as sp
    data, op = item["data"], item["op"]
    x = sp.Symbol("x", positive=True)
    t = sp.Symbol("t", positive=True)

    def poly(terms):
        return sp.Add(*[sp.Rational(c) * x ** sp.Rational(e) for c, e in terms])

    a = poly(data["a"])
    expr = {"div": lambda: poly(data["num"]) / a,
            "log": lambda: sp.log(a),
            "pow": lambda: a ** sp.Rational(data["p"]),
            "dagger": lambda: sp.diff(a, x) / a}[op]()
    xs, log_coeff, bound = _terms(item["out"])
    if bound is None:
        ours = sp.Add(*[sp.Rational(str(c)) * x ** sp.Rational(str(e))
                        for e, c in xs.items()]) + sp.Rational(str(log_coeff)) * sp.log(x)
        return None if sp.simplify(expr - ours) == 0 else "differs from sympy"
    u = expr.subs(x, 1 / t)
    n = math.floor(-bound) + 2
    series = sp.series(u, t, 0, n)
    order = series.getO()
    if order is None or order.expr.as_coeff_exponent(t)[1] <= -bound:
        return "sympy series too short"
    ref, ref_log = {}, Fraction(0)
    for term in sp.Add.make_args(sp.expand(series.removeO())):
        if term.has(sp.log(t)):
            ref_log += Fraction(str(term.coeff(sp.log(t))))
            continue
        c, e = term.as_coeff_exponent(t)
        if c.has(t):
            return "unexpected sympy term %s" % term
        key = -Fraction(str(e))
        ref[key] = ref.get(key, Fraction(0)) + Fraction(str(c))
    if log_coeff != -ref_log:
        return "log coefficient differs from sympy"
    for e in set(xs) | set(ref):
        if e >= bound and xs.get(e, 0) != ref.get(e, 0):
            return "coefficient of x^%s differs from sympy" % e
    return None


X0_DIGITS = 200     # evaluate at x = 10^200, where l[1] is about 460
DPS = 2600          # working precision in decimal digits
SLACK = 1000        # omitted terms may add up to this many bounds, in units
                    # of the largest listed coefficient


def numeric_check(item):
    """Evaluate f(g(x)) at a large x and compare with the truncated output.

    Omitted terms lie below the bound asymptotically, but their coefficients
    grow like the listed ones (as 3^n for x + 3), while at x = 10^200 each
    factor l[1]^-1 shrinks them only by 460.  So the output must agree within
    SLACK times the bound times its largest coefficient.  A wrong
    coefficient of any term a power of x above the bound still shows by a
    factor of 10^100 or more."""
    import mpmath as mp
    mp.mp.dps = DPS

    def level_logs(y, top):
        """log l[k](y) for k = 0 .. top."""
        out = [mp.log(y)]
        for _ in range(top):
            out.append(mp.log(out[-1]))
        return out

    def mono(pieces, logs):
        expo = mp.mpf(0)
        for lo, hi, e in pieces:
            e = Fraction(e)
            expo += sum(logs[lo:hi]) * e.numerator / e.denominator
        return mp.exp(expo)

    def total(terms, logs):
        return sum(mp.mpf(c.numerator) / c.denominator * mono(p, logs)
                   for p, c in terms)

    def plain(terms):
        return [([(int(k), int(k) + 1, e) for k, e in m.items()], Fraction(c))
                for c, m in terms]

    def from_json(pieces):
        return [(int(p["from"]), int(p["to"]), p["exp"]) for p in pieces]

    x_logs = level_logs(mp.mpf(10) ** X0_DIGITS, 3)
    y = total(plain(item["data"]["g"]), x_logs)
    want = total(plain(item["data"]["f"]), level_logs(y, 2))
    out = item["out"]
    got = total([(from_json(t["monomial"]), Fraction(t["coeff"]))
                 for t in out["terms"]], x_logs)
    slack = mp.mpf(10) ** (100 - DPS) * max(mp.mpf(1), abs(want))
    if out["bound"] is not None:
        largest = max([abs(Fraction(t["coeff"])) for t in out["terms"]] + [1])
        slack += SLACK * largest * mono(from_json(out["bound"]), x_logs)
    if abs(want - got) <= slack:
        return None
    return "differs from mpmath at x = 10^%d" % X0_DIGITS
