"""Output checks that run in the worker, after its timed phase.

Each check compares an output with an answer built from a closed form or
with an identity the method must satisfy (the acceptance guarantees c05,
c06, c11, c12 and c13).  None compares with a stored copy of an earlier
output, apart from the hand-written golden answers.  A check returns None
when the output is right and a short reason otherwise.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

from hyperlog import (OMEGA, Precision, X, compose, derive, eq_to_bound,
                      from_const, from_monomial, hyperlog, mono_pow, omega_pow,
                      ordinal, recursion_check, ser_add, ser_log, ser_mul,
                      ser_scale, ser_sub, taylor_compose)
from hyperlog.cli import eval_text
from hyperlog.monomial import MONE, make_monomial
from hyperlog.ordinal import parse_ordinal
from hyperlog.render import format_value
from hyperlog.series import make_series

X_SER = from_monomial(X)


def build_series(data):
    """A Series from the check data format of workloads.py."""
    def mono(pieces):
        return make_monomial([(parse_ordinal(lo), parse_ordinal(hi),
                               Fraction(e)) for lo, hi, e in pieces])
    bound = mono(data["bound"]) if data["bound"] is not None else None
    return make_series([(mono(p), Fraction(c)) for p, c in data["terms"]],
                       bound)


def _eq(a, b, what):
    return None if eq_to_bound(a, b) else "%s does not hold to the bound" % what


def check_value(case, value, rendered, operands):
    """Check an output value of a case whose expected outcome is a value."""
    kind, data = case.kind, case.data
    prec = Precision(case.budget)
    if kind == "golden":
        return None if rendered == data["want"] else "golden answer differs"
    if kind == "exact":
        want = build_series(data)
        if value != want:
            return "value differs from the closed form"
        if rendered != format_value(want, case.mode):
            return "rendering differs from the closed form's"
        return None
    if kind == "to_bound":
        return _eq(value, build_series(data), "agreement with the closed form")
    if kind == "lambda":
        if case.mode == "json":
            got = json.loads(rendered)
            ok = got == {"schema": "hyperlog/1", "kind": "logarithmicity",
                         "value": data["ordinal"]}
        else:
            ok = rendered == data["ordinal"]
        return None if ok else "logarithmicity differs"
    if kind == "root":
        n = int(data["root_of"])
        root = math.isqrt(n)
        if root * root != n:
            raise ValueError("the input must be a perfect square")
        return None if value == from_const(root) else "wrong root"
    if kind == "inverse":
        g = eval_text(data["g"])
        return (_eq(compose(g, value, prec), X_SER, "g(inv g) = x")
                or _eq(compose(value, g, prec), X_SER, "inv g(g) = x"))
    return _check_library(case, value, operands, prec)


def _check_library(case, value, operands, prec):
    op = case.op
    if op == "div":
        num, den = operands
        return _eq(ser_mul(value, den), num, "(n/a)*a = n")
    if op == "log":
        (a,) = operands
        return _eq(ser_mul(derive(value, prec), a), derive(a, prec),
                   "D(log a)*a = D(a)")
    if op == "pow":
        # r = a^(p/q) is the solution of q*a*D(r) = p*D(a)*r whose leading
        # term is lead(a)^(p/q); raising r to the q-th power instead costs
        # seconds at these budgets
        (a,) = operands
        p = Fraction(case.data["p"])
        (ma, ca), (mr, cr) = a.terms[0], value.terms[0]
        if mr != mono_pow(ma, p) or cr != ca ** p:
            return "leading term is not lead(a)^(p/q)"
        return _eq(ser_scale(ser_mul(a, derive(value, prec)), p.denominator),
                   ser_scale(ser_mul(derive(a, prec), value), p.numerator),
                   "q*a*D(a^(p/q)) = p*D(a)*a^(p/q)")
    if op == "dagger":
        (a,) = operands
        return _eq(ser_mul(value, a), derive(a, prec), "dagger(a)*a = D(a)")
    if op == "int":
        (f,) = operands
        if any(m == MONE for m, _ in value.terms):
            return "int f has a constant term"
        return _eq(derive(value, prec), f, "D(int f) = f")
    if op == "comp":
        return _check_comp(case, value, operands, prec)
    if op == "taylor":
        f, g, h = operands
        return _eq(value, compose(f, ser_add(g, h), prec),
                   "taylor(f, g, h) = comp(f, g + h)")
    if op == "inv":
        (g,) = operands
        return (_eq(compose(g, value, prec), X_SER, "g(inv g) = x")
                or _eq(compose(value, g, prec), X_SER, "inv g(g) = x"))
    raise ValueError("no check for %r" % op)


def _check_comp(case, value, operands, prec):
    f, g = operands
    kind = case.kind
    lw = from_monomial(hyperlog(OMEGA))
    if kind == "lw":
        if case.budget == 5:
            return _eq(value, recursion_check(OMEGA, g, prec),
                       "l[w](g) = recursion_check")
        return _eq(value, taylor_compose(lw, X_SER, ser_sub(g, X_SER), prec),
                   "comp(l[w], x + h) = taylor(l[w], x, h)")
    if kind == "lw2":
        return _eq(value, recursion_check(omega_pow(ordinal(2)), g, prec),
                   "l[w^2](g) = recursion_check")
    if kind in ("lw_sq", "lw_l1", "lw_succ", "dlw"):
        lwg = compose(lw, g, prec)
        if kind == "lw_sq":
            return _eq(value, ser_mul(lwg, lwg), "(l[w]^2)(g) = l[w](g)^2")
        if kind == "lw_l1":
            return _eq(value, ser_mul(lwg, ser_log(g, prec)),
                       "(l[w]*l[1])(g) = l[w](g)*log(g)")
        if kind == "lw_succ":
            return _eq(value, ser_log(lwg, prec), "l[w+1](g) = log(l[w](g))")
        return _eq(derive(lwg, prec), ser_mul(value, derive(g, prec)),
                   "chain rule on l[w]")
    if kind == "comp":
        if case.data["numeric"]:
            return None   # run.py compares it with mpmath instead
        lhs = derive(value, prec)
        rhs = ser_mul(compose(derive(f, prec), g, prec), derive(g, prec))
        return _eq(lhs, rhs, "chain rule")
    raise ValueError("no check for %r" % kind)

