"""Deterministic text, LaTeX and JSON renderers, and the JSON reader.

The JSON schema is versioned as "hyperlog/1": a series is
{"schema": "hyperlog/1", "kind": "series", "terms": [{"monomial": [piece...],
"coeff": "p/q"}], "bound": [piece...] | null} with each piece
{"from": "<ordinal>", "to": "<ordinal>", "exp": "p/q"}.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .composition import Logarithmicity
from .monomial import MONE, Monomial, make_monomial
from .ordinal import (ONE, Ordinal, ZERO, format_frac, format_int,
                      format_ordinal, ord_add, parse_frac, parse_ordinal)
from .series import Series, make_series

SCHEMA = "hyperlog/1"


# --- text --------------------------------------------------------------------

def _exp_text(e: Fraction) -> str:
    if e == 1:
        return ""
    if e.denominator == 1:
        return "^" + format_frac(e)
    return "^(%s)" % format_frac(e)


def _atom_text(lo: Ordinal) -> str:
    return "x" if lo == ZERO else "l[%s]" % format_ordinal(lo)


def format_monomial_text(m: Monomial) -> str:
    if m == MONE:
        return "1"
    factors = []
    for lo, hi, e in m.pieces:
        if hi == ord_add(lo, ONE):
            factors.append(_atom_text(lo) + _exp_text(e))
        else:
            factors.append("prod(l[%s..%s])%s"
                           % (format_ordinal(lo), format_ordinal(hi), _exp_text(e)))
    return "*".join(factors)


def _term_text(m: Monomial, c: Fraction) -> str:
    if m == MONE:
        return format_frac(c)
    if c == 1:
        return format_monomial_text(m)
    if c == -1:
        return "-" + format_monomial_text(m)
    return "%s*%s" % (format_frac(c), format_monomial_text(m))


def format_series_text(s: Series) -> str:
    if not s.terms and s.bound is None:
        return "0"
    parts = []
    for i, (m, c) in enumerate(s.terms):
        if i == 0:
            parts.append(_term_text(m, c))
        elif c < 0:
            parts.append("- " + _term_text(m, -c))
        else:
            parts.append("+ " + _term_text(m, c))
    if s.bound is not None:
        piece = "O(%s)" % format_monomial_text(s.bound)
        parts.append(("+ " if parts else "") + piece)
    return " ".join(parts)


# --- LaTeX -------------------------------------------------------------------

def format_ordinal_latex(a: Ordinal) -> str:
    if not a.terms:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp == ZERO:
            parts.append(format_int(coeff))
            continue
        body = r"\omega" if exp == ONE else r"\omega^{%s}" % format_ordinal_latex(exp)
        parts.append(body if coeff == 1
                     else r"%s \cdot %s" % (body, format_int(coeff)))
    return " + ".join(parts)


def _frac_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return format_int(c.numerator)
    sign = "-" if c < 0 else ""
    return r"%s\frac{%s}{%s}" % (sign, format_int(abs(c.numerator)),
                                 format_int(c.denominator))


def _exp_latex(e: Fraction) -> str:
    if e == 1:
        return ""
    return "^{%s}" % format_frac(e)


def format_monomial_latex(m: Monomial) -> str:
    if m == MONE:
        return "1"
    factors = []
    for lo, hi, e in m.pieces:
        if hi == ord_add(lo, ONE):
            factors.append(r"\ell_{%s}%s" % (format_ordinal_latex(lo), _exp_latex(e)))
        else:
            factors.append(r"\prod_{%s \le \beta < %s} \ell_{\beta}%s"
                           % (format_ordinal_latex(lo), format_ordinal_latex(hi),
                              _exp_latex(e)))
    return " ".join(factors)


def format_series_latex(s: Series) -> str:
    if not s.terms and s.bound is None:
        return "0"
    parts = []
    for i, (m, c) in enumerate(s.terms):
        lead = "" if i == 0 else ("- " if c < 0 else "+ ")
        c_abs = -c if (i > 0 and c < 0) else c
        if m == MONE:
            body = _frac_latex(c_abs)
        elif c_abs == 1:
            body = format_monomial_latex(m)
        elif c_abs == -1:
            body = "-" + format_monomial_latex(m)
        else:
            body = _frac_latex(c_abs) + " " + format_monomial_latex(m)
        parts.append(lead + body)
    if s.bound is not None:
        parts.append(("+ " if parts else "")
                     + r"O\!\left(%s\right)" % format_monomial_latex(s.bound))
    return " ".join(parts)


# --- JSON --------------------------------------------------------------------

def monomial_to_json(m: Monomial) -> list:
    return [{"from": format_ordinal(lo), "to": format_ordinal(hi),
             "exp": format_frac(e)} for lo, hi, e in m.pieces]


def series_to_json(s: Series) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "series",
        "terms": [{"monomial": monomial_to_json(m), "coeff": format_frac(c)}
                  for m, c in s.terms],
        "bound": monomial_to_json(s.bound) if s.bound is not None else None,
    }


def value_to_json(v) -> dict:
    if isinstance(v, Series):
        return series_to_json(v)
    if isinstance(v, Logarithmicity):
        return {"schema": SCHEMA, "kind": "logarithmicity",
                "value": "inf" if v.is_infinite else format_ordinal(v.value)}
    if isinstance(v, Ordinal):
        return {"schema": SCHEMA, "kind": "ordinal", "value": format_ordinal(v)}
    raise TypeError("cannot render %r" % (v,))


def monomial_from_json(data) -> Monomial:
    return make_monomial([(parse_ordinal(p["from"]), parse_ordinal(p["to"]),
                           parse_frac(p["exp"])) for p in data])


def series_from_json(data) -> Series:
    if data.get("schema") != SCHEMA:
        raise ValueError("unknown schema: %r" % data.get("schema"))
    if data.get("kind") != "series":
        raise ValueError("not a series payload")
    terms = [(monomial_from_json(t["monomial"]), parse_frac(t["coeff"]))
             for t in data["terms"]]
    bound = monomial_from_json(data["bound"]) if data["bound"] is not None else None
    return make_series(terms, bound)


def format_value(v, mode: str = "text") -> str:
    """Render a series, ordinal or logarithmicity in the requested mode."""
    if mode == "json":
        return json.dumps(value_to_json(v), sort_keys=True)
    if isinstance(v, Series):
        return format_series_text(v) if mode == "text" else format_series_latex(v)
    if isinstance(v, Logarithmicity):
        if v.is_infinite:
            return "inf" if mode == "text" else r"\infty"
        v = v.value
    if isinstance(v, Ordinal):
        return format_ordinal(v) if mode == "text" else format_ordinal_latex(v)
    raise TypeError("cannot render %r" % (v,))
