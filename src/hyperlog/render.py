"""Deterministic text, LaTeX and JSON renderers, and the JSON reader.

Text and LaTeX come from one walk, _series -> _term -> _monomial, which takes
a Notation record (TEXT or LATEX) and never looks at the mode.

The JSON schema is versioned as "hyperlog/1": a series is
{"schema": "hyperlog/1", "kind": "series", "terms": [{"monomial": [piece...],
"coeff": "p/q"}], "bound": [piece...] | null} with each piece
{"from": "<ordinal>", "to": "<ordinal>", "exp": "p/q"}.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .composition import Logarithmicity
from .monomial import MONE, Monomial, make_monomial
from .ordinal import (ONE, Ordinal, ZERO, format_frac, format_int,
                      format_ordinal, ord_add, parse_frac, parse_ordinal)
from .series import Series, make_series

SCHEMA = "hyperlog/1"


# --- text and LaTeX ----------------------------------------------------------

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


@dataclass(frozen=True)
class Notation:
    """How one output mode writes the parts of a series."""
    frac: Callable[[Fraction], str]        # a coefficient
    exp: Callable[[Fraction], str]         # an exponent suffix, "" for 1
    level: Callable[[Ordinal], str]        # the factor l[a]
    interval: Callable[[Ordinal, Ordinal], str]  # prod of l[b], lo <= b < hi
    times: str    # between a coefficient and its monomial, and between factors
    big_o: str    # the truncation bound, a format of its monomial


TEXT = Notation(
    frac=format_frac,
    exp=lambda e: "" if e == 1 else (
        "^%s" if e.denominator == 1 else "^(%s)") % format_frac(e),
    level=lambda a: "x" if a == ZERO else "l[%s]" % format_ordinal(a),
    interval=lambda lo, hi: "prod(l[%s..%s])" % (format_ordinal(lo),
                                                 format_ordinal(hi)),
    times="*", big_o="O(%s)")

LATEX = Notation(
    frac=_frac_latex,
    exp=lambda e: "" if e == 1 else "^{%s}" % format_frac(e),
    level=lambda a: r"\ell_{%s}" % format_ordinal_latex(a),
    interval=lambda lo, hi: r"\prod_{%s \le \beta < %s} \ell_{\beta}"
    % (format_ordinal_latex(lo), format_ordinal_latex(hi)),
    times=" ", big_o=r"O\!\left(%s\right)")


def _monomial(m: Monomial, n: Notation) -> str:
    if m == MONE:
        return "1"
    return n.times.join(
        (n.level(lo) if hi == ord_add(lo, ONE) else n.interval(lo, hi)) + n.exp(e)
        for lo, hi, e in m.pieces)


def _term(m: Monomial, c: Fraction, n: Notation) -> str:
    if m == MONE:
        return n.frac(c)
    if c == 1:
        return _monomial(m, n)
    if c == -1:
        return "-" + _monomial(m, n)
    return n.frac(c) + n.times + _monomial(m, n)


def _series(s: Series, n: Notation) -> str:
    if not s.terms and s.bound is None:
        return "0"
    parts = [_term(*s.terms[0], n)] if s.terms else []
    for m, c in s.terms[1:]:
        parts.append("- " + _term(m, -c, n) if c < 0 else "+ " + _term(m, c, n))
    if s.bound is not None:
        parts.append(("+ " if parts else "") + n.big_o % _monomial(s.bound, n))
    return " ".join(parts)


def format_series_text(s: Series) -> str:
    return _series(s, TEXT)


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
    if not isinstance(data, dict):
        raise ValueError("not a JSON object: %s" % type(data).__name__)
    if data.get("schema") != SCHEMA:
        raise ValueError("unknown schema: %r" % data.get("schema"))
    if data.get("kind") != "series":
        raise ValueError("not a series payload")
    try:
        terms = [(monomial_from_json(t["monomial"]), parse_frac(t["coeff"]))
                 for t in data["terms"]]
        bound = None if data["bound"] is None else monomial_from_json(data["bound"])
    except KeyError as err:
        raise ValueError("series payload without %s" % err) from None
    except TypeError:  # a list, string or number where another type belongs
        raise ValueError("series payload with a value of the wrong type") from None
    return make_series(terms, bound)


def format_value(v, mode: str = "text") -> str:
    """Render a series, ordinal or logarithmicity in the requested mode."""
    if mode == "json":
        return json.dumps(value_to_json(v), sort_keys=True)
    if isinstance(v, Series):
        return _series(v, TEXT if mode == "text" else LATEX)
    if isinstance(v, Logarithmicity):
        if v.is_infinite:
            return "inf" if mode == "text" else r"\infty"
        v = v.value
    if isinstance(v, Ordinal):
        return format_ordinal(v) if mode == "text" else format_ordinal_latex(v)
    raise TypeError("cannot render %r" % (v,))
