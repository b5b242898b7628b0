"""Derivation, logarithmic derivative, and distinguished integration.

The derivative of a monomial multiplies it by the sum, over its support, of
the exponent times the logarithmic derivative of that level; infinite interval
pieces truncate with a bound.  Integration inverts the modified derivation
(the derivative divided by the exact derivative monomial of the level) through
a dominant-term lift T and a Neumann sum for (I + E)^-1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .monomial import (MONE, Monomial, hyperlog, hyperlog_dagger,
                       hyperlog_deriv, mono_compare, mono_mul, mono_pow)
from .ordinal import GT, ONE, Ordinal, ZERO, omega_pow, ord_add, ord_compare
from .series import (DEFAULT_PRECISION, POS, Precision, S_ZERO, Series,
                     ZEROSIGN, _join_bounds, _recurrence, from_monomial,
                     is_exact_zero, make_series, ser_compare_zero,
                     ser_dominant, ser_mul, ser_mul_inverse, ser_mul_mono,
                     ser_sub, support_sum, truncated_sum, with_bound)

X_INV = mono_pow(hyperlog(ZERO), -1)


@lru_cache(maxsize=None)
def derive_monomial(m: Monomial, prec: Precision = DEFAULT_PRECISION) -> Series:
    """Derivative of a monomial: r_b * m * dagger(l[b]) summed over its support."""
    return support_sum(m, lambda b: mono_mul(m, hyperlog_dagger(b)), prec.budget)


def derive(f: Series, prec: Precision = DEFAULT_PRECISION) -> Series:
    """Term-by-term derivative; an input bound propagates scaled by 1/x."""
    terms = []
    bound = None
    for m, c in f.terms:
        d = derive_monomial(m, prec)
        terms.extend((dm, dc * c) for dm, dc in d.terms)
        if d.bound is not None:
            bound = _join_bounds(bound, d.bound)
    if f.bound is not None:
        bound = _join_bounds(bound, mono_mul(f.bound, X_INV))
    return make_series(terms, bound)


def dagger(f: Series, prec: Precision = DEFAULT_PRECISION) -> Series:
    """Logarithmic derivative: derivative times multiplicative inverse."""
    return ser_mul(derive(f, prec), ser_mul_inverse(f, prec))


def mod_derive(f: Series, mu: Ordinal, prec: Precision = DEFAULT_PRECISION) -> Series:
    """The derivative divided by the exact derivative monomial of level mu."""
    return ser_mul_mono(derive(f, prec), mono_pow(hyperlog_deriv(mu), -1))


def _integration_level(f: Series) -> Ordinal:
    """Least omega-power strictly above every support ordinal of f."""
    hi_max = None
    monos = [m for m, _ in f.terms]
    if f.bound is not None:
        monos.append(f.bound)
    for m in monos:
        for _, hi, _ in m.pieces:
            if hi_max is None or ord_compare(hi, hi_max) == GT:
                hi_max = hi
    if hi_max is None:
        return ONE
    lead_exp = hi_max.terms[0][0]
    if hi_max == omega_pow(lead_exp):
        return hi_max
    return omega_pow(ord_add(lead_exp, ONE))


@lru_cache(maxsize=None)
def _t_mono(m: Monomial, alpha: Ordinal, prec: Precision):
    """Dominant-term lift: c*n with the modified derivative of c*n asymptotic to m."""
    if m == MONE:
        return Fraction(1), hyperlog(alpha)
    beta_min = m.pieces[0][0]
    n = mono_mul(m, mono_mul(mono_pow(hyperlog_dagger(beta_min), -1),
                             hyperlog_deriv(alpha)))
    md, cd = ser_dominant(mod_derive(from_monomial(n), alpha, prec))
    if md != m:
        raise AssertionError("lift mismatch: %r -> %r" % (m, md))
    return Fraction(1) / cd, n


def _t_series(g: Series, alpha: Ordinal, prec: Precision) -> Series:
    terms = []
    for m, c in g.terms:
        cm, nm = _t_mono(m, alpha, prec)
        terms.append((nm, c * cm))
    bound = _t_mono(g.bound, alpha, prec)[1] if g.bound is not None else None
    return make_series(terms, bound)


def integrate(f: Series, prec: Precision = DEFAULT_PRECISION) -> Series:
    """The antiderivative whose support avoids the constant monomial."""
    if is_exact_zero(f):
        return S_ZERO
    alpha = _integration_level(f)
    u = ser_mul_mono(f, mono_pow(hyperlog_deriv(alpha), -1))

    def correct(k, t):
        # The correction operator is contractive, so content hidden below
        # the input bound maps to content hidden below the same bound.
        bare = Series(t.terms)
        lifted = _t_series(bare, alpha, prec)
        return with_bound(ser_sub(bare, mod_derive(lifted, alpha, prec)),
                          t.bound)

    # T is strictly monotone on monomials, so lifting the truncated sum puts
    # its bound exactly where lifting each term would
    return _t_series(truncated_sum(_recurrence(u, correct), prec.budget),
                     alpha, prec)


@dataclass(frozen=True)
class HFieldFacts:
    infinite: bool
    derivative_sign: int


def hfield_facts(f: Series, prec: Precision = DEFAULT_PRECISION) -> HFieldFacts:
    """Whether f exceeds every rational constant, and the sign of its derivative."""
    sign = ser_compare_zero(f)
    if sign == ZEROSIGN:
        return HFieldFacts(False, 0)
    infinite = mono_compare(f.terms[0][0], MONE) == 1 and sign == POS
    return HFieldFacts(infinite, ser_compare_zero(derive(f, prec)))
