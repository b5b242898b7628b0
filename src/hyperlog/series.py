"""Truncation-bounded exact series over the logarithmic monomial group.

A Series is a finite descending list of (monomial, coefficient) terms plus an
optional bound monomial.  Semantics: the represented value is the listed sum
plus a remainder every monomial of which is strictly below the bound.  Listed
monomials are at or above the bound, so every listed coefficient is exact.
Without a bound the series is the listed sum, exactly.

Two rules set a truncation bound, and each job has one of them.  Every
expansion (inverse, logarithm, power, integration, composition) is an
infinite sum of terms with strictly decreasing dominants, all but the Taylor
sum a recurrence t_k = step(k, t_(k-1)): truncated_sum merges the terms once
and closes the sum after budget terms with O(the last term), since nothing
says where such a sum ends.  A support walk (derivative and logarithm of a
monomial) emits one term per level of the monomial's support: support_sum
looks one level ahead, so a support of exactly budget levels stays exact
and only a longer one is closed with O(the last term).

Floors.  A floor is a bound monomial that the caller attaches to the result
anyway, known in advance from dominant monomials alone.  An operation given
a floor returns exactly with_bound(result, floor), but never forms a product
below it: ser_mul(a, b, floor) and ser_pow(a, t, prec, floor) stop their
rows and their expansions there.  The inverse, the logarithm and the power
are one power series in eps with one floor rule: when the sum provably
reaches its n terms, nothing below dom(first) * dom(eps)^(n-1) is formed.

make_series sorts terms by Monomial.key.  Its inputs arrive as descending
runs (the parts of ser_add), and the sort finds those runs and merges them.
ser_mul merges its products itself, as integer numerators over one common
denominator, and builds one Fraction per result term.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import lcm

from .errors import (BadPrecision, IndeterminateDominant, IndeterminateSign,
                     IndeterminateSplit, IrrationalConstantPower, NonMonicLog,
                     NotPositive, ZeroSeries)
from .monomial import (LT, EQ, GT, MONE, Monomial, hyperlog, mono_compare,
                       mono_max, mono_mul, mono_pow, support_levels)
from .ordinal import ONE, format_frac, ord_add

NEG, ZEROSIGN, POS = -1, 0, 1


@dataclass(frozen=True)
class Series:
    terms: tuple = ()  # ((Monomial, Fraction), ...) strictly descending
    bound: Monomial | None = None

    def __repr__(self):
        if not self.terms and self.bound is None:
            return "Series(0)"
        body = " + ".join("%s*%r" % (c, m) for m, c in self.terms)
        if self.bound is not None:
            body += " + O(%r)" % (self.bound,)
        return "Series(%s)" % body


@dataclass(frozen=True)
class Precision:
    budget: int = 8

    def __post_init__(self):
        if self.budget < 1:
            raise BadPrecision("precision budget must be >= 1")
        if self.budget >= sys.maxsize:
            raise BadPrecision("precision budget must be < %d" % sys.maxsize)


DEFAULT_PRECISION = Precision(8)

S_ZERO = Series()
S_ONE = Series(((MONE, Fraction(1)),))


def make_series(terms, bound: Monomial | None = None) -> Series:
    """Canonicalize: merge duplicates, drop zeros and sub-bound terms, sort."""
    acc = {}
    for m, c in terms:
        if type(c) is not Fraction:
            c = Fraction(c)
        acc[m] = acc[m] + c if m in acc else c
    low = bound.key if bound is not None else ()  # () is below every key
    kept = [(m, c) for m, c in acc.items() if c and m.key >= low]
    kept.sort(key=lambda t: t[0].key, reverse=True)
    return Series(tuple(kept), bound)


def from_const(c) -> Series:
    c = Fraction(c)
    return Series(((MONE, c),)) if c != 0 else S_ZERO


def from_monomial(m: Monomial, c=1) -> Series:
    c = Fraction(c)
    return Series(((m, c),)) if c != 0 else S_ZERO


def is_exact_zero(a: Series) -> bool:
    return not a.terms and a.bound is None


def _join_bounds(a: Monomial | None, b: Monomial | None) -> Monomial | None:
    if a is None:
        return b
    if b is None:
        return a
    return mono_max(a, b)


def with_bound(a: Series, bound: Monomial | None) -> Series:
    """Weaken a by an extra bound monomial: cut its terms below the join."""
    if bound is None:
        return a
    bound = _join_bounds(a.bound, bound)
    low = bound.key
    return Series(tuple(t for t in a.terms if t[0].key >= low), bound)


def ser_add(*parts: Series) -> Series:
    """The sum of any number of series, merged once."""
    bound = None
    for p in parts:
        bound = _join_bounds(bound, p.bound)
    return make_series([t for p in parts for t in p.terms], bound)


def ser_neg(a: Series) -> Series:
    return Series(tuple((m, -c) for m, c in a.terms), a.bound)


def ser_sub(a: Series, b: Series) -> Series:
    return ser_add(a, ser_neg(b))


def ser_scale(a: Series, c) -> Series:
    c = Fraction(c)
    if c == 0:
        return S_ZERO
    if c == -1:
        return ser_neg(a)
    return Series(tuple((m, k * c) for m, k in a.terms), a.bound)


def ser_mul_mono(a: Series, m: Monomial, c=1) -> Series:
    """Multiply by an exact monomial term c*m."""
    if a is S_ONE:
        return from_monomial(m, c)
    c = Fraction(c)
    if c == 0:
        return S_ZERO
    terms = tuple((mono_mul(tm, m), tc * c) for tm, tc in a.terms)
    bound = mono_mul(a.bound, m) if a.bound is not None else None
    return Series(terms, bound)


def ser_mul(a: Series, b: Series, floor: Monomial | None = None) -> Series:
    """The product, weakened by the floor: with_bound(a*b, floor)."""
    if is_exact_zero(a) or is_exact_zero(b):
        return Series((), floor)
    bound = floor
    if b.bound is not None and a.terms:
        bound = _join_bounds(bound, mono_mul(a.terms[0][0], b.bound))
    if a.bound is not None and b.terms:
        bound = _join_bounds(bound, mono_mul(b.terms[0][0], a.bound))
    if a.bound is not None and b.bound is not None:
        bound = _join_bounds(bound, mono_mul(a.bound, b.bound))
    # integer numerators over one common denominator: no Fraction per product
    da, na = _over_common_denominator(a.terms)
    db, nb = _over_common_denominator(b.terms)
    acc = {}
    for ma, ca in na:
        # terms descend, so each row of products descends: stop below the bound
        if bound is not None and nb and \
                mono_compare(mono_mul(ma, nb[0][0]), bound) == LT:
            break
        for mb, cb in nb:
            m = mono_mul(ma, mb)
            if bound is not None and mono_compare(m, bound) == LT:
                break
            acc[m] = acc[m] + ca * cb if m in acc else ca * cb
    d = da * db
    kept = [(m, Fraction(n, d)) for m, n in acc.items() if n]
    kept.sort(key=lambda t: t[0].key, reverse=True)
    return Series(tuple(kept), bound)


def _over_common_denominator(terms):
    """(d, [(m, n), ...]) with d the lcm of the denominators and c = n/d."""
    d = lcm(*(c.denominator for _, c in terms))
    return d, [(m, c.numerator * (d // c.denominator)) for m, c in terms]


def ser_dominant(a: Series):
    """The exact leading (monomial, coefficient) pair."""
    if a.terms:
        return a.terms[0]
    if a.bound is not None:
        raise IndeterminateDominant("dominant term hidden below the bound")
    raise ZeroSeries("the zero series has no dominant term")


def _dominant_monomial_or_bound(a: Series) -> Monomial | None:
    """The leading monomial, else the bound; None for the exact zero."""
    if a.terms:
        return a.terms[0][0]
    return a.bound


def ser_compare_zero(a: Series) -> int:
    """Sign of a: NEG, ZEROSIGN or POS."""
    if a.terms:
        return POS if a.terms[0][1] > 0 else NEG
    if a.bound is None:
        return ZEROSIGN
    raise IndeterminateSign("sign hidden below the bound")


def ser_lt(a: Series, b: Series) -> bool:
    return ser_compare_zero(ser_sub(a, b)) == NEG


def eq_exact(a: Series, b: Series) -> bool:
    """Exact equality: both unbounded with identical terms."""
    return a.bound is None and b.bound is None and a.terms == b.terms


def eq_to_bound(a: Series, b: Series) -> bool:
    """Equality of all content at or above the weaker of the two bounds."""
    if a.bound is None and b.bound is None:
        return a.terms == b.terms
    return not ser_sub(a, b).terms


def _split_dominant(a: Series):
    """Write a as c*m*(1 + eps) with eps strictly below 1; return (m, c, eps)."""
    m, c = ser_dominant(a)
    rest = Series(a.terms[1:], a.bound)
    eps = ser_mul_mono(rest, mono_pow(m, -1), Fraction(1) / c)
    return m, c, eps


def truncated_sum(terms, budget: int) -> Series:
    """Sum series whose dominant monomials strictly decrease, merged once.

    An exact-zero term, or the end of terms, ends the sum exactly; a term
    with only a bound ends it at that bound; after budget terms the sum is
    closed with O(dominant of the last term), which bounds every term left
    out because the dominants decrease.
    """
    parts = []
    for t in terms:
        if is_exact_zero(t):
            break
        parts.append(t)
        if not t.terms:
            break
        if len(parts) == budget:
            parts.append(Series((), t.terms[0][0]))
            break
    return ser_add(*parts)


def _recurrence(first: Series, step):
    """The terms t_0 = first, t_k = step(k, t_(k-1)), formed as pulled."""
    t = first
    for k in count(1):
        yield t
        t = step(k, t)


def _eps_sum(first: Series, eps: Series, ratio, n: int,
             floor: Monomial | None = None, terminates=False) -> Series:
    """truncated_sum of t_0 = first, t_k = ratio(k) * t_(k-1) * eps, n terms.

    eps is infinitesimal, and an exact-zero eps leaves first exact.  Unless
    a ratio vanishes (terminates), a sum whose eps has a term reaches n terms
    and closes at dom(first) * dom(eps)^(n-1): nothing below it is formed.
    ratio(k) is called only as the k-th term is pulled.
    """
    if is_exact_zero(eps):
        return first
    if eps.terms and not terminates:
        floor = _join_bounds(floor, mono_mul(first.terms[0][0],
                                             mono_pow(eps.terms[0][0], n - 1)))

    def step(k, t):
        r = ratio(k)
        return ser_scale(ser_mul(t, eps, floor), r) if r else S_ZERO

    return truncated_sum(_recurrence(first, step), n)


def ser_mul_inverse(a: Series, prec: Precision = DEFAULT_PRECISION) -> Series:
    """Multiplicative inverse by the geometric expansion of the tail."""
    m, c, eps = _split_dominant(a)
    return ser_mul_mono(_eps_sum(S_ONE, eps, lambda k: -1, prec.budget),
                        mono_pow(m, -1), Fraction(1) / c)


def support_sum(m: Monomial, term, budget: int) -> Series:
    """Sum r * term(b) over the support levels b of m, exponent r at b.

    term must map ascending levels to descending monomials.  The first budget
    levels give the terms; if m has a level beyond them, the sum is closed
    with O(the last term), which bounds every term left out.
    """
    levels = list(islice(support_levels(m), budget + 1))
    terms = [(term(b), r) for b, r in levels[:budget]]
    return make_series(terms, terms[-1][0] if len(levels) > budget else None)


def log_monomial(m: Monomial, prec: Precision = DEFAULT_PRECISION) -> Series:
    """The logarithm of a monomial: sum of r_b * l[b+1] over the support."""
    return support_sum(m, lambda b: hyperlog(ord_add(b, ONE)), prec.budget)


def _check_positive_leading(a: Series):
    m, c = ser_dominant(a)
    if c < 0:
        raise NotPositive("leading coefficient %s is negative" % format_frac(c))
    return m, c


def _check_monic(c):
    if c != 1:
        raise NonMonicLog("leading coefficient %s is not 1" % format_frac(c))


def ser_log(a: Series, prec: Precision = DEFAULT_PRECISION) -> Series:
    """Logarithm of a positive series with leading coefficient 1."""
    m, c = _check_positive_leading(a)
    _check_monic(c)
    _, _, eps = _split_dominant(a)
    return ser_add(log_monomial(m, prec),
                   _eps_sum(eps, eps, lambda k: Fraction(-k, k + 1),
                            prec.budget))


def rational_pow(c: Fraction, t: Fraction) -> Fraction | None:
    """c**t when it is rational, else None; c must be positive."""
    if c <= 0:
        raise ValueError("base must be positive")
    c = Fraction(c)
    t = Fraction(t)
    if t == 0 or c == 1:
        return Fraction(1)
    if t < 0:
        c, t = 1 / c, -t
    rn = _int_root(c.numerator, t.denominator)
    rd = _int_root(c.denominator, t.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn**t.numerator, rd**t.numerator)


def _int_root(n: int, k: int) -> int | None:
    """The exact k-th root of the natural number n, or None if n has none."""
    if n < 2:
        return n
    # integer Newton from above: r stays at or above the floor of the root
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r if r**k == n else None
        r = s


def ser_pow(a: Series, t, prec: Precision = DEFAULT_PRECISION,
            floor: Monomial | None = None) -> Series:
    """Rational power of a positive series via the binomial expansion."""
    t = Fraction(t)
    m, c = _check_positive_leading(a)
    ct = rational_pow(c, t)
    if ct is None:
        raise IrrationalConstantPower("%s**%s is irrational"
                                      % (format_frac(c), format_frac(t)))
    _, _, eps = _split_dominant(a)
    # a natural t <= budget ends the binomial series by a vanishing ratio
    terminating = t.denominator == 1 and 0 <= t <= prec.budget
    rel = None if floor is None else mono_mul(floor, mono_pow(m, -t))
    s = _eps_sum(S_ONE, eps, lambda k: (t - (k - 1)) / k, prec.budget + 1,
                 rel, terminating)
    return with_bound(ser_mul_mono(s, mono_pow(m, t), ct), floor)


def ser_parts(a: Series):
    """Split into (purely infinite part, constant, infinitesimal part)."""
    if a.bound is not None and mono_compare(a.bound, MONE) != LT:
        raise IndeterminateSplit("bound at or above 1 hides the constant part")
    big, const, small = [], Fraction(0), []
    for m, c in a.terms:
        cmp = mono_compare(m, MONE)
        if cmp == GT:
            big.append((m, c))
        elif cmp == EQ:
            const = c
        else:
            small.append((m, c))
    return make_series(big), const, make_series(small, a.bound)
