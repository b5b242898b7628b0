"""The ordered group of logarithmic monomials with piecewise-constant exponents.

A monomial is a formal product of level-indexed logarithms l[b]^r where the
exponent, as a function of the ordinal level b, is constant on finitely many
half-open ordinal intervals and zero elsewhere.  Infinite-support values such
as the exact derivative monomials of the hyperlogarithms are first-class.

Equal monomials are interned to one instance, so a Monomial compares and
hashes by identity, in C.  An integral exponent is stored as an int, any other
as a Fraction, whichever of the two a constructor is given.

Each monomial caches a key, a plain tuple whose order is the monomial order,
so sorting and comparing never call back into Python.  The key walks the
levels p where the exponent map changes, by d, drops back to 0 included:
(1, rev(p.key), d) if d > 0, (-1, p.key, d) if d < 0, closed by (0,); rev
reverses the order of ordinal keys.  At the first change where two keys
differ, the map that is larger just there wins: the sign of d decides first,
then an earlier p wins when d > 0 and loses when d < 0, then d decides.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .errors import EmptyInterval, IdentityMonomial
from .ordinal import (EQ, GT, LT, ONE, ZERO, Ordinal, ord_add, ord_compare)


@dataclass(frozen=True, init=False, eq=False)
class Monomial:
    # ((lo: Ordinal, hi: Ordinal, exponent: int | Fraction), ...) sorted by
    # lo, pairwise disjoint, no zero exponents, adjacent equal pieces merged.
    pieces: tuple = ()

    # one interned instance per value, its field set once in __new__
    _interned = {}

    def __new__(cls, pieces=()):
        self = cls._interned.get(pieces)
        if self is None:
            # equal exponents hash alike, so int and Fraction find one entry
            pieces = tuple((lo, hi, _exponent(e)) for lo, hi, e in pieces)
            self = object.__new__(cls)
            object.__setattr__(self, "pieces", pieces)
            cls._interned[pieces] = self
        return self

    def __repr__(self):
        if not self.pieces:
            return "Monomial(1)"
        body = ", ".join("[%s,%s)->%s" % (lo, hi, e) for lo, hi, e in self.pieces)
        return "Monomial(%s)" % body

    def __reduce__(self):
        # copies and pickles go through __new__ and so get the interned instance
        return (type(self), (self.pieces,))

    @property
    def key(self):
        """A plain tuple whose order is the monomial order (module docstring)."""
        try:
            return self._key
        except AttributeError:
            changes = []  # (level, change of the exponent there), ascending
            for lo, hi, e in self.pieces:
                d = e + changes.pop()[1] if changes and changes[-1][0] is lo else e
                changes += [(lo, d), (hi, -e)]
            key = []
            for p, d in changes:
                d = _exponent(d)  # ints compare fast
                key.append((1, _rev(p.key), d) if d > 0 else (-1, p.key, d))
            object.__setattr__(self, "_key", tuple(key) + ((0,),))
            return self._key


def _exponent(e):
    """The rational e as an int when it is integral, else as a Fraction."""
    e = e if type(e) is int else Fraction(e)
    return e.numerator if e.denominator == 1 else e


def _rev(k):
    """A tuple whose order on ordinal keys k is the reverse of theirs."""
    return tuple((0, _rev(e), -c) for e, c in k) + ((1,),)


MONE = Monomial()  # the identity monomial


def make_monomial(pieces) -> Monomial:
    """Canonicalize: drop zeros, sort, check disjointness, merge neighbors."""
    kept = [(lo, hi, _exponent(e)) for lo, hi, e in pieces if e != 0]
    for lo, hi, _ in kept:
        if ord_compare(lo, hi) != LT:
            raise EmptyInterval("empty interval [%s,%s)" % (lo, hi))
    kept.sort(key=lambda p: p[0].key)
    merged = []
    for lo, hi, e in kept:
        if merged:
            plo, phi, pe = merged[-1]
            if ord_compare(lo, phi) == LT:
                raise ValueError("overlapping intervals at %s" % lo)
            if lo == phi and e == pe:
                merged[-1] = (plo, hi, e)
                continue
        merged.append((lo, hi, e))
    return Monomial(tuple(merged))


def exponent_at(m: Monomial, beta: Ordinal) -> int | Fraction:
    """The exponent of l[beta] in m, 0 off its support."""
    for lo, hi, e in m.pieces:
        if ord_compare(lo, beta) != GT and ord_compare(beta, hi) == LT:
            return e
    return 0


@lru_cache(maxsize=None)
def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Group product: pointwise sum of exponent maps."""
    if not a.pieces:
        return b
    if not b.pieces:
        return a
    # sweep both canonical maps' breakpoints; drop zero sums, merge neighbours
    # events lead with their point's key, so the sort calls no Python; it is
    # stable, so the events of one operand at one point keep their order
    events = []
    for which, m in enumerate((a, b)):
        for lo, hi, e in m.pieces:
            events.append((lo.key, lo, which, e))
            events.append((hi.key, hi, which, 0))
    events.sort(key=itemgetter(0))
    pieces, cur, prev = [], [0, 0], None
    for _, point, which, e in events:
        if prev is not None and prev is not point:
            s = cur[0] + cur[1]
            if type(s) is not int:
                s = _exponent(s)
            if s:
                if pieces and pieces[-1][1] is prev and pieces[-1][2] == s:
                    pieces[-1] = (pieces[-1][0], point, s)
                else:
                    pieces.append((prev, point, s))
        cur[which] = e
        prev = point
    return Monomial(tuple(pieces))


def mono_pow(a: Monomial, t) -> Monomial:
    """Every exponent scaled by the rational t; t = 0 gives the identity."""
    t = _exponent(t)
    return make_monomial([(lo, hi, e * t) for lo, hi, e in a.pieces])


@lru_cache(maxsize=None)
def mono_compare(a: Monomial, b: Monomial) -> int:
    """Lexicographic order: the lowest level where the exponents differ decides."""
    # equal monomials are one interned instance, so others have other keys
    return EQ if a is b else GT if a.key > b.key else LT


def mono_max(a: Monomial, b: Monomial) -> Monomial:
    return b if mono_compare(a, b) == LT else a


def mono_min_support(a: Monomial) -> Ordinal:
    """The least level in the support."""
    if not a.pieces:
        raise IdentityMonomial("the identity monomial has empty support")
    return a.pieces[0][0]


def support_levels(a: Monomial):
    """Yield (level, exponent) over every level of a's support, ascending.

    A piece with an infinite interval yields without end, so take lazily.
    """
    for lo, hi, e in a.pieces:
        beta = lo
        while ord_compare(beta, hi) == LT:
            yield beta, e
            beta = ord_add(beta, ONE)


def mono_split(a: Monomial, beta: Ordinal):
    """Factor a into (support below beta, support at or above beta)."""
    low, high = [], []
    for lo, hi, e in a.pieces:
        if ord_compare(hi, beta) != GT:
            low.append((lo, hi, e))
        elif ord_compare(lo, beta) != LT:
            high.append((lo, hi, e))
        else:
            low.append((lo, beta, e))
            high.append((beta, hi, e))
    return make_monomial(low), make_monomial(high)


def hyperlog(alpha: Ordinal) -> Monomial:
    """The level-alpha logarithm l[alpha] as a monomial."""
    return Monomial(((alpha, ord_add(alpha, ONE), 1),))


def hyperlog_deriv(alpha: Ordinal) -> Monomial:
    """The exact derivative of l[alpha]: the product of l[b]^-1 for b < alpha."""
    if alpha == ZERO:
        return MONE
    return Monomial(((ZERO, alpha, -1),))


def hyperlog_dagger(alpha: Ordinal) -> Monomial:
    """The logarithmic derivative of l[alpha]: product of l[b]^-1 for b <= alpha."""
    return Monomial(((ZERO, ord_add(alpha, ONE), -1),))


def mono_shift(a: Monomial, gamma: Ordinal) -> Monomial:
    """Reindex every level b to gamma + b; an order-preserving embedding."""
    return make_monomial(
        [(ord_add(gamma, lo), ord_add(gamma, hi), e) for lo, hi, e in a.pieces]
    )


X = hyperlog(ZERO)
