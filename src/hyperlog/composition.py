"""Composition of exact series with hyperlogarithms and with infinite series.

Right composition with a level-omega^b logarithm acts by a shift on the low
part of each monomial and by the exponential of the negated modified
derivation on the high part.  Composition with a general series above the
rationals splits every monomial at the first limit level, turns the low part
into a product of iterated logarithms, and lifts the high part through the
three-step shift inverse followed by a Taylor deformation.  Compositional
inversion peels a scaling term and a monomial factor, then finishes with a
tangent-to-identity fixed-point iteration.  Every infinite sum here but
the Taylor sum is the shared recurrence series._recurrence, and every one
goes through series.truncated_sum, which sets its truncation bound.

Floors.  One Taylor sum, _taylor_sum of image(D^n w) * e^n / n!, serves the
deformation around the third iterated logarithm, each step of the inversion
and taylor_compose.  truncated_sum closes it at the dominant of its
budget-th term, F = d_(budget-1), where d_n = image_dom(dom D^n w) * dom(e)^n
is a product of dominant monomials.  When e has a term and D^0 w ...
D^(budget-1) w all have terms, the sum provably reaches the budget, so F is
computed first: a term m of D^n w with image_dom(m) below F / dom(e)^n is
dropped before it is composed, and no product below F is formed; otherwise
the sum may end exactly, and no floor is set.  A composition given a floor
returns exactly with_bound(image, floor) and forms no product below it:
_taylor_sum hands image the floor F / dom(e^n); _compose_tower cuts each
part at the running bound, the floor joined with the bounds of the parts
before it, below which the closing ser_add drops everything anyway; and
_compose_monomial_tower cuts partial product k at floor / upper(rest), the
product over the factors still to come of the larger of dominant and bound.
A monomial with an infinite [n, omega) piece ends in a factor whose bound
lies at its dominant times rel = dom(eps) * x, eps being the tower's last
logarithm less its exact hyperlogarithm; when rel < 1 the product's floor
joins its dominant * rel, and each power of a logarithm is cut at its own
dominant * rel.  The floors are bounds the result carries anyway; a
dropped term takes away only its image's own bound, which can lie above the
image's true dominant (the [n, omega) tail bound).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import count
from math import factorial

from .calculus import derive, integrate, mod_derive
from .errors import (HNotSmaller, IrrationalConstantPower, NotGreaterThanR,
                     NotInvertible, SupportBelowOmega, ZeroSeries)
from .monomial import (MONE, Monomial, X, exponent_at, hyperlog,
                       hyperlog_deriv, make_monomial, mono_compare,
                       mono_max, mono_min_support, mono_mul, mono_pow,
                       mono_shift, mono_split)
from .ordinal import (GT, LT, OMEGA, ONE, Ordinal, ZERO, format_frac,
                      lambda_coeff, omega_pow, ord_add, ord_compare, ordinal,
                      ordinal_to_int)
from .series import (DEFAULT_PRECISION, Precision, S_ONE, S_ZERO, Series,
                     _dominant_monomial_or_bound, _join_bounds, _recurrence,
                     from_const, from_monomial, is_exact_zero, make_series,
                     rational_pow, ser_add, ser_dominant, ser_log, ser_mul,
                     ser_neg, ser_pow, ser_scale, ser_sub, truncated_sum,
                     with_bound)

X_SERIES = from_monomial(X)


@dataclass(frozen=True)
class Logarithmicity:
    value: Ordinal | None = None  # None marks the infinite case

    @property
    def is_infinite(self):
        return self.value is None


def logarithmicity(g: Series) -> Logarithmicity:
    """Least support level of the dominant monomial; infinite when it is 1."""
    if is_exact_zero(g):
        raise ZeroSeries("logarithmicity of the zero series is undefined")
    m, _ = ser_dominant(g)
    if m == MONE:
        return Logarithmicity(None)
    return Logarithmicity(mono_min_support(m))


def _exp_neg_mod_derive(m: Monomial, mu: Ordinal, n: int,
                        prec: Precision) -> Series:
    """Apply the exponential of n times the negated modified derivation."""
    def step(k, t):
        # supported at or above mu, the operator has infinitesimal support,
        # so content below t's bound stays below that bound
        return ser_scale(with_bound(mod_derive(Series(t.terms), mu, prec),
                                    t.bound), Fraction(-n, k))

    return truncated_sum(_recurrence(from_monomial(m), step), prec.budget)


def compose_hyperlog_omega(f: Series, beta: Ordinal,
                           prec: Precision = DEFAULT_PRECISION,
                           n: int = 1) -> Series:
    """Right-compose f n times with the level-omega^beta logarithm.

    The part of each monomial below mu = omega^(beta+1) is shifted by
    omega^beta*n; the exponential of n times the negated modified derivation
    acts on the part at or above mu.
    """
    mu = omega_pow(ord_add(beta, ONE))
    shift = Ordinal(((beta, n),))
    parts = []
    for m, c in f.terms:
        low, high = mono_split(m, mu)
        part = from_monomial(mono_shift(low, shift), c)
        if high != MONE:
            part = ser_mul(part, _exp_neg_mod_derive(high, mu, n, prec))
        parts.append(part)
    if f.bound is not None:
        parts.append(Series((), _hyperlog_image(f.bound, shift)))
    return ser_add(*parts)


def compose_hyperlog(f: Series, gamma: Ordinal,
                     prec: Precision = DEFAULT_PRECISION) -> Series:
    """Right-compose f with the level-gamma logarithm via the normal form."""
    for beta, n in reversed(gamma.terms):
        f = compose_hyperlog_omega(f, beta, prec, n)
    return f


def _hyperlog_image(m: Monomial, gamma: Ordinal) -> Monomial:
    """Dominant monomial of compose_hyperlog(m, gamma), from m alone.

    Each step keeps the part at or above omega^(beta+1), the leading monomial
    of its exponential, and shifts the part below.
    """
    for beta, n in reversed(gamma.terms):
        low, high = mono_split(m, omega_pow(ord_add(beta, ONE)))
        m = mono_mul(mono_shift(low, Ordinal(((beta, n),))), high)
    return m


def _check_above_rationals(g: Series):
    m, c = ser_dominant(g)
    if mono_compare(m, MONE) != 1 or c < 0:
        raise NotGreaterThanR("composition argument must exceed every constant")


class LogTower:
    """Memoized iterated logarithms of a fixed series above the rationals."""

    def __init__(self, g: Series, prec: Precision = DEFAULT_PRECISION):
        _check_above_rationals(g)
        self.prec = prec
        self.levels = [g]
        self.lam = logarithmicity(g).value  # not None: the dominant exceeds 1
        self._pows = {}

    def log(self, n: int) -> Series:
        while len(self.levels) <= n:
            self.levels.append(ser_log(self.levels[-1], self.prec))
        return self.levels[n]

    def log_pow(self, n: int, r, floor: Monomial | None = None) -> Series:
        key = (n, r, floor)
        if key not in self._pows:
            self._pows[key] = ser_pow(self.log(n), r, self.prec, floor)
        return self._pows[key]


def log_iter(g: Series, n: int, prec: Precision = DEFAULT_PRECISION) -> Series:
    """The n-fold logarithm of g."""
    return LogTower(g, prec).log(n)


def _tower_walk(m: Monomial, tower: LogTower):
    """The factors of m composed with the tower's base g, from m's support.

    Returns (factors, cut, tail).  Each (n, r) in factors stands for
    log_n(g)^r.  An infinite [n, omega) piece stops its explicit factors at
    level cut and leaves the tail monomial of l[lam + b]^r over cut <= b <
    omega; without such a piece, cut and tail are None.
    """
    factors = []
    cut = tail = None
    for lo, hi, r in m.pieces:
        if ord_compare(hi, OMEGA) == GT:
            raise ValueError("monomial support reaches beyond the finite levels")
        start = ordinal_to_int(lo)
        if hi == OMEGA:
            cut = stop = start + tower.prec.budget
            tail = make_monomial([(ord_add(tower.lam, ordinal(cut)),
                                   ord_add(tower.lam, OMEGA), r)])
        else:
            stop = ordinal_to_int(hi)
        factors.extend((n, r) for n in range(start, stop))
    return factors, cut, tail


def _compose_monomial_tower(m: Monomial, tower: LogTower,
                            floor: Monomial | None = None) -> Series:
    """Compose a monomial with support below the first limit level.

    Returns with_bound(image, floor), forming no product below the floor.
    """
    factors, cut, tail = _tower_walk(m, tower)
    last, rel = [], None
    if tail is not None:
        # infinite tail: explicit factors, then the exact remainder monomial
        eps = ser_sub(tower.log(cut), from_monomial(hyperlog(mono_min_support(tail))))
        if is_exact_zero(eps):
            last = [(from_monomial(tail), tail)]
        else:
            rel = mono_mul(_dominant_monomial_or_bound(eps), X)
            bound = mono_mul(tail, rel)
            # with rel >= 1 the bound lies above the factor's only term
            last = [(Series(((tail, Fraction(1)),), bound), mono_max(tail, bound))]
            if mono_compare(rel, MONE) != LT:
                rel = None
    # (factor, the larger of its dominant and its bound), formed in walk
    # order so that the first error raised stays the first
    parts = []
    for n, r in factors:
        # the tail factor's bound cuts each power at its dominant * rel
        p = tower.log_pow(n, r, rel and mono_mul(
            mono_pow(ser_dominant(tower.log(n))[0], r), rel))
        parts.append((p, p.terms[0][0]))
    parts += last
    if not parts:
        return with_bound(S_ONE, floor)
    if rel is not None:
        # ... and the product at its dominant * rel
        floor = _join_bounds(floor, reduce(mono_mul, (u for _, u in parts), rel))
    # what partial product k meets lies at or below upper(rest), the product
    # of the uppers after it: cut it at floor / upper(rest)
    cuts = [floor] * len(parts)
    for k in range(len(parts) - 1, 0, -1):
        cuts[k - 1] = floor and mono_mul(cuts[k], mono_pow(parts[k][1], -1))
    result = with_bound(parts[0][0], cuts[0])
    for (p, _), c in zip(parts[1:], cuts[1:]):
        result = ser_mul(result, p, c)
    return result


def compose_monomial(m: Monomial, g: Series,
                     prec: Precision = DEFAULT_PRECISION) -> Series:
    """Compose a finite-level monomial with a series above the rationals."""
    return _compose_monomial_tower(m, LogTower(g, prec))


def up3(f: Series, prec: Precision = DEFAULT_PRECISION) -> Series:
    """Invert three right-compositions with the first-level logarithm.

    Requires every term's support to start at or above the first limit level.
    """
    for m, _ in f.terms:
        if m != MONE and ord_compare(mono_min_support(m), OMEGA) == LT:
            raise SupportBelowOmega("support below the first limit level: %r" % m)
    return truncated_sum(_recurrence(f, lambda k, t: ser_sub(
        t, compose_hyperlog(t, ordinal(3), prec))), prec.budget)


def _taylor_sum(w: Series, e: Series, image, image_dom,
                prec: Precision) -> Series:
    """The Taylor sum of image(D^n w) * e^n / n! over n >= 0.

    It serves _taylor_deform_tower, invert and taylor_compose.  image(t,
    floor) maps a series to its composition with the point the sum expands
    around, cut like with_bound at a floor that is not None (the identity
    ignores it), and image_dom maps a monomial to the dominant monomial of
    its image.  When the sum provably reaches the budget, its final bound F
    is known from dominants: a term m of D^n w with image_dom(m) below
    F / dom(e)^n is dropped before image is called, image is given the floor
    F / dom(e^n) when e^n has a term, e^n is cut at F / image_dom(dom D^n w),
    and every term of the sum is cut at F.
    """
    budget = prec.budget
    derivs = [w]
    floor = None
    if e.terms:
        while len(derivs) < budget and derivs[-1].terms:
            derivs.append(derive(derivs[-1], prec))
        if derivs[-1].terms and len(derivs) == budget:
            floor = mono_mul(image_dom(derivs[-1].terms[0][0]),
                             mono_pow(e.terms[0][0], budget - 1))

    def terms():
        dn, epow = w, S_ONE
        for n in count():
            if n:
                # a zero derivative or power makes this term, and the sum, end
                dn = derivs[n] if n < len(derivs) else derive(dn, prec)
                epow = ser_mul(epow, e, floor and mono_mul(
                    floor, mono_pow(image_dom(dn.terms[0][0]), -1)))
            part, low = dn, None
            if floor is not None:
                # F covers the terms whose image times e^n lies below it
                low = mono_mul(floor, mono_pow(e.terms[0][0], -n))
                part = Series(tuple(t for t in dn.terms if mono_compare(
                    image_dom(t[0]), low) != LT), dn.bound)
            yield ser_scale(ser_mul(image(part, low if epow.terms else None), epow,
                                    floor), Fraction(1, factorial(n)))

    return truncated_sum(terms(), budget)


def _taylor_deform_tower(phi: Series, tower: LogTower,
                         prec: Precision) -> Series:
    """Taylor-deform phi around the exact logarithm at the tower's level."""
    level = ord_add(tower.lam, ordinal(3))
    eps = ser_sub(tower.log(3), from_monomial(hyperlog(level)))
    if is_exact_zero(eps):
        return compose_hyperlog(phi, level, prec)
    return _taylor_sum(
        phi, eps, lambda t, cut: with_bound(compose_hyperlog(t, level, prec), cut),
        lambda m: _hyperlog_image(m, level), prec)


def taylor_deform(phi: Series, g: Series,
                  prec: Precision = DEFAULT_PRECISION) -> Series:
    """Compose phi with the third iterated logarithm of g, by deformation."""
    return _taylor_deform_tower(phi, LogTower(g, prec), prec)


def _dominant_image(m: Monomial, tower: LogTower) -> Monomial:
    """Dominant monomial of the composition of m with the tower's base.

    The dominant of a product is the product of the dominants, so this is
    exact and much cheaper than composing.
    """
    low, high = mono_split(m, OMEGA)
    factors, _, tail = _tower_walk(low, tower)
    # up3 and the deformation each keep their first term's dominant
    out = mono_mul(_hyperlog_image(high, ord_add(tower.lam, ordinal(3))),
                   tail or MONE)
    for n, r in factors:
        out = mono_mul(out, mono_pow(ser_dominant(tower.log(n))[0], r))
    return out


def compose(f: Series, g: Series,
            prec: Precision = DEFAULT_PRECISION) -> Series:
    """Full composition f after g for g above the rationals."""
    return _compose_tower(f, LogTower(g, prec), prec)


def _compose_tower(f: Series, tower: LogTower, prec: Precision,
                   floor: Monomial | None = None) -> Series:
    """compose(f, g) for the tower's base g, as with_bound(image, floor)."""
    if tower.levels[0] == X_SERIES:
        return with_bound(f, floor)
    groups = {}
    for m, c in f.terms:
        low, high = mono_split(m, OMEGA)
        groups.setdefault(low, []).append((high, c))
    # the sum drops what lies below the join of its parts' bounds, so each
    # part is cut at the floor joined with the bounds of the parts before it
    run = floor
    parts = [Series((), floor)]
    for low, high_terms in groups.items():
        big = make_series(high_terms)
        if len(big.terms) == 1 and big.terms[0][0] == MONE:
            part = ser_scale(_compose_monomial_tower(low, tower, run),
                             big.terms[0][1])
        else:
            bigval = _taylor_deform_tower(up3(big, prec), tower, prec)
            cut = run and mono_mul(run, mono_pow(
                _dominant_monomial_or_bound(bigval), -1))
            part = ser_mul(bigval, _compose_monomial_tower(low, tower, cut),
                           run)
        parts.append(part)
        run = _join_bounds(run, part.bound)
    if f.bound is not None:
        # only the image's dominant, or its bound, joins the sum's bound
        image = _compose_tower(from_monomial(f.bound), tower, prec, run)
        parts.append(Series((), _dominant_monomial_or_bound(image)))
    return ser_add(*parts)


def taylor_compose(f: Series, g: Series, h: Series,
                   prec: Precision = DEFAULT_PRECISION) -> Series:
    """Compose f with g + h through the Taylor sum around g; needs h below g."""
    if is_exact_zero(h):
        return compose(f, g, prec)
    mg, _ = ser_dominant(g)
    if h.terms:
        if mono_compare(h.terms[0][0], mg) != LT:
            raise HNotSmaller("increment is not strictly below the base")
    elif h.bound is not None and mono_compare(h.bound, mg) == 1:
        raise HNotSmaller("increment bound is not below the base")
    tower = LogTower(g, prec)
    return _taylor_sum(f, h, lambda t, cut: _compose_tower(t, tower, prec, cut),
                       lambda m: _dominant_image(m, tower), prec)


def invert(g: Series, prec: Precision = DEFAULT_PRECISION) -> Series:
    """Compositional inverse of g; needs logarithmicity zero."""
    _check_above_rationals(g)
    lam = logarithmicity(g)
    if lam.is_infinite or lam.value != ZERO:
        raise NotInvertible("logarithmicity must be zero, got %s" % (lam.value,))
    m0, a = ser_dominant(g)
    b = exponent_at(m0, ZERO)
    s = rational_pow(a, Fraction(-1) / b) if a != 1 else Fraction(1)
    if s is None:
        raise IrrationalConstantPower("leading coefficient %s has no rational root"
                                      % format_frac(a))
    t = Fraction(1) / b
    g1 = ser_pow(ser_scale(g, Fraction(1) / a), Fraction(1) / b, prec)

    # peel the non-x factor of the leading monomial
    m1 = mono_mul(ser_dominant(g1)[0], mono_pow(X, -1))
    if m1 != MONE:
        q = from_monomial(mono_mul(X, mono_pow(m1, -1)))
        G = compose(g1, q, prec)
    else:
        q = None
        G = g1

    # G is x + w with w strictly below x; solve H = x - w(H) by iteration
    w = ser_sub(G, X_SERIES)
    e = S_ZERO
    delta = None
    for _ in range(prec.budget):
        # w at x + e, by the Taylor sum around the identity
        # the identity image has nothing to save by a cut
        e_new = ser_neg(_taylor_sum(w, e, lambda v, cut: v, lambda m: m, prec))
        delta = ser_sub(e_new, e)
        e = e_new
        if is_exact_zero(delta):
            delta = None
            break
    H = ser_add(X_SERIES, e)
    if delta is not None:
        H = with_bound(H, _dominant_monomial_or_bound(delta))
    out = compose(q, H, prec) if q is not None else H
    if s != 1 or t != 1:
        out = compose(out, from_monomial(mono_pow(X, t), s), prec)
    return out


def recursion_check(gamma: Ordinal, g: Series,
                    prec: Precision = DEFAULT_PRECISION) -> Series:
    """Independent evaluation of the level-gamma composition via integration."""
    inner = ser_mul(compose(from_monomial(hyperlog_deriv(gamma)), g, prec),
                    derive(g, prec))
    lam = logarithmicity(g)
    shift = lambda_coeff(lam.value, gamma) if not lam.is_infinite else 0
    return ser_sub(integrate(inner, prec), from_const(shift))
