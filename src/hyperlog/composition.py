"""Composition of exact series with hyperlogarithms and with infinite series.

Right composition with a level-omega^b logarithm acts by a shift on the low
part of each monomial and by the exponential of the negated modified
derivation on the high part.  Composition with a general series above the
rationals splits every monomial at the first limit level, turns the low part
into a product of iterated logarithms, and lifts the high part through the
three-step shift inverse followed by a Taylor deformation.  Compositional
inversion peels a scaling term and a monomial factor, then finishes with a
tangent-to-identity fixed point: x plus the truncated sum of the increments
of its iterates, which gain an order each.  Every infinite sum here but
the Taylor sum is the shared recurrence series._recurrence, and every one
goes through series.truncated_sum, which sets its truncation bound.  An
exact-zero increment returns in one place, at the top of _taylor_sum.

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
_taylor_sum hands image the floor F / dom(e^n); each group of
_compose_tower, the terms that share a low part, is one product led by the
value of its high part and cut at the running bound, the floor joined with
the bounds of the groups before it, below which the closing ser_add drops
everything anyway; and _compose_monomial_tower forms that product uppers
before products.  A factor's upper is the larger of its dominant and bound,
and the dominants have a closed form: log_n(g) leads with l[lam + n] for
n >= 1 (LogTower._dominant), so image_dom forms no logarithm, and every cut,
floor / upper(rest) for partial product k, is known before a power forms.
A monomial with an infinite [n, omega) piece ends in a factor whose bound
lies at its dominant times rel = dom(eps) * x, eps being log_cut(g) less
l[lam + cut]; when rel < 1 the product's floor joins its dominant * rel,
and each power of a logarithm is cut at its own dominant * rel.  The floors
are bounds the result carries anyway; a dropped term takes away only its
image's own bound, which can lie above the image's true dominant (the
[n, omega) tail bound).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import count, pairwise
from math import factorial

from .calculus import derive, integrate, mod_derive
from .errors import (HNotSmaller, IrrationalConstantPower, NotGreaterThanR,
                     NotInvertible, SupportBelowOmega, ZeroSeries)
from .monomial import (MONE, Monomial, X, exponent_at, hyperlog,
                       hyperlog_deriv, make_monomial, mono_compare,
                       mono_min_support, mono_mul, mono_pow, mono_shift,
                       mono_split)
from .ordinal import (GT, LT, OMEGA, ONE, Ordinal, ZERO, format_frac,
                      lambda_coeff, omega_pow, ord_add, ord_compare, ordinal,
                      ordinal_to_int)
from .series import (DEFAULT_PRECISION, Precision, S_ONE, S_ZERO, Series,
                     _check_monic, _dominant_monomial_or_bound, _join_bounds,
                     _recurrence, from_const, from_monomial, is_exact_zero,
                     make_series, rational_pow, ser_add, ser_dominant,
                     ser_log, ser_mul, ser_mul_mono, ser_neg, ser_pow,
                     ser_scale, ser_sub, truncated_sum, with_bound)

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
        exp = _exp_neg_mod_derive(high, mu, n, prec) if high != MONE else S_ONE
        parts.append(ser_mul_mono(exp, mono_shift(low, shift), c))
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

    def _dominant(self, n: int) -> Monomial:
        """dom(log_n(g)) without forming the level: l[lam + n] for n >= 1.

        log(c*m*(1 + eps)) = log(c) + log(m) + log(1 + eps), and log(m), the
        sum of r_b * l[b + 1] over m's support, leads with r * l[lam + 1].
        """
        if n == 0:
            return self.levels[0].terms[0][0]
        return hyperlog(ord_add(self.lam, ordinal(n)))

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
        stop = start + tower.prec.budget if hi == OMEGA else ordinal_to_int(hi)
        factors.extend((n, r) for n in range(start, stop))
        if hi == OMEGA:
            cut, tail = stop, make_monomial([(mono_min_support(tower._dominant(stop)),
                                              ord_add(tower.lam, OMEGA), r)])
    return factors, cut, tail


def _compose_monomial_tower(m: Monomial, tower: LogTower,
                            floor: Monomial | None = None,
                            lead: Series = S_ONE) -> Series:
    """lead times m after the tower's base, m supported below omega.

    Returns with_bound(lead * image, floor), forming no product below the
    floor; lead is the product's first factor.
    """
    factors, cut, tail = _tower_walk(m, tower)
    # uppers, the larger of each factor's dominant and bound, from closed
    # forms: lead's, then dom(log_n(g))^r in walk order, then the tail's
    uppers = [_dominant_monomial_or_bound(lead)]
    uppers += [mono_pow(tower._dominant(n), r) for n, r in factors]
    rel = last = None
    if tail is not None:
        # infinite tail: explicit factors, then the exact remainder monomial,
        # bounded at tail * rel, rel = dom(eps) * x, unless eps is exactly 0
        eps = ser_sub(tower.log(cut), from_monomial(tower._dominant(cut)))
        d = _dominant_monomial_or_bound(eps)
        rel = d and mono_mul(d, X)
        last = Series(((tail, Fraction(1)),), rel and mono_mul(tail, rel))
        uppers.append(_join_bounds(tail, last.bound))
        if rel is not None and mono_compare(rel, MONE) != LT:
            rel = None  # the bound lies above the factor's only term
    if rel is not None:
        # the tail factor's bound cuts the product at its dominant * rel
        floor = _join_bounds(floor, reduce(mono_mul, uppers, rel))
    # what partial product k meets lies at or below upper(rest), the product
    # of the uppers after it: cut it at floor / upper(rest)
    cuts = [floor] * len(uppers)
    for k in range(len(uppers) - 1, 0, -1):
        cuts[k - 1] = floor and mono_mul(cuts[k], mono_pow(uppers[k], -1))
    result = with_bound(lead, cuts[0])
    # the powers are formed after the tail's eps and in walk order, so that
    # the first error raised stays the first; each is cut at its dominant * rel
    for (n, r), u, c in zip(factors, uppers[1:], cuts[1:]):
        result = ser_mul(result, tower.log_pow(n, r, rel and mono_mul(u, rel)), c)
    return result if last is None else ser_mul(result, last, cuts[-1])


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
    and every term of the sum is cut at F.  An exact-zero e leaves the first
    term, image(w, None), and forms no derivative.
    """
    if is_exact_zero(e):
        return image(w, None)
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
    eps = ser_sub(tower.log(3), from_monomial(tower._dominant(3)))
    return _taylor_sum(
        phi, eps, lambda t, cut: with_bound(compose_hyperlog(t, level, prec), cut),
        lambda m: _hyperlog_image(m, level), prec)


def taylor_deform(phi: Series, g: Series,
                  prec: Precision = DEFAULT_PRECISION) -> Series:
    """Compose phi with the third iterated logarithm of g, by deformation."""
    return _taylor_deform_tower(phi, LogTower(g, prec), prec)


def _dominant_image(m: Monomial, tower: LogTower) -> Monomial:
    """Dominant monomial of the composition of m with the tower's base.

    The dominant of a product is the product of the dominants, each read
    from its closed form, so this is exact and forms no logarithm.
    """
    low, high = mono_split(m, OMEGA)
    factors, _, tail = _tower_walk(low, tower)
    # raise as forming the top level would: each level below it must lead
    # with 1, and g leads with its coefficient c, log(g) with r, then 1
    g_dom, c = tower.levels[0].terms[0]
    for lead in (c, g_dom.pieces[0][2])[:factors[-1][0] if factors else 0]:
        _check_monic(lead)
    # up3 and the deformation each keep their first term's dominant
    return reduce(mono_mul, (mono_pow(tower._dominant(n), r) for n, r in factors),
                  mono_mul(_hyperlog_image(high, ord_add(tower.lam, ordinal(3))),
                           tail or MONE))


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
        # the high part's value leads the group's product; it is formed
        # before the low part's factors, so the first error stays first
        big = make_series(high_terms)
        if [h for h, _ in high_terms] != [MONE]:
            big = _taylor_deform_tower(up3(big, prec), tower, prec)
        part = _compose_monomial_tower(low, tower, run, big)
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
    lam = logarithmicity(g).value
    if lam != ZERO:
        raise NotInvertible("logarithmicity must be zero, got %s" % (lam,))
    m0, a = ser_dominant(g)
    b = exponent_at(m0, ZERO)
    s = rational_pow(a, Fraction(-1) / b)
    if s is None:
        raise IrrationalConstantPower("leading coefficient %s has no rational root"
                                      % format_frac(a))
    t = Fraction(1) / b
    g1 = ser_pow(ser_scale(g, Fraction(1) / a), t, prec)

    # peel the non-x factor of the leading monomial
    m1 = mono_mul(ser_dominant(g1)[0], mono_pow(X, -1))
    q = from_monomial(mono_mul(X, mono_pow(m1, -1))) if m1 != MONE else None
    G = compose(g1, q, prec) if q is not None else g1

    # G is x + w with w strictly below x; H = x - w(H) is x plus the sum of
    # the increments of the iterates e_k = -w(x + e_(k-1)) from e_0 = 0,
    # which gain an order each; w at x + e is the Taylor sum around the
    # identity, whose image has nothing to save by a cut
    w = ser_sub(G, X_SERIES)
    iterates = _recurrence(S_ZERO, lambda k, e: ser_neg(
        _taylor_sum(w, e, lambda v, cut: v, lambda m: m, prec)))
    H = ser_add(X_SERIES, truncated_sum(
        (ser_sub(e1, e0) for e0, e1 in pairwise(iterates)), prec.budget))
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
