"""Composition with hyperlogarithms and with general series arguments."""
import random
import re
import time
from fractions import Fraction
from itertools import count
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperlog import (DomainError, HNotSmaller, IrrationalConstantPower,
                      Logarithmicity,
                      MONE, NotGreaterThanR, NotInvertible, OMEGA, ONE,
                      Precision, SupportBelowOmega, X, ZERO, compose,
                      compose_hyperlog, compose_hyperlog_omega, derive,
                      eq_exact, eq_to_bound, from_const, from_monomial,
                      hyperlog, hyperlog_deriv, invert, log_iter,
                      logarithmicity, make_monomial, mono_compare, mono_mul,
                      mono_pow, omega_pow, ord_add, ordinal, parse_ordinal,
                      is_exact_zero, recursion_check, ser_add, ser_dominant,
                      ser_log, ser_mul, ser_mul_inverse, ser_neg, ser_pow,
                      ser_scale, ser_sub, taylor_compose, taylor_deform)
from hyperlog import composition
from hyperlog.cli import eval_text
from hyperlog.composition import (LogTower, _compose_monomial_tower,
                                  _compose_tower, _dominant_image,
                                  _hyperlog_image, _taylor_sum, up3)
from hyperlog.monomial import exponent_at
from hyperlog.ordinal import GT
from hyperlog.render import format_value
from hyperlog.series import (S_ONE, S_ZERO, _dominant_monomial_or_bound,
                             make_series, rational_pow, truncated_sum,
                             with_bound)

from conftest import rand_composable, rand_invertible, rand_series

X_SER = from_monomial(X)
L1 = from_monomial(hyperlog(ordinal(1)))
L2 = from_monomial(hyperlog(ordinal(2)))
LW = from_monomial(hyperlog(OMEGA))


# --- composition with hyperlogarithms -------------------------------------------

def test_hyperlog_composition_is_ordinal_addition():
    # l[gamma] o l[w^b] = l[w^b + gamma], exactly
    for beta, gamma in ((ZERO, ordinal(3)), (ONE, OMEGA),
                        (ONE, ord_add(OMEGA, ordinal(2))),
                        (ordinal(2), parse_ordinal("w^2+w*2+1"))):
        got = compose_hyperlog_omega(from_monomial(hyperlog(gamma)), beta)
        want = from_monomial(hyperlog(ord_add(omega_pow(beta), gamma)))
        assert eq_exact(got, want), (beta, gamma)


def test_hyperlog_fixed_point_shift():
    # l[w^(b+1)] o l[w^b] = l[w^(b+1)] - 1, a terminating expansion
    for beta in (ZERO, ONE, ordinal(2)):
        mu = omega_pow(ord_add(beta, ONE))
        got = compose_hyperlog_omega(from_monomial(hyperlog(mu)), beta)
        assert eq_exact(got, ser_sub(from_monomial(hyperlog(mu)), S_ONE)), beta


def test_hyperlog_composition_folds_normal_form():
    # composing with l[2] = two steps of l[1]
    got = compose_hyperlog(LW, ordinal(2))
    assert eq_exact(got, ser_sub(LW, from_const(2)))


# inputs with support below, at and above w^(b+1) for b = 0, 1, 2
_NORMAL_FORM_INPUTS = [
    "l[w]^2 + 3*l[1]", "prod(l[0..w])^-1*l[w+1]", "x*l[w]^-1 + O(l[w]^-3)",
    "prod(l[w..w*2])^(1/2) + O(1)", "l[w^2]^3*l[w]^-1 - l[w^2+w]",
    "prod(l[w^2..w^3])^-1 + O(l[w^2]^-2)", "l[w^3]*l[w^2]^2 + l[w^3+1]^-1",
    "O(l[w^3]*l[w])",
]


@pytest.mark.parametrize("budget", [3, 5])
def test_whole_normal_form_term_matches_the_n_fold_loop(budget):
    # composing once with l[w^b*n] is composing n times with l[w^b]
    prec = Precision(budget)
    for text in _NORMAL_FORM_INPUTS:
        f = eval_text(text)
        for beta in (ZERO, ONE, ordinal(2)):
            looped = f
            for n in range(1, 5):
                looped = compose_hyperlog_omega(looped, beta, prec)
                got = compose_hyperlog_omega(f, beta, prec, n)
                assert got == looped, (text, beta, n)


def test_composition_with_a_huge_normal_form_coefficient_is_fast():
    start = time.perf_counter()
    got = format_value(eval_text("comp@2(l[w], l[w*100000000])"))
    assert time.perf_counter() - start < 1
    assert got == "l[w*100000001] + O(1)"


def test_hyperlog_image_is_the_dominant_of_the_composition():
    prec = Precision(4)
    for text in ("l[w]", "prod(l[0..w])^-1", "l[w^2]*l[w]^-2*l[3]",
                 "prod(l[w..w^2])^(1/2)", "x^2*l[w*2+1]^-1", "l[w^3]^-1"):
        m = eval_text(text).terms[0][0]
        for gamma in ("3", "w", "w*2+1", "w^2+w*3", "w^2*2", "w^3"):
            gamma = parse_ordinal(gamma)
            want = ser_dominant(compose_hyperlog(from_monomial(m), gamma, prec))
            assert _hyperlog_image(m, gamma) == want[0], (text, gamma)


@st.composite
def tower_monomials(draw):
    """A finite-level monomial that may end in an infinite [n, w) piece."""
    exps = st.sampled_from([Fraction(k, 2) for k in (-4, -2, -1, 1, 2, 4)])
    pieces = []
    level = draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 2))):
        width = draw(st.integers(1, 2))
        pieces.append((ordinal(level), ordinal(level + width), draw(exps)))
        level += width + draw(st.integers(0, 1))
    if draw(st.booleans()):
        pieces.append((ordinal(level), OMEGA, draw(exps)))
    return make_monomial(pieces)


@settings(max_examples=60, deadline=None)
@given(tower_monomials(),
       st.sampled_from(["1", "l[w]", "l[w]^-1", "l[w+1]^2", "l[w^2]",
                        "prod(l[w..w*2])^-1", "l[w]^(1/2)*l[w+2]^-1"]),
       st.sampled_from(["x + 1", "x + l[1] + 1", "x + 3/2 + 1/2*l[1]^-1",
                        "x + O(1)", "l[1] + 2", "x*l[1]"]),
       st.integers(1, 5))
def test_dominant_image_is_the_dominant_of_the_tower_composition(low, high, g,
                                                                 budget):
    # the pieces of high lie at or above w
    m = mono_mul(low, eval_text(high).terms[0][0])
    prec = Precision(budget)
    tower = LogTower(eval_text(g), prec)
    image = _compose_tower(from_monomial(m), tower, prec)
    # where the bound of an infinite tail hides every term, there is no
    # dominant to compare
    assume(image.terms)
    assert _dominant_image(m, tower) == ser_dominant(image)[0]


def _floors(image):
    """Monomials at, between, above and below those of image and its bound."""
    ms = [m for m, _ in image.terms] + [image.bound] * (image.bound is not None)
    if not ms:
        return [X, MONE]
    between = [mono_pow(mono_mul(a, b), Fraction(1, 2)) for a, b in zip(ms, ms[1:])]
    return ms + between + [mono_mul(ms[0], X), mono_mul(ms[-1], mono_pow(X, -1))]


def _floored_matches(form, data):
    """form(floor) is with_bound(form(None), floor), or the same error."""
    try:
        want = form(None)
    except DomainError as err:
        with pytest.raises(type(err), match="^%s$" % re.escape(str(err))):
            form(data.draw(st.sampled_from([X, MONE])))
        return
    floor = data.draw(st.sampled_from(_floors(want)))
    assert form(floor) == with_bound(want, floor)


# bases whose logarithms differ from l[lam + n] by 1/x or more (x*l[1],
# l[1] + 2) or hide below a bound (x + O(1)), and one with a non-monic log
_FLOOR_BASES = ["x", "x + 1", "x + l[1] + 1", "x*l[1]", "l[1] + 2", "x + O(1)",
                "2*x + 1"]


@settings(max_examples=80, deadline=None)
@given(tower_monomials(), st.sampled_from(_FLOOR_BASES), st.integers(1, 6),
       st.data())
def test_a_floored_monomial_composition_is_the_full_one_cut(m, g, budget, data):
    prec = Precision(budget)
    tower = LogTower(eval_text(g), prec)
    _floored_matches(lambda floor: _compose_monomial_tower(m, tower, floor),
                     data)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(tower_monomials(),
                          st.sampled_from(["1", "1", "l[w]", "l[w]^-1",
                                           "l[w+1]^2", "l[w^2]"]),
                          st.sampled_from([Fraction(k, 2) for k in
                                           (-3, -2, 1, 2, 3)])),
                min_size=0, max_size=3),
       st.one_of(st.none(), tower_monomials()),
       st.sampled_from(_FLOOR_BASES), st.integers(1, 6), st.data())
def test_a_floored_composition_is_the_full_one_cut(terms, bound, g, budget,
                                                   data):
    f = make_series([(mono_mul(low, eval_text(high).terms[0][0]), c)
                     for low, high, c in terms], bound)
    prec = Precision(budget)
    tower = LogTower(eval_text(g), prec)
    _floored_matches(lambda floor: _compose_tower(f, tower, prec, floor), data)


def test_compose_matches_hyperlog_path():
    assert eq_exact(compose(LW, L1), ser_sub(LW, S_ONE))
    got = compose(LW, L2, Precision(6))
    assert eq_to_bound(got, ser_sub(LW, from_const(2)))


# --- logarithmicity ---------------------------------------------------------------

def test_logarithmicity_values():
    assert logarithmicity(X_SER).value == ZERO
    assert logarithmicity(LW).value == OMEGA
    assert logarithmicity(ser_add(L1, from_const(5))).value == ordinal(1)
    assert logarithmicity(from_const(3)).is_infinite
    assert logarithmicity(from_monomial(mono_pow(X, -1))).value == ZERO


def test_compose_requires_unbounded_argument():
    with pytest.raises(NotGreaterThanR):
        compose(X_SER, from_monomial(mono_pow(X, -1)))
    with pytest.raises(NotGreaterThanR):
        compose(X_SER, from_monomial(X, -1))


# --- the three-step shift inverse -----------------------------------------------

def test_up3_shifts_omega_levels():
    # the inverse of three logarithm steps sends l[w] to l[w] + 3
    got = up3(LW, Precision(6))
    assert eq_exact(got, ser_add(LW, from_const(3)))


def test_up3_rejects_finite_support():
    with pytest.raises(SupportBelowOmega):
        up3(X_SER)


# --- composition with general arguments -------------------------------------------

def test_compose_with_identity_and_constants():
    f = rand_series(random.Random(3))
    assert compose(f, X_SER) is f
    assert eq_exact(compose(from_const(7), L1), from_const(7))


def test_compose_monomial_towers():
    # x o l[1] = l[1]; x^2 o (x+1) = x^2 + 2x + 1
    assert eq_exact(compose(X_SER, L1), L1)
    sq = from_monomial(mono_pow(X, 2))
    got = compose(sq, ser_add(X_SER, S_ONE), Precision(6))
    assert eq_exact(got, ser_add(ser_add(sq, from_monomial(X, 2)), S_ONE))


def test_compose_infinite_piece_exactly():
    # the derivative monomial of l[w] composed with l[1] picks up a factor x
    d = from_monomial(hyperlog_deriv(OMEGA))
    got = compose(d, L1, Precision(6))
    want = from_monomial(mono_mul(hyperlog_deriv(OMEGA), X))
    assert eq_exact(got, want)
    assert eq_exact(compose(d, X_SER), d)


def test_chain_rule_samples(rng):
    prec = Precision(5)
    for _ in range(20):
        f = rand_series(rng, max_terms=2, max_level=3)
        g = rand_composable(rng)
        lhs = derive(compose(f, g, prec), prec)
        rhs = ser_mul(compose(derive(f, prec), g, prec), derive(g, prec))
        assert eq_to_bound(lhs, rhs)


def test_log_commutes_with_composition(rng):
    prec = Precision(5)
    for _ in range(15):
        g = rand_composable(rng)
        f = ser_add(from_monomial(X), rand_series(rng, max_terms=2, max_level=3))
        if f.terms[0][0] != X or f.terms[0][1] != 1:
            continue
        lhs = ser_log(compose(f, g, prec), prec)
        rhs = compose(ser_log(f, prec), g, prec)
        assert eq_to_bound(lhs, rhs)


def test_composition_associative(rng):
    prec = Precision(4)
    for _ in range(10):
        f = rand_series(rng, max_terms=2, max_level=2)
        g = rand_composable(rng, min_level=0, max_level=1)
        h = rand_composable(rng, min_level=0, max_level=1)
        lhs = compose(compose(f, g, prec), h, prec)
        rhs = compose(f, compose(g, h, prec), prec)
        assert eq_to_bound(lhs, rhs)


# --- Taylor composition -------------------------------------------------------------

def test_taylor_square_is_exact():
    sq = from_monomial(mono_pow(X, 2))
    got = taylor_compose(sq, X_SER, S_ONE, Precision(6))
    assert eq_exact(got, ser_add(ser_add(sq, from_monomial(X, 2)), S_ONE))


def test_taylor_zero_increment_is_composition():
    # an exact-zero increment leaves the image of f itself, term for term
    prec = Precision(5)
    fs = [rand_series(random.Random(5), max_terms=2, max_level=3)] + [
        eval_text(text) for text in (
            "x^2 + l[1]", "x*l[w] + x", "prod(l[0..w])^-1", "x^3 + O(x)",
            "l[w] + prod(l[0..w])^-1 + 2", "l[w]*l[1] + l[1]")]
    for g in (L1, "x + 1", "x + l[1]", "x*l[1]", "l[1] + 2", "x + O(1)"):
        g = eval_text(g) if isinstance(g, str) else g
        for f in fs:
            assert taylor_compose(f, g, S_ZERO, prec) == compose(f, g, prec)
    # around x, the deformation's increment is exactly zero
    for phi in ("l[w]", "l[w]^2 + l[w+1]^-1", "prod(l[w..w*2])^-1 + O(l[w]^-2)"):
        phi = eval_text(phi)
        assert taylor_deform(phi, X_SER, prec) == \
            compose_hyperlog(phi, ordinal(3), prec)


def test_taylor_increment_must_be_smaller():
    with pytest.raises(HNotSmaller):
        taylor_compose(X_SER, L1, X_SER)


@pytest.mark.parametrize("lead, h", [("l[w]", "1"), ("l[w+1]", "1"),
                                     ("l[w]", "l[1]")])
def test_taylor_keeps_terms_with_support_past_the_finite_levels(lead, h):
    # ten terms give long derivatives, most of whose terms the floor drops
    f = eval_text(lead + "*x^9 + x^8 + x^7 + x^6 + x^5 + x^4 + x^3 + x^2"
                  " + x + l[1]")
    h = eval_text(h)
    prec = Precision(8)
    assert eq_to_bound(taylor_compose(f, X_SER, h, prec),
                       compose(f, ser_add(X_SER, h), prec))


def test_taylor_matches_composition(rng):
    prec = Precision(4)
    for k in range(8):
        f = rand_series(rng, max_terms=2, max_level=3)
        g = rand_composable(rng)
        if k % 4 == 0:
            h = ser_scale(ser_mul_inverse(g, prec), Fraction(1, 2))
        else:
            h = from_const(Fraction(rng.randint(1, 3), 2))
        lhs = taylor_compose(f, g, h, prec)
        rhs = compose(f, ser_add(g, h), prec)
        assert eq_to_bound(lhs, rhs)


def _plain_taylor(f, g, h, prec):
    """The Taylor sum of compose(D^n f, g) * h^n / n!, every term in full."""
    def terms():
        dn, hpow = f, S_ONE
        for n in count():
            yield ser_scale(ser_mul(compose(dn, g, prec), hpow),
                            Fraction(1, factorial(n)))
            dn, hpow = derive(dn, prec), ser_mul(hpow, h)

    return truncated_sum(terms(), prec.budget)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["x^2 + l[1]", "x^(1/2)*l[2]^-1", "l[w]*x",
                        "-3*x - 2*x^(-1/2)*l[2]^3", "l[w]", "x*l[w+1]^-1",
                        "prod(l[0..w])^-1 + x^-1"]),
       st.sampled_from(["x", "x + 1", "x + l[1] + 1", "x + 3/2 + x^-1",
                        "l[1] + 2", "x*l[1]"]),
       st.sampled_from(["1", "1/2 + x^-1", "l[2]", "x^-1 + O(x^-2)"]),
       st.integers(1, 5))
def test_taylor_compose_agrees_with_the_plain_taylor_sum(f, g, h, budget):
    f, g, h, prec = eval_text(f), eval_text(g), eval_text(h), Precision(budget)
    got = taylor_compose(f, g, h, prec)
    want = _plain_taylor(f, g, h, prec)
    assert eq_to_bound(got, want)
    # the floor only drops what lies below the plain sum's own bound
    if got.bound is not None:
        assert want.bound is not None
        assert mono_compare(got.bound, want.bound) != GT


# --- inversion ------------------------------------------------------------------------

def test_invert_identity_and_affine():
    assert eq_exact(invert(X_SER), X_SER)
    g = ser_add(X_SER, S_ONE)
    h = invert(g, Precision(6))
    assert eq_exact(h, ser_sub(X_SER, S_ONE))


def test_invert_catalan_pattern():
    # x + 1/x inverts to a series whose coefficients follow the Catalan numbers
    g = ser_add(X_SER, from_monomial(mono_pow(X, -1)))
    h = invert(g, Precision(6))
    coeffs = {exp: c for (m, c) in h.terms
              for exp in [m.pieces[0][2] if m.pieces else Fraction(0)]}
    assert coeffs[Fraction(1)] == 1
    assert coeffs[Fraction(-1)] == -1
    assert coeffs[Fraction(-3)] == -1
    assert coeffs[Fraction(-5)] == -2
    assert eq_to_bound(compose(g, h, Precision(6)), X_SER)
    assert eq_to_bound(compose(h, g, Precision(6)), X_SER)


def test_invert_scaling():
    # a*x^b inverts to a^(-1/b) * x^(1/b)
    g = from_monomial(mono_pow(X, 2), 4)
    h = invert(g, Precision(6))
    assert eq_exact(h, from_monomial(mono_pow(X, Fraction(1, 2)),
                                     Fraction(1, 2)))
    with pytest.raises(IrrationalConstantPower):
        invert(from_monomial(mono_pow(X, 2), 3))


def test_invert_requires_logarithmicity_zero():
    with pytest.raises(NotInvertible):
        invert(L1)


def test_invert_round_trips(rng):
    prec = Precision(5)
    for _ in range(10):
        g = rand_invertible(rng)
        h = invert(g, prec)
        assert eq_to_bound(compose(g, h, prec), X_SER), g
        assert eq_to_bound(compose(h, g, prec), X_SER), g


def _fixed_point_inverse(g, prec):
    """invert's peel, then budget steps e <- -w(x + e) of the fixed point,
    closed at the dominant of the last step's change unless it vanished."""
    m0, a = ser_dominant(g)
    b = exponent_at(m0, ZERO)
    s, t = rational_pow(a, Fraction(-1) / b), Fraction(1) / b
    g1 = ser_pow(ser_scale(g, Fraction(1) / a), t, prec)
    m1 = mono_mul(ser_dominant(g1)[0], mono_pow(X, -1))
    q = from_monomial(mono_mul(X, mono_pow(m1, -1))) if m1 != MONE else None
    w = ser_sub(compose(g1, q, prec) if q else g1, X_SER)
    e, delta = S_ZERO, None
    for _ in range(prec.budget):
        e_new = ser_neg(_taylor_sum(w, e, lambda v, cut: v, lambda m: m, prec))
        delta, e = ser_sub(e_new, e), e_new
        if is_exact_zero(delta):
            delta = None
            break
    H = ser_add(X_SER, e)
    if delta is not None:
        H = with_bound(H, _dominant_monomial_or_bound(delta))
    out = compose(q, H, prec) if q else H
    if s != 1 or t != 1:
        out = compose(out, from_monomial(mono_pow(X, t), s), prec)
    return out


# fractional exponents, bounds, peeled monomial factors, scalings and l[w]
_INVERT_BASES = [
    "x + 3", "x + x^-1", "x + l[1]^-1 + 1", "x - l[1] + x^-1*l[2]",
    "x + x^(1/2) + l[1]", "x + x^(1/3)", "x + 2/3*x^(2/3)",
    "x + l[2]^2 + x^(1/3)", "x + O(x^(1/2))", "x + O(1)", "x + O(l[1])",
    "x + 1 + O(x^-2)", "x + l[w]", "x + l[w]^-1", "x + x^-1*l[w]",
    "x*l[1]^-1 + 1", "x*l[1]", "x^2 + x*l[1]", "x^(1/2) + 1",
    "x^(3/2) + x", "9*x^2 + 3", "1/9*x + 2"]


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from(_INVERT_BASES).map(eval_text),
                 st.randoms(use_true_random=False).map(rand_invertible)),
       st.integers(1, 6))
def test_invert_is_the_fixed_point_loop(g, budget):
    # the truncated sum of the iterates' increments is the loop's result,
    # in its terms and its bound
    prec = Precision(budget)
    assert invert(g, prec) == _fixed_point_inverse(g, prec)


@pytest.mark.parametrize("text, sums", [
    ("inv@8(x + l[1]^-1 + 1)", 8), ("inv@5(x + x^(1/3))", 5),
    ("inv@6(x + 3)", 2), ("inv@3(x + O(1))", 1)])
def test_invert_runs_one_taylor_sum_per_increment(monkeypatch, text, sums):
    # the iterates are pulled as the sum needs them: none past its last term
    calls = []

    def counted(*args):
        calls.append(args)
        return _taylor_sum(*args)

    monkeypatch.setattr(composition, "_taylor_sum", counted)
    eval_text(text)
    assert len(calls) == sums


# --- the integral recursion -------------------------------------------------------------

def test_recursion_matches_direct_composition():
    cases = [(OMEGA, X_SER), (OMEGA, L1),
             (OMEGA, ser_add(X_SER, S_ONE)),
             (omega_pow(ordinal(2)), L1)]
    for gamma, g in cases:
        lhs = recursion_check(gamma, g, Precision(6))
        rhs = compose(from_monomial(hyperlog(gamma)), g, Precision(6))
        assert eq_to_bound(lhs, rhs), (gamma, g)


def test_iterated_log_tower():
    g = ser_add(L1, from_const(1))
    assert log_iter(g, 0) is g
    first = log_iter(g, 1, Precision(5))
    assert first.terms[0][0] == hyperlog(ordinal(2))
