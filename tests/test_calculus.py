"""Derivation and distinguished integration."""
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlog import (IndeterminateSign, MONE, OMEGA, ONE, Precision, X, ZERO,
                      dagger, derive, eq_exact, eq_to_bound, from_const,
                      from_monomial, hfield_facts, hyperlog, hyperlog_dagger,
                      hyperlog_deriv, integrate, make_monomial, make_series,
                      mod_derive, mono_pow, omega_pow, ord_add, ordinal,
                      parse_ordinal, ser_add, ser_dominant, ser_mul, ser_scale,
                      ser_sub)
from hyperlog.calculus import _integration_level, _t_mono
from hyperlog.monomial import exponent_at, mono_min_support
from hyperlog.series import S_ONE, S_ZERO, with_bound

from conftest import rand_series

SX = sympy.Symbol("x", positive=True)


# --- derivation ----------------------------------------------------------------

def test_derivative_of_the_logarithm_family():
    assert eq_exact(derive(from_monomial(X)), S_ONE)
    for alpha in (ordinal(1), ordinal(2), OMEGA, ord_add(OMEGA, ONE),
                  omega_pow(ordinal(2))):
        got = derive(from_monomial(hyperlog(alpha)))
        assert eq_exact(got, from_monomial(hyperlog_deriv(alpha))), alpha


def test_derivative_of_constants_is_zero():
    assert eq_exact(derive(from_const(Fraction(7, 3))), S_ZERO)
    assert eq_exact(derive(S_ZERO), S_ZERO)


def test_logarithmic_derivative_of_monomials():
    for alpha in (ZERO, ordinal(2), OMEGA):
        got = dagger(from_monomial(hyperlog(alpha), 5))
        assert eq_exact(got, from_monomial(hyperlog_dagger(alpha)))
    # multiplicativity on a product monomial: daggers add
    m = make_monomial([(ZERO, ordinal(1), Fraction(2)),
                       (ordinal(1), ordinal(2), Fraction(-1))])
    expect = ser_add(from_monomial(hyperlog_dagger(ZERO), 2),
                     from_monomial(hyperlog_dagger(ordinal(1)), -1))
    assert eq_exact(dagger(from_monomial(m, 3)), expect)


def test_modified_derivation_normalizes_its_level():
    got = mod_derive(from_monomial(hyperlog(OMEGA)), OMEGA)
    assert eq_exact(got, S_ONE)


def test_infinite_support_derivative_truncates_with_bound():
    out = derive(from_monomial(hyperlog_deriv(OMEGA)), Precision(3))
    # emitted levels 0, 1, 2 of the infinite dagger sum
    assert len(out.terms) == 3
    assert out.bound == out.terms[-1][0]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6))
def test_leibniz_rule(sa, sb):
    f = rand_series(random.Random(sa))
    g = rand_series(random.Random(sb))
    prec = Precision(6)
    lhs = derive(ser_mul(f, g), prec)
    rhs = ser_add(ser_mul(derive(f, prec), g), ser_mul(f, derive(g, prec)))
    assert eq_to_bound(lhs, rhs)


# --- integration ------------------------------------------------------------------

def test_integrate_constants_and_exact_forms():
    assert eq_exact(integrate(S_ONE), from_monomial(X))
    assert eq_exact(integrate(from_monomial(hyperlog_deriv(OMEGA))),
                    from_monomial(hyperlog(OMEGA)))
    # the first logarithm integrates by parts exactly
    expect = ser_sub(from_monomial(make_monomial([(ZERO, ordinal(2),
                                                   Fraction(1))])),
                     from_monomial(X))
    assert eq_exact(integrate(from_monomial(hyperlog(ordinal(1)))), expect)


def test_integrate_derivative_monomials_exactly():
    for alpha in (ordinal(1), ordinal(2), OMEGA, ord_add(OMEGA, ONE),
                  omega_pow(ordinal(2))):
        got = integrate(from_monomial(hyperlog_deriv(alpha)))
        assert eq_exact(got, from_monomial(hyperlog(alpha))), alpha


def test_integrate_polynomials_match_sympy():
    rng = random.Random(11)
    for _ in range(10):
        exps = sorted({rng.randint(-5, 5) for _ in range(3)} - {-1},
                      reverse=True)
        terms = [(mono_pow(X, e), Fraction(rng.randint(-3, 3))) for e in exps]
        f = make_series(terms)
        got = integrate(f, Precision(10))
        expect_expr = sympy.integrate(
            sum(sympy.Rational(c) * SX ** exponent_at(m, ZERO)
                for m, c in f.terms), SX)
        expect_terms = []
        for term in sympy.expand(expect_expr).as_ordered_terms():
            c, e = term.as_coeff_exponent(SX)
            expect_terms.append((mono_pow(X, Fraction(str(e))),
                                 Fraction(str(c))))
        assert eq_exact(got, make_series(expect_terms))


def test_integrate_has_no_constant_term(rng):
    for _ in range(30):
        f = rand_series(rng)
        out = integrate(f, Precision(8))
        assert all(m != MONE for m, _ in out.terms)


def test_derivative_inverts_integration(rng):
    for _ in range(30):
        f = rand_series(rng)
        assert eq_to_bound(derive(integrate(f, Precision(8)), Precision(8)), f)


def test_integration_respects_input_bounds():
    f = with_bound(from_monomial(X), mono_pow(X, -2))
    out = integrate(f, Precision(8))
    assert out.terms[0][0] == mono_pow(X, 2)
    assert out.bound is not None


# levels of the lifted monomials' pieces, finite and transfinite
_LIFT_LEVELS = [parse_ordinal(t) for t in (
    "0", "1", "2", "3", "w", "w+1", "w+2", "w*2", "w*2+1", "w^2", "w^2+1",
    "w^2+w", "w^w", "w^w+1", "w^w*2")]
_LIFT_EXPONENTS = [Fraction(k, d) for k in (-3, -2, -1, 1, 2, 3)
                   for d in (1, 2, 3)] + [0]


@st.composite
def lift_monomials(draw):
    """A monomial of rational exponents on pieces between levels up to w^w*2."""
    ends = sorted(draw(st.sets(st.integers(0, len(_LIFT_LEVELS) - 1),
                               max_size=5)))
    return make_monomial([(_LIFT_LEVELS[lo], _LIFT_LEVELS[hi],
                           draw(st.sampled_from(_LIFT_EXPONENTS)))
                          for lo, hi in zip(ends, ends[1:])])


@settings(max_examples=120, deadline=None)
@given(lift_monomials(), st.integers(1, 6))
def test_the_lift_in_closed_form_leads_its_modified_derivative_to_m(m, budget):
    # n = m * dagger(l[b])^-1 * l[alpha]' keeps m's exponent r at its least
    # level b and has nothing below b, so mod_derive(n) leads with r * m
    alpha = _integration_level(from_monomial(m))
    n, c = _t_mono(m, alpha)
    if m != MONE:
        b = mono_min_support(m)
        assert mono_min_support(n) == b
        assert exponent_at(n, b) == exponent_at(m, b) == 1 / c
    got = mod_derive(from_monomial(n, c), alpha, Precision(budget))
    assert ser_dominant(got) == (m, 1)


# --- ordered-field facts ------------------------------------------------------------

def test_hfield_facts():
    f = ser_add(from_monomial(X, 2), from_const(-5))
    facts = hfield_facts(f)
    assert facts.infinite and facts.derivative_sign == 1
    g = from_monomial(mono_pow(X, -1), -3)
    facts = hfield_facts(g)
    assert not facts.infinite and facts.derivative_sign == 1  # -3/x increases
    assert hfield_facts(from_const(9)).derivative_sign == 0
    with pytest.raises(IndeterminateSign):
        hfield_facts(with_bound(S_ZERO, X))
