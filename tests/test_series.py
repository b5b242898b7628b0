"""Series arithmetic: ring laws, truncation bookkeeping, and a sympy oracle.

Series supported on powers of x alone embed into classical expansions at
infinity, so sympy's series machinery provides an independent check of the
inverse, logarithm and power expansions.
"""
import math
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlog import (DEFAULT_PRECISION, IndeterminateSplit, MONE, NonMonicLog,
                      NotPositive, OMEGA, ONE, Precision, Series, X, ZERO,
                      ZeroSeries, eq_exact, eq_to_bound, from_const,
                      from_monomial, hyperlog, is_exact_zero, make_monomial,
                      make_series, mono_pow, ord_add, ordinal,
                      ser_add, ser_compare_zero, ser_dominant, ser_log, ser_lt,
                      ser_mul, ser_mul_inverse, ser_neg, ser_parts, ser_pow,
                      ser_scale, ser_sub)
from hyperlog.monomial import LT, exponent_at, mono_max, mono_mul
from hyperlog.series import (S_ONE, S_ZERO, rational_pow, support_sum,
                             truncated_sum, with_bound)

from conftest import rand_finite_monomial, rand_series
from test_monomial import level_monomials, reference_compare

SX = sympy.Symbol("x", positive=True)
ONE_ORD = ordinal(1)


def x_power_series(rng, max_terms=3):
    """A series supported on integer powers of x with unit leading coefficient."""
    top = rng.randint(1, 3)
    terms = [(mono_pow(X, top), Fraction(1))]
    used = {top}
    for _ in range(rng.randint(0, max_terms)):
        e = rng.randint(top - 4, top - 1)
        if e in used:
            continue
        used.add(e)
        terms.append((mono_pow(X, e), Fraction(rng.randint(-3, 3))))
    return make_series(terms)


def to_sympy(s):
    expr = sympy.Integer(0)
    for m, c in s.terms:
        e = exponent_at(m, ZERO)
        assert m == mono_pow(X, e), "not an x-only series"
        expr += sympy.Rational(c) * SX ** sympy.Rational(e)
    return expr


def sympy_terms(expr, order):
    """Exponent -> coefficient of the expansion of expr at infinity."""
    exp = sympy.series(expr, SX, sympy.oo, order).removeO()
    out = {}
    for term in sympy.expand(exp, force=True).as_ordered_terms():
        c, e = term.as_coeff_exponent(SX)
        out[Fraction(str(e))] = out.get(Fraction(str(e)), 0) + Fraction(str(c))
    return {e: c for e, c in out.items() if c != 0}


def check_against_sympy(result, expr, order=None):
    """Every listed x-power term of result matches the classical expansion."""
    if order is None:
        exps = [exponent_at(m, ZERO) for m, _ in result.terms]
        order = int(abs(max(exps)) + abs(min(exps))) + 4
    table = sympy_terms(expr, order)
    assert result.terms, "no terms to check"
    for m, c in result.terms:
        e = exponent_at(m, ZERO)
        if m != mono_pow(X, e):
            continue  # a logarithm factor: outside the classical fragment
        assert table.get(e, 0) == c, (e, c, table)


# --- frozen expansion examples -------------------------------------------------

def test_inverse_of_x_plus_one():
    out = ser_mul_inverse(ser_add(from_monomial(X), S_ONE), Precision(3))
    assert out.terms == ((mono_pow(X, -1), Fraction(1)),
                         (mono_pow(X, -2), Fraction(-1)),
                         (mono_pow(X, -3), Fraction(1)))
    assert out.bound == mono_pow(X, -3)


def test_log_of_x_plus_one():
    out = ser_log(ser_add(from_monomial(X), S_ONE), Precision(3))
    assert out.terms == ((hyperlog(ONE_ORD), Fraction(1)),
                         (mono_pow(X, -1), Fraction(1)),
                         (mono_pow(X, -2), Fraction(-1, 2)),
                         (mono_pow(X, -3), Fraction(1, 3)))
    assert out.bound == mono_pow(X, -3)


def test_sqrt_of_x_plus_one():
    out = ser_pow(ser_add(from_monomial(X), S_ONE), Fraction(1, 2), Precision(3))
    assert out.terms == ((mono_pow(X, Fraction(1, 2)), Fraction(1)),
                         (mono_pow(X, Fraction(-1, 2)), Fraction(1, 2)),
                         (mono_pow(X, Fraction(-3, 2)), Fraction(-1, 8)),
                         (mono_pow(X, Fraction(-5, 2)), Fraction(1, 16)))
    assert out.bound == mono_pow(X, Fraction(-5, 2))


# --- sympy oracle over the x fragment --------------------------------------------

def test_inverse_matches_classical_expansion():
    rng = random.Random(7)
    for _ in range(15):
        a = x_power_series(rng)
        out = ser_mul_inverse(a, Precision(6))
        check_against_sympy(out, 1 / to_sympy(a))


def test_log_matches_classical_expansion():
    rng = random.Random(8)
    for _ in range(15):
        a = x_power_series(rng)
        out = ser_log(a, Precision(6))
        top = exponent_at(ser_dominant(a)[0], ZERO)
        check_against_sympy(out, sympy.log(to_sympy(a))
                            - sympy.Rational(top) * sympy.log(SX))


def test_pow_matches_classical_expansion():
    rng = random.Random(9)
    for t in (Fraction(1, 2), Fraction(-2), Fraction(3, 2), Fraction(5)):
        a = x_power_series(rng)
        out = ser_pow(a, t, Precision(6))
        check_against_sympy(out, to_sympy(a) ** sympy.Rational(t))


def test_product_matches_classical_expansion():
    rng = random.Random(10)
    for _ in range(10):
        a, b = x_power_series(rng), x_power_series(rng)
        out = ser_mul(a, b)
        check_against_sympy(out, to_sympy(a) * to_sympy(b), order=20)


# --- exactness and truncation bookkeeping ----------------------------------------

def test_terminating_expansions_are_exact():
    # 1/x is exact; so is (x+1)^3
    assert eq_exact(ser_mul_inverse(from_monomial(X)),
                    from_monomial(mono_pow(X, -1)))
    cube = ser_pow(ser_add(from_monomial(X), S_ONE), 3)
    assert cube.bound is None
    assert len(cube.terms) == 4


def test_bound_drops_smaller_terms():
    b = mono_pow(X, -1)
    s = make_series([(X, Fraction(1)), (mono_pow(X, -2), Fraction(5))], b)
    assert s.terms == ((X, Fraction(1)),)
    assert s.bound == b


def test_add_keeps_weaker_bound():
    a = with_bound(from_monomial(X), mono_pow(X, -2))
    b = with_bound(S_ONE, mono_pow(X, -1))
    assert ser_add(a, b).bound == mono_pow(X, -1)


def test_mul_bound_rule():
    a = with_bound(from_monomial(X), mono_pow(X, -1))
    b = from_monomial(X)
    assert ser_mul(a, b).bound == MONE  # x^-1 scaled by the dominant x


def test_parts_and_sign():
    s = make_series([(X, Fraction(2)), (MONE, Fraction(-3)),
                     (mono_pow(X, -1), Fraction(1))])
    big, const, small = ser_parts(s)
    assert big.terms == ((X, Fraction(2)),)
    assert const == -3
    assert small.terms == ((mono_pow(X, -1), Fraction(1)),)
    assert ser_compare_zero(s) == 1
    assert ser_lt(ser_neg(s), s)
    with pytest.raises(IndeterminateSplit):
        ser_parts(with_bound(s, X))


def test_log_domain_errors():
    with pytest.raises(NotPositive):
        ser_log(from_monomial(X, -1))
    with pytest.raises(NonMonicLog):
        ser_log(from_monomial(X, 2))
    with pytest.raises(ZeroSeries):
        ser_mul_inverse(S_ZERO)


def test_rational_pow():
    assert rational_pow(Fraction(4), Fraction(1, 2)) == 2
    assert rational_pow(Fraction(8, 27), Fraction(2, 3)) == Fraction(4, 9)
    assert rational_pow(Fraction(2), Fraction(1, 2)) is None
    # roots too large for a float, or too close to one, stay exact
    assert rational_pow(Fraction((10**20 + 39) ** 2), Fraction(1, 2)) == 10**20 + 39
    assert rational_pow(Fraction(3**80), Fraction(1, 2)) == 3**40
    assert rational_pow(Fraction(10**400), Fraction(-1, 2)) == Fraction(1, 10**200)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**60),
       st.integers(min_value=1, max_value=10**60),
       st.integers(min_value=1, max_value=7), st.booleans())
def test_rational_pow_matches_integer_nthroot(n, d, k, powers):
    if powers:
        n, d = n**k, d**k
    c = Fraction(n, d)
    rn, exact_n = sympy.integer_nthroot(c.numerator, k)
    rd, exact_d = sympy.integer_nthroot(c.denominator, k)
    want = Fraction(rn, rd) if exact_n and exact_d else None
    assert rational_pow(c, Fraction(1, k)) == want


# --- truncated sums ---------------------------------------------------------------

def x_pow(e, c=1):
    return from_monomial(mono_pow(X, e), c)


def test_truncated_sum_ends_at_an_exact_zero():
    # the term after the zero would be wrong; it must never be read
    terms = iter([x_pow(0), x_pow(-1), S_ZERO, x_pow(5)])
    assert eq_exact(truncated_sum(terms, 8), ser_add(x_pow(0), x_pow(-1)))


def test_truncated_sum_ends_with_the_iterable():
    assert eq_exact(truncated_sum([x_pow(0), x_pow(-2, 3)], 8),
                    ser_add(x_pow(0), x_pow(-2, 3)))
    assert eq_exact(truncated_sum([], 8), S_ZERO)


def test_truncated_sum_ends_at_a_bound_only_term():
    terms = iter([x_pow(0), with_bound(S_ZERO, mono_pow(X, -2)), x_pow(5)])
    out = truncated_sum(terms, 8)
    assert out.terms == x_pow(0).terms
    assert out.bound == mono_pow(X, -2)


def test_truncated_sum_closes_after_budget_terms():
    def geometric():
        n = 0
        while True:
            yield x_pow(-n)
            n += 1
    out = truncated_sum(geometric(), 3)
    assert out.terms == ser_add(ser_add(x_pow(0), x_pow(-1)), x_pow(-2)).terms
    assert out.bound == mono_pow(X, -2)
    out = truncated_sum(geometric(), 1)
    assert out.terms == x_pow(0).terms and out.bound == MONE


# --- support walks -------------------------------------------------------------

@pytest.mark.parametrize("budget", range(1, 7))
def test_support_sum_is_exact_at_budget_levels_and_bounded_past_them(budget):
    def term(b):  # the logarithm's term for level b
        return hyperlog(ord_add(b, ONE))

    n = ordinal(budget)
    above_w = ord_add(OMEGA, n)
    split = [(ZERO, ONE, 1)] + ([(OMEGA, ord_add(OMEGA, ordinal(budget - 1)),
                                  -1)] if budget > 1 else [])
    exact = [[(ZERO, n, 1)], [(OMEGA, above_w, 2)], split]
    longer = [[(ZERO, ord_add(n, ONE), 1)], [(ordinal(3), OMEGA, -1)],
              [(ZERO, ONE, 1), (OMEGA, above_w, 1)],
              [(OMEGA, ord_add(OMEGA, OMEGA), 1)]]
    for pieces in exact:
        out = support_sum(make_monomial(pieces), term, budget)
        assert out.bound is None and len(out.terms) == budget, pieces
    for pieces in longer:
        out = support_sum(make_monomial(pieces), term, budget)
        assert len(out.terms) == budget, pieces
        assert out.bound == out.terms[-1][0], pieces
    out = support_sum(make_monomial([(ZERO, n, 1)]), term, budget)
    assert out.terms == tuple((hyperlog(ordinal(k)), 1)
                              for k in range(1, budget + 1))
    assert eq_exact(support_sum(MONE, term, budget), S_ZERO)


# --- floors --------------------------------------------------------------------

@st.composite
def floored_products(draw):
    """Two operands, exact zeros and bounded ones included, and a floor that
    is missing, above both dominants, a product monomial or a random one."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))

    def operand():
        if rng.random() < 0.15:
            return S_ZERO
        s = rand_series(rng)
        if s.terms and rng.random() < 0.4:
            s = with_bound(s, rng.choice(s.terms)[0])
        return s

    a, b = operand(), operand()
    monos = [m for m, _ in a.terms + b.terms]
    kind = draw(st.sampled_from(["none", "above", "product", "random"]))
    if kind == "above" and a.terms and b.terms:
        floor = mono_mul(mono_max(a.terms[0][0], b.terms[0][0]), X)
    elif kind == "product" and a.terms and b.terms:
        floor = mono_mul(rng.choice(a.terms)[0], rng.choice(b.terms)[0])
    elif kind == "random" and monos:
        floor = mono_mul(rng.choice(monos), rand_finite_monomial(rng))
    else:
        floor = None
    return a, b, floor


@settings(max_examples=80, deadline=None)
@given(floored_products())
def test_floored_product_is_the_product_weakened_by_the_floor(case):
    a, b, floor = case
    assert ser_mul(a, b, floor) == with_bound(ser_mul(a, b), floor)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from([Fraction(0), Fraction(-1), Fraction(1, 2),
                        Fraction(-3, 2), Fraction(2), Fraction(5)]),
       st.integers(min_value=1, max_value=6))
def test_floored_power_is_the_power_weakened_by_the_floor(seed, t, budget):
    rng = random.Random(seed)
    a = rand_series(rng)
    if not a.terms or a.terms[0][1] < 0:
        return
    a = ser_scale(a, 1 / a.terms[0][1])
    prec = Precision(budget)
    full = ser_pow(a, t, prec)
    monos = [m for m, _ in full.terms] + [mono_mul(full.terms[0][0], X)]
    floor = mono_mul(rng.choice(monos), mono_pow(X, rng.randint(-2, 0)))
    assert ser_pow(a, t, prec, floor) == with_bound(full, floor)


# --- ring laws -------------------------------------------------------------------

def series_values():
    return st.integers(min_value=0, max_value=10**6).map(
        lambda s: rand_series(random.Random(s)))


@settings(max_examples=40, deadline=None)
@given(series_values(), series_values(), series_values())
def test_ring_laws(a, b, c):
    assert eq_exact(ser_add(a, b), ser_add(b, a))
    assert eq_exact(ser_mul(a, b), ser_mul(b, a))
    assert eq_exact(ser_mul(a, ser_add(b, c)),
                    ser_add(ser_mul(a, b), ser_mul(a, c)))
    assert eq_exact(ser_sub(a, a), S_ZERO)
    assert eq_exact(ser_mul(a, S_ONE), a)


@settings(max_examples=40, deadline=None)
@given(series_values())
def test_inverse_round_trip(a):
    if is_exact_zero(a):
        return
    inv = ser_mul_inverse(a, Precision(6))
    assert eq_to_bound(ser_mul(a, inv), S_ONE)


# --- make_series against a comparator sort -------------------------------------

def reference_make_series(terms, bound=None):
    """make_series with the order of the reference piece walk."""
    acc = {}
    for m, c in terms:
        acc[m] = acc.get(m, Fraction(0)) + Fraction(c)
    kept = [(m, c) for m, c in acc.items() if c != 0]
    if bound is not None:
        kept = [(m, c) for m, c in kept if reference_compare(m, bound) != LT]
    kept.sort(key=cmp_to_key(lambda a, b: reference_compare(a[0], b[0])),
              reverse=True)
    return Series(tuple(kept), bound)


COEFFS = st.sampled_from([0, 1, -1, 3, Fraction(0), Fraction(1, 2),
                          Fraction(-2, 3), Fraction(5)])


@settings(max_examples=150, deadline=None)
@given(st.lists(level_monomials(), min_size=1, max_size=5), st.data())
def test_make_series_matches_a_comparator_sort(pool, data):
    # a small pool makes duplicates; some pairs of them cancel to zero
    terms = data.draw(st.lists(st.tuples(st.sampled_from(pool), COEFFS),
                               max_size=12))
    bound = data.draw(st.one_of(st.none(), st.sampled_from(pool)))
    got = make_series(terms, bound)
    assert got == reference_make_series(terms, bound)
    assert all(type(c) is Fraction for _, c in got.terms)


# --- ser_mul against products formed as Fractions --------------------------------

BIG = 2**64 + 1
KERNEL_COEFFS = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3),
                 Fraction(7, 6), Fraction(1, BIG), Fraction(-1, BIG),
                 Fraction(BIG, 3), Fraction(5, 2**61 - 1), Fraction(-3, BIG * 7)]
# x^(i/2)*l[1]^j: products of these coincide often, so terms merge and cancel
KERNEL_MONOS = [mono_mul(mono_pow(X, Fraction(i, 2)),
                         mono_pow(hyperlog(ONE_ORD), j))
                for i in range(-3, 4) for j in (-1, 0, 1)]


def reference_mul(a, b, floor):
    """Every product as a Fraction, merged by make_series, then weakened by
    the floor and the operands' bounds."""
    products = [(mono_mul(ma, mb), ca * cb)
                for ma, ca in a.terms for mb, cb in b.terms]
    out = with_bound(make_series(products), floor)
    if b.bound is not None and a.terms:
        out = with_bound(out, mono_mul(a.terms[0][0], b.bound))
    if a.bound is not None and b.terms:
        out = with_bound(out, mono_mul(b.terms[0][0], a.bound))
    if a.bound is not None and b.bound is not None:
        out = with_bound(out, mono_mul(a.bound, b.bound))
    return out


@st.composite
def kernel_operands(draw):
    """Operands of up to six terms with mixed denominators, bounded or not,
    bound-only ones included, and a floor or none.  A conjugate pair
    (p + q)(p - q) makes the cross products cancel to zero."""
    monos = st.sampled_from(KERNEL_MONOS)
    coeffs = st.sampled_from(KERNEL_COEFFS)

    def operand():
        terms = draw(st.lists(st.tuples(monos, coeffs), max_size=6))
        bound = draw(st.one_of(st.none(), monos))
        return make_series(terms, bound)

    a = operand()
    if draw(st.booleans()) and len(a.terms) >= 2:
        (p, cp), (q, cq) = a.terms[:2]
        a = Series(((p, cp), (q, cq)), a.bound)
        b = make_series([(p, cp), (q, -cq)], draw(st.one_of(st.none(), monos)))
    else:
        b = operand()
    floor = draw(st.one_of(st.none(), monos))
    return a, b, floor


@settings(max_examples=200, deadline=None)
@given(kernel_operands())
def test_ser_mul_matches_products_formed_as_fractions(case):
    a, b, floor = case
    got = ser_mul(a, b, floor)
    assert got == reference_mul(a, b, floor)
    for _, c in got.terms:
        assert type(c) is Fraction and c
        assert c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1
