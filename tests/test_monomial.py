"""The monomial group: canonical form, order, and the logarithm family."""
import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlog import (MONE, IdentityMonomial, Monomial, OMEGA, ONE, X, ZERO,
                      hyperlog, hyperlog_dagger, hyperlog_deriv, make_monomial,
                      mono_compare, mono_min_support, mono_mul, mono_pow,
                      mono_shift, mono_split, omega_pow, ord_add, ordinal)
from hyperlog.monomial import EQ, GT, LT, exponent_at, mono_max
from hyperlog.render import monomial_from_json, monomial_to_json

from conftest import rand_finite_monomial
import random


def monomials():
    seeds = st.integers(min_value=0, max_value=10**6)
    return seeds.map(lambda s: rand_finite_monomial(random.Random(s)))


# --- canonical form ------------------------------------------------------------

def test_make_monomial_merges_adjacent_equal_pieces():
    m = make_monomial([(ZERO, ordinal(1), Fraction(2)),
                       (ordinal(1), ordinal(3), Fraction(2))])
    assert m.pieces == ((ZERO, ordinal(3), Fraction(2)),)


def test_make_monomial_drops_zero_exponents():
    assert make_monomial([(ZERO, ONE, Fraction(0))]) == MONE


def test_make_monomial_rejects_overlap_and_empty():
    with pytest.raises(ValueError):
        make_monomial([(ZERO, ordinal(2), Fraction(1)),
                       (ordinal(1), ordinal(3), Fraction(2))])
    with pytest.raises(ValueError):
        make_monomial([(ordinal(2), ordinal(2), Fraction(1))])


def test_exponent_lookup():
    m = make_monomial([(ordinal(1), OMEGA, Fraction(-1))])
    assert exponent_at(m, ordinal(1)) == -1
    assert exponent_at(m, ordinal(100)) == -1
    assert exponent_at(m, OMEGA) == 0
    assert exponent_at(m, ZERO) == 0


# --- order ----------------------------------------------------------------------

def test_order_lowest_level_decides():
    # x beats any power of the level-1 logarithm
    l1_cubed = mono_pow(hyperlog(ONE), 3)
    assert mono_compare(X, l1_cubed) == GT
    assert mono_compare(mono_pow(X, -1), l1_cubed) == LT


def test_order_on_infinite_pieces():
    # the exact derivative of l[w] is just below x^-1 but above any x^-r, r > 1
    d = hyperlog_deriv(OMEGA)
    assert mono_compare(d, mono_pow(X, -1)) == LT
    assert mono_compare(d, mono_pow(X, Fraction(-3, 2))) == GT


def test_min_support():
    assert mono_min_support(hyperlog(OMEGA)) == OMEGA
    assert mono_min_support(hyperlog_dagger(ordinal(2))) == ZERO
    with pytest.raises(IdentityMonomial):
        mono_min_support(MONE)


# --- the logarithm family ---------------------------------------------------------

def test_hyperlog_family_relations():
    for alpha in (ZERO, ordinal(1), ordinal(3), OMEGA, omega_pow(ordinal(2))):
        lg, dv, dg = hyperlog(alpha), hyperlog_deriv(alpha), hyperlog_dagger(alpha)
        # the logarithmic derivative is the derivative divided by the value
        assert mono_mul(dv, mono_pow(lg, -1)) == dg
    assert hyperlog_deriv(ZERO) == MONE
    assert hyperlog(ZERO) == X


def test_split_and_shift():
    m = make_monomial([(ordinal(1), ord_add(OMEGA, ordinal(2)), Fraction(1))])
    low, high = mono_split(m, OMEGA)
    assert low.pieces == ((ordinal(1), OMEGA, Fraction(1)),)
    assert high.pieces == ((OMEGA, ord_add(OMEGA, ordinal(2)), Fraction(1)),)
    assert mono_mul(low, high) == m
    assert mono_shift(hyperlog(ordinal(2)), OMEGA) == hyperlog(ord_add(OMEGA, ordinal(2)))


# --- group and order laws (property tests) ----------------------------------------

@settings(max_examples=60, deadline=None)
@given(monomials(), monomials(), monomials())
def test_group_laws(a, b, c):
    assert mono_mul(a, b) == mono_mul(b, a)
    assert mono_mul(mono_mul(a, b), c) == mono_mul(a, mono_mul(b, c))
    assert mono_mul(a, MONE) == a
    assert mono_mul(a, mono_pow(a, -1)) == MONE


@settings(max_examples=60, deadline=None)
@given(monomials(), monomials(), monomials())
def test_order_translation_invariant(a, b, c):
    assert mono_compare(a, b) == mono_compare(mono_mul(a, c), mono_mul(b, c))


@settings(max_examples=60, deadline=None)
@given(monomials(), monomials())
def test_order_antisymmetric(a, b):
    assert mono_compare(a, b) == -mono_compare(b, a)
    assert (mono_compare(a, b) == EQ) == (a == b)
    assert mono_compare(mono_max(a, b), a) != LT


@settings(max_examples=60, deadline=None)
@given(monomials())
def test_split_recombines(m):
    low, high = mono_split(m, ordinal(2))
    assert mono_mul(low, high) == m
    for lo, hi, _ in low.pieces:
        assert hi <= ordinal(2)
    for lo, hi, _ in high.pieces:
        assert lo >= ordinal(2)


# --- the key order and the canonical product against reference walks ------------

def reference_compare(a, b):
    """The monomial order by walking both piece lists, clipping as it goes."""
    if a is b:
        return EQ
    pa, pb = a.pieces, b.pieces
    i = j = 0
    ca = cb = None  # current (possibly clipped) piece of each side
    while True:
        if ca is None:
            if i < len(pa):
                ca = pa[i]
                i += 1
            else:
                if cb is None and j >= len(pb):
                    return EQ
                eb = cb[2] if cb is not None else pb[j][2]
                return LT if eb > 0 else GT
        if cb is None:
            if j < len(pb):
                cb = pb[j]
                j += 1
            else:
                return GT if ca[2] > 0 else LT
        alo, ahi, ea = ca
        blo, bhi, eb = cb
        ka, kb = alo.key, blo.key
        if ka < kb:
            # a alone is supported on [alo, min(ahi, blo))
            return GT if ea > 0 else LT
        if kb < ka:
            return LT if eb > 0 else GT
        if ea != eb:
            return GT if ea > eb else LT
        # equal exponents from the common start; clip to the shorter piece
        kah, kbh = ahi.key, bhi.key
        if kah == kbh:
            ca = cb = None
        elif kah < kbh:
            ca, cb = None, (ahi, bhi, eb)
        else:
            ca, cb = (bhi, ahi, ea), None


def reference_mul(a, b):
    """The product by a breakpoint sweep canonicalized with make_monomial."""
    events = []
    for which, m in enumerate((a, b)):
        for lo, hi, e in m.pieces:
            events.append((lo, which, e))
            events.append((hi, which, Fraction(0)))
    events.sort(key=lambda p: p[0].key)
    pieces, cur, prev = [], [Fraction(0), Fraction(0)], None
    for point, which, e in events:
        if prev is not None and prev != point and (cur[0] or cur[1]):
            pieces.append((prev, point, cur[0] + cur[1]))
        cur[which] = e
        prev = point
    return make_monomial(pieces)


W_W = omega_pow(OMEGA)
# levels up to w^w, so that the key's order reversal recurses into exponents
LEVELS = [ZERO, ordinal(1), ordinal(2), ordinal(3), OMEGA, ord_add(OMEGA, ONE),
          ord_add(OMEGA, OMEGA), omega_pow(ordinal(2)),
          ord_add(omega_pow(ordinal(2)), ordinal(5)), omega_pow(ordinal(3)),
          W_W, ord_add(W_W, ONE), ord_add(W_W, W_W)]
EXPONENTS = [0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]


@st.composite
def level_monomials(draw):
    """Monomials over ordinal levels up to w^w*2, integral and rational."""
    cuts = sorted(set(draw(st.lists(st.sampled_from(LEVELS), max_size=7))),
                  key=lambda o: o.key)
    exps = draw(st.lists(st.sampled_from(EXPONENTS), min_size=len(cuts),
                         max_size=len(cuts)))
    return make_monomial([(lo, hi, Fraction(e))
                          for lo, hi, e in zip(cuts, cuts[1:], exps)])


@st.composite
def monomial_pairs(draw):
    """Independent pairs, equal pairs and pairs that partly cancel."""
    a = draw(level_monomials())
    kind = draw(st.sampled_from(["any", "equal", "inverse", "near"]))
    if kind == "equal":
        return a, make_monomial(list(a.pieces))
    b = draw(level_monomials())
    if kind == "inverse":
        inverse = mono_pow(a, -1)
        return a, mono_mul(inverse, b) if draw(st.booleans()) else inverse
    if kind == "near":
        return a, mono_mul(a, b)
    return a, b


def _sign(x, y):
    return EQ if x == y else GT if x > y else LT


@settings(max_examples=200, deadline=None)
@given(monomial_pairs())
def test_key_order_is_the_piece_walk(pair):
    a, b = pair
    expected = reference_compare(a, b)
    assert _sign(a.key, b.key) == expected
    assert mono_compare(a, b) == expected
    assert reference_compare(b, a) == -expected


@settings(max_examples=200, deadline=None)
@given(monomial_pairs())
def test_mono_mul_is_the_canonicalized_sweep(pair):
    a, b = pair
    assert mono_mul.__wrapped__(a, b) is reference_mul(a, b)
    assert mono_mul.__wrapped__(b, a) is reference_mul(a, b)


def test_mono_mul_cancels_and_merges():
    one, two, w = ordinal(1), ordinal(2), OMEGA
    a = make_monomial([(ZERO, one, Fraction(1)), (one, w, Fraction(2))])
    b = make_monomial([(ZERO, one, Fraction(1)), (two, w, Fraction(-2))])
    # [0,1) -> 2 and [1,2) -> 2 merge; [2,w) cancels to nothing
    assert mono_mul.__wrapped__(a, b).pieces == ((ZERO, two, Fraction(2)),)
    assert mono_mul.__wrapped__(a, mono_pow(a, -1)) is MONE


def test_building_an_interned_monomial_keeps_its_pieces():
    # equal pieces with an int or a Fraction exponent give the interned X,
    # which keeps its integral exponent as an int
    assert Monomial(((ZERO, ONE, 1),)) is X
    assert type(X.pieces[0][2]) is int
    assert Monomial(((ZERO, ONE, Fraction(1)),)) is X
    assert type(X.pieces[0][2]) is int


def test_copies_and_pickles_are_the_interned_instances():
    for value in (X, ONE, OMEGA):
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            assert clone is value
    assert MONE.pieces == () and ZERO.terms == ()
    assert X.pieces == ((ZERO, ONE, Fraction(1)),)


# --- canonical exponents and one object per value ----------------------------

@st.composite
def fraction_pieces(draw):
    """Canonical pieces with Fraction exponents, integral and rational, over
    levels up to w^w*2; the first exponent is drawn from a wide range, so
    that the value is rarely interned already."""
    cuts = sorted(draw(st.lists(st.sampled_from(LEVELS), min_size=2,
                                max_size=7, unique=True)), key=lambda o: o.key)
    exps = [draw(st.integers(-10**9, 10**9).filter(bool))]
    for _ in cuts[2:]:
        exps.append(draw(st.sampled_from(
            [e for e in EXPONENTS if e and e != exps[-1]])))
    return [(lo, hi, Fraction(e)) for lo, hi, e in zip(cuts, cuts[1:], exps)]


def _has_canonical_exponents(m):
    return all(type(e) is (int if e.denominator == 1 else Fraction)
               for _, _, e in m.pieces)


@settings(max_examples=200, deadline=None)
@given(fraction_pieces(), level_monomials(), st.sampled_from(EXPONENTS[2:]),
       st.sampled_from(LEVELS))
def test_integral_exponents_are_ints_and_equal_values_one_object(
        pieces, b, t, level):
    direct = Monomial(tuple(pieces))  # built first, so usually not interned
    a = make_monomial(pieces)
    with_ints = make_monomial([(lo, hi, e.numerator if e.denominator == 1
                                else e) for lo, hi, e in pieces])
    assert direct is a and with_ints is a and hash(with_ints) == hash(direct)
    low, high = mono_split(a, level)
    outputs = [a, b, mono_mul.__wrapped__(a, b), mono_pow(a, t),
               mono_pow(a, Fraction(t)), mono_shift(a, level), low, high,
               monomial_from_json(monomial_to_json(a)), hyperlog(level),
               hyperlog_deriv(level), hyperlog_dagger(level)]
    for m in outputs:
        assert _has_canonical_exponents(m), m
        as_fractions = [(lo, hi, Fraction(e)) for lo, hi, e in m.pieces]
        assert Monomial(tuple(as_fractions)) is m
        assert make_monomial(as_fractions) is m
    # the same values along other paths are the same objects
    assert mono_mul.__wrapped__(low, high) is a
    assert mono_pow(mono_pow(a, t), 1 / Fraction(t)) is a
    assert mono_mul.__wrapped__(mono_pow(a, -1), mono_mul(a, b)) is b
    assert monomial_from_json(monomial_to_json(a)) is a
    dagger = mono_mul(hyperlog_deriv(level), mono_pow(hyperlog(level), -1))
    assert dagger is hyperlog_dagger(level)
    assert hash(dagger) == hash(hyperlog_dagger(level))
