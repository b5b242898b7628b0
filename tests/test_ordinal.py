"""Ordinal arithmetic: frozen values, oracle agreement, and order laws."""
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings

from hyperlog import (OMEGA, ONE, ZERO, NestingTooDeep, Ordinal,
                      format_ordinal, is_limit,
                      is_successor, lambda_coeff, monomial_cnf_list, omega_pow,
                      ord_add, ord_compare, ordinal, parse_ordinal)
from hyperlog.cli import Atom, CliSyntaxError, parse
from hyperlog.monomial import hyperlog
from hyperlog.ordinal import (EQ, GT, LT, format_frac, ordinal_to_int,
                              parse_frac, predecessor)
from hyperlog.render import series_from_json

from conftest import small_ordinals
from triple_oracle import oracle_add, oracle_compare, triple_to_parts, triples


def from_triple(p):
    total = ZERO
    for power, n in triple_to_parts(p):
        term = omega_pow(ordinal(power))
        for _ in range(n):
            total = ord_add(total, term)
    return total


# --- frozen values -----------------------------------------------------------

def test_building_an_interned_ordinal_keeps_its_terms():
    # equal terms with a Fraction coefficient give the interned ONE, unchanged
    assert Ordinal(((ZERO, Fraction(1)),)) is ONE
    assert type(ONE.terms[0][1]) is int


def test_one_plus_omega_absorbs():
    assert ord_add(ONE, OMEGA) == OMEGA
    assert ord_add(OMEGA, ONE) != OMEGA


def test_sum_merges_equal_leading_power():
    # (w^2*2 + w) + (w^2 + 3) = w^2*3 + 3: the w term is absorbed
    a = parse_ordinal("w^2*2+w")
    b = parse_ordinal("w^2+3")
    assert ord_add(a, b) == parse_ordinal("w^2*3+3")


def test_lambda_coeff_reads_normal_form():
    lam = parse_ordinal("w*2+3")
    assert lambda_coeff(lam, OMEGA) == 3          # nu = w^(0+1)
    assert lambda_coeff(lam, omega_pow(ordinal(2))) == 2   # nu = w^(1+1)
    assert lambda_coeff(lam, omega_pow(ordinal(3))) == 0


def test_lambda_coeff_zero_off_successor_powers():
    lam = parse_ordinal("w^2+w+1")
    assert lambda_coeff(lam, ONE) == 0            # nu = w^0 is not allowed
    assert lambda_coeff(lam, omega_pow(OMEGA)) == 0  # limit exponent
    assert lambda_coeff(lam, parse_ordinal("w^2+w")) == 0  # not a power


def test_successor_predecessor():
    assert is_successor(parse_ordinal("w+1"))
    assert is_limit(OMEGA)
    assert not is_limit(ZERO) and not is_successor(ZERO)
    assert predecessor(parse_ordinal("w+1")) == OMEGA
    assert predecessor(ordinal(5)) == ordinal(4)


def test_cnf_list_expands_coefficients():
    assert monomial_cnf_list(parse_ordinal("w^2*2+w")) == [
        ordinal(2), ordinal(2), ordinal(1)]
    assert monomial_cnf_list(ZERO) == []


def test_large_coefficients_parse_directly():
    start = perf_counter()
    assert parse_ordinal("w^2*100000000+w*100000000") == Ordinal(
        ((ordinal(2), 100000000), (ONE, 100000000)))
    assert parse("l[w*100000000]") == Atom(hyperlog(Ordinal(((ONE, 100000000),))))
    assert perf_counter() - start < 1.0
    assert parse_ordinal("w^3*0+2") == ordinal(2)


def test_malformed_ordinals_raise_syntax_errors():
    for bad in ("w*w", "w*", "w^", "w+", "w^(2", "2 w", "x"):
        with pytest.raises(SyntaxError):
            parse_ordinal(bad)


def test_ordinals_are_read_by_the_expression_reader():
    # the same tokens, messages and columns as a level inside l[...]
    with pytest.raises(CliSyntaxError, match=r"^trailing input 'w' at col 5$"):
        parse_ordinal("w^2 w")
    with pytest.raises(CliSyntaxError, match=r"^unexpected end of input at col 3$"):
        parse_ordinal("w*")
    with pytest.raises(CliSyntaxError, match=r"^expected an ordinal at col 1$"):
        parse_ordinal("x")
    with pytest.raises(CliSyntaxError, match=r"^expected an ordinal at col 3$"):
        parse("l[x]")
    assert parse_ordinal(" w ^ 2 * 3 + 1 ") == parse_ordinal("w^2*3+1")


def test_deep_ordinals_raise_nesting_too_deep():
    deep = "w^(" * 3000 + "1" + ")" * 3000
    with pytest.raises(NestingTooDeep):
        parse_ordinal(deep)
    piece = {"from": "0", "to": deep, "exp": "1"}
    payload = {"schema": "hyperlog/1", "kind": "series",
               "terms": [{"monomial": [piece], "coeff": "1"}], "bound": None}
    with pytest.raises(NestingTooDeep):
        series_from_json(payload)


def test_parse_frac_reads_format_frac_at_any_size():
    for c in (Fraction(0), Fraction(-7, 3), Fraction(3**9000),
              Fraction(-1, 5**7000), Fraction(2**20000 + 1, 3**5000)):
        assert parse_frac(format_frac(c)) == c
    for bad in ("", "-", "1/", "/2", "--1", "1.5", " 1", "1/-2", "1e3", "1/0"):
        with pytest.raises(ValueError):
            parse_frac(bad)


def test_ordinal_to_int():
    assert ordinal_to_int(ordinal(7)) == 7
    assert ordinal_to_int(ZERO) == 0


# --- oracle agreement (exhaustive below w^3) ----------------------------------

def test_compare_matches_oracle():
    codes = triples(4)
    values = {p: from_triple(p) for p in codes}
    for p in codes:
        for q in codes:
            assert ord_compare(values[p], values[q]) == oracle_compare(p, q), \
                (p, q)


def test_add_matches_oracle():
    codes = triples(4)
    values = {p: from_triple(p) for p in codes}
    for p in codes:
        for q in codes:
            expected = from_triple(oracle_add(p, q))
            assert ord_add(values[p], values[q]) == expected, (p, q)


def reference_compare(a, b):
    """The order of normal forms term by term: exponents, then coefficients,
    then the remainder, with a missing term losing."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = reference_compare(ea, eb)
        if c != EQ:
            return c
        if ca != cb:
            return LT if ca < cb else GT
    if len(a.terms) != len(b.terms):
        return LT if len(a.terms) < len(b.terms) else GT
    return EQ


def test_key_order_is_the_normal_form_walk():
    tower = [OMEGA, omega_pow(OMEGA), omega_pow(ord_add(OMEGA, ONE)),
             omega_pow(omega_pow(OMEGA)), ord_add(omega_pow(OMEGA), ONE)]
    values = [from_triple(p) for p in triples(4)] + tower
    for a in values:
        for b in values:
            assert ord_compare(a, b) == reference_compare(a, b), (a, b)


def test_sentinel_above_oracle_range():
    # w^w sits strictly above everything the oracle can code
    top = omega_pow(OMEGA)
    for p in triples(4):
        assert ord_compare(from_triple(p), top) == LT
    assert ord_add(from_triple((4, 4, 4)), top) == top


# --- property tests ------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(small_ordinals(), small_ordinals(), small_ordinals())
def test_add_associative(a, b, c):
    assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))


@settings(max_examples=60, deadline=None)
@given(small_ordinals(), small_ordinals())
def test_order_total_and_antisymmetric(a, b):
    c = ord_compare(a, b)
    assert c == reference_compare(a, b)
    assert c in (LT, EQ, GT)
    assert ord_compare(b, a) == -c
    assert (c == EQ) == (a == b)


@settings(max_examples=60, deadline=None)
@given(small_ordinals(), small_ordinals())
def test_add_weakly_monotone(a, b):
    s = ord_add(a, b)
    assert ord_compare(s, a) != LT
    assert ord_compare(s, b) != LT


@settings(max_examples=60, deadline=None)
@given(small_ordinals())
def test_format_parse_round_trip(a):
    assert parse_ordinal(format_ordinal(a)) == a


@settings(max_examples=60, deadline=None)
@given(small_ordinals())
def test_omega_pow_strictly_monotone(a):
    assert ord_compare(omega_pow(a), omega_pow(ord_add(a, ONE))) == LT
    assert ord_compare(a, omega_pow(a)) != GT
