"""The shared eps power series behind the inverse, the logarithm and the power.

ser_mul_inverse, ser_log and ser_pow each sum t_0 = first,
t_k = ratio(k) * t_(k-1) * eps through series._eps_sum.  The references
below are the three earlier hand-written expansions, each with its own floor
and its own pairwise-merged truncated sum; the library must agree with them
exactly on random series in x and l[1], fractional exponents, bounds and
bound-only tails included.  Budgets stay at 6 or less.
"""
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlog import (IrrationalConstantPower, NotPositive, Precision, X,
                      hyperlog, make_series, mono_pow, ordinal, ser_add,
                      ser_log, ser_mul, ser_mul_inverse, ser_neg, ser_pow,
                      ser_scale)
from hyperlog import series
from hyperlog.monomial import LT, mono_compare, mono_mul
from hyperlog.series import (S_ONE, S_ZERO, Series, _eps_sum, _join_bounds,
                             _split_dominant, is_exact_zero, log_monomial,
                             rational_pow, ser_mul_mono)

L1 = hyperlog(ordinal(1))
# x^(i/6)*l[1]^j: halves and thirds of x meet, so products merge and cancel
MONOS = [mono_mul(mono_pow(X, Fraction(i, 6)), mono_pow(L1, j))
         for i in range(-12, 13, 2) for j in (-1, 0, 1)] + \
        [mono_mul(mono_pow(X, Fraction(i, 2)), mono_pow(L1, Fraction(1, 2)))
         for i in (-1, 1)]
COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
          Fraction(-2, 3), Fraction(5, 4)]


# --- the earlier expansions, kept as references ---------------------------------

def ref_add(a, b):
    return make_series(a.terms + b.terms, _join_bounds(a.bound, b.bound))


def ref_with_bound(a, bound):
    if bound is None:
        return a
    return make_series(a.terms, _join_bounds(a.bound, bound))


def ref_truncated_sum(terms, budget):
    acc = S_ZERO
    for n, t in enumerate(terms, 1):
        if is_exact_zero(t):
            break
        acc = t if n == 1 else ref_add(acc, t)
        if not t.terms:
            break
        if n == budget:
            return ref_with_bound(acc, t.terms[0][0])
    return acc


def ref_mul_inverse(a, prec):
    m, c, eps = _split_dominant(a)
    if is_exact_zero(eps):
        return series.from_monomial(mono_pow(m, -1), Fraction(1) / c)
    pre = None
    if eps.terms and prec.budget > 1:
        pre = mono_pow(eps.terms[0][0], prec.budget - 1)

    def powers():
        t = S_ONE
        while True:
            yield t
            t = ser_neg(ser_mul(t, eps, pre))

    return ser_mul_mono(ref_truncated_sum(powers(), prec.budget),
                        mono_pow(m, -1), Fraction(1) / c)


def ref_log(a, prec):
    m, c = series._check_positive_leading(a)
    if c != 1:
        raise series.NonMonicLog("leading coefficient is not 1")
    _, _, eps = _split_dominant(a)
    out = log_monomial(m, prec)
    if is_exact_zero(eps):
        return out
    pre = mono_pow(eps.terms[0][0], prec.budget) if eps.terms else None

    def terms():
        t = S_ONE
        for n in count(1):
            t = ser_mul(t, eps, pre)
            yield ser_scale(t, Fraction((-1) ** (n - 1), n))

    return ref_add(out, ref_truncated_sum(terms(), prec.budget))


def ref_pow(a, t, prec, floor=None):
    t = Fraction(t)
    m, c = series._check_positive_leading(a)
    ct = rational_pow(c, t)
    if ct is None:
        raise IrrationalConstantPower("irrational")
    _, _, eps = _split_dominant(a)
    if is_exact_zero(eps):
        return ref_with_bound(series.from_monomial(mono_pow(m, t), ct), floor)
    terminating = t.denominator == 1 and 0 <= t <= prec.budget
    pre = None
    if eps.terms and not terminating:
        pre = mono_pow(eps.terms[0][0], prec.budget)
    if floor is not None:
        pre = _join_bounds(pre, mono_mul(floor, mono_pow(m, -t)))

    def terms():
        yield S_ONE
        p = S_ONE
        coeff = Fraction(1)
        for n in count(1):
            coeff = coeff * (t - (n - 1)) / n
            if coeff == 0:
                return
            p = ser_mul(p, eps, pre)
            yield ser_scale(p, coeff)

    return ref_with_bound(ser_mul_mono(ref_truncated_sum(terms(), prec.budget + 1),
                                       mono_pow(m, t), ct), floor)


# --- random operands -----------------------------------------------------------

@st.composite
def positive_series(draw, lead_coeffs=(Fraction(1),)):
    """A leading term and up to five smaller terms, with no bound, a bound
    below the tail, or only a bound behind the leading term."""
    lead = draw(st.sampled_from(MONOS))
    below = [m for m in MONOS if mono_compare(m, lead) == LT]
    terms = [(lead, draw(st.sampled_from(lead_coeffs)))]
    if below:
        tail = draw(st.lists(st.sampled_from(below), max_size=5, unique=True))
        kind = draw(st.sampled_from(["exact", "bounded", "bound only"]))
        if kind == "bound only":
            return Series(tuple(terms), draw(st.sampled_from(below)))
        terms += [(m, draw(st.sampled_from(COEFFS))) for m in tail]
        if kind == "bounded":
            return make_series(terms, draw(st.sampled_from(below)))
    return make_series(terms)


def canonical(s):
    """Strictly descending, no zero coefficient, nothing below the bound."""
    keys = [m.key for m, _ in s.terms]
    assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)
    assert all(type(c) is Fraction and c for _, c in s.terms)
    if s.bound is not None:
        assert all(k >= s.bound.key for k in keys)
    return True


def outcome(f, *args):
    """The value, or the type of the typed error raised."""
    try:
        return f(*args)
    except (IrrationalConstantPower, NotPositive, series.NonMonicLog) as err:
        return type(err)


BUDGETS = st.integers(min_value=1, max_value=6)


@settings(max_examples=150, deadline=None)
@given(positive_series(tuple(COEFFS)), BUDGETS)
def test_inverse_matches_the_geometric_expansion(a, budget):
    prec = Precision(budget)
    got = ser_mul_inverse(a, prec)
    assert got == ref_mul_inverse(a, prec) and canonical(got)


@settings(max_examples=150, deadline=None)
@given(positive_series(), BUDGETS)
def test_log_matches_the_logarithm_expansion(a, budget):
    prec = Precision(budget)
    got = ser_log(a, prec)
    assert got == ref_log(a, prec) and canonical(got)


@settings(max_examples=300, deadline=None)
@given(positive_series((Fraction(1), Fraction(4), Fraction(9, 4),
                        Fraction(-1))), BUDGETS, st.data())
def test_pow_matches_the_binomial_expansion(a, budget, data):
    exps = [-2, -1, Fraction(-1, 2), 0, Fraction(1, 3), 1, 2,
            budget - 1, budget, budget + 1]
    t = Fraction(data.draw(st.sampled_from(exps)))
    floor = data.draw(st.one_of(st.none(), st.sampled_from(MONOS)))
    prec = Precision(budget)
    got = outcome(ser_pow, a, t, prec, floor)
    assert got == outcome(ref_pow, a, t, prec, floor)
    if isinstance(got, Series):
        assert canonical(got)


@settings(max_examples=100, deadline=None)
@given(st.lists(positive_series(tuple(COEFFS)), max_size=5), st.data())
def test_add_of_many_parts_is_the_pairwise_fold(parts, data):
    if parts:  # negated copies make whole terms cancel across parts
        copies = data.draw(st.lists(st.sampled_from(parts), max_size=2))
        parts += [ser_neg(p) for p in copies]
    fold = S_ZERO
    for p in parts:
        fold = ref_add(fold, p)
    got = ser_add(*parts)
    assert got == fold and canonical(got)


# --- the floor rule ------------------------------------------------------------

@contextmanager
def recorded_products():
    """Record every product that series._eps_sum forms through ser_mul."""
    formed = []

    def spy(a, b, floor=None):
        formed.append(ser_mul(a, b, floor))
        return formed[-1]

    series.ser_mul = spy
    try:
        yield formed
    finally:
        series.ser_mul = ser_mul


@settings(max_examples=150, deadline=None)
@given(positive_series(tuple(COEFFS)), BUDGETS,
       st.sampled_from(["inverse", "log", "binomial"]))
def test_eps_sum_forms_nothing_below_its_floor(a, n, kind):
    """Every product the sum forms lies at or above
    dom(first) * dom(eps)^(n-1), and the sum closes exactly there."""
    _, _, eps = _split_dominant(a)
    if not eps.terms:
        return
    first, ratio = {
        "inverse": (S_ONE, lambda k: -1),
        "log": (eps, lambda k: Fraction(-k, k + 1)),
        "binomial": (S_ONE, lambda k: (Fraction(1, 2) - (k - 1)) / k),
    }[kind]
    floor = mono_mul(first.terms[0][0], mono_pow(eps.terms[0][0], n - 1))
    with recorded_products() as products:
        out = _eps_sum(first, eps, ratio, n)
    for p in products:
        assert all(mono_compare(m, floor) != LT for m, _ in p.terms)
    if n > 1:
        assert mono_compare(out.bound, floor) != LT


def test_natural_powers_within_the_budget_stay_exact():
    a = ser_add(series.from_monomial(X), S_ONE)
    for t in range(6):
        assert ser_pow(a, t, Precision(6)).bound is None


# --- a budget far past any sum -----------------------------------------------------

HUGE = r"""
import sys, resource
from fractions import Fraction
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from hyperlog import Precision, format_value, ser_log, ser_mul_inverse, ser_pow
from hyperlog.cli import eval_text
prec = Precision(sys.maxsize - 1)
a = eval_text("x + O(1)")
for v in (ser_pow(a, Fraction(1, 2), prec), ser_log(a, prec),
          ser_mul_inverse(a, prec)):
    print(format_value(v))
"""


def test_bound_only_tails_answer_at_once_at_a_huge_budget():
    """Each sum ends at its bound-only second term, so no ratio past it is
    ever formed; a list of budget ratios would exhaust the memory limit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
            __file__))), "src")] + sys.path))
    out = subprocess.run([sys.executable, "-c", HUGE], env=env, timeout=60,
                         check=True, text=True, stdout=subprocess.PIPE).stdout
    assert out.splitlines() == ["x^(1/2) + O(x^(-1/2))", "l[1] + O(x^-1)",
                                "x^-1 + O(x^-2)"]
