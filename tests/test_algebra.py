import dataclasses
import math
import operator
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hyperbern import algebra
from hyperbern.algebra import (
    BiPoly,
    PowerSeries,
    UniPoly,
    bipoly_shift_s,
    bipoly_subst_s,
    format_rational,
    parse_rational,
    poly_combination,
    poly_derivative,
    poly_eval,
    poly_integral_weighted,
    series_invert,
    series_mul,
    series_pow,
    series_truncate,
)
from hyperbern.core import HBPolyTable, hb_order_step, hb_polys, normalized_denominator
from oracles import (
    FractionPoly,
    beta_moment,
    bipoly_shift_s_fractions,
    bipoly_subst_s_fractions,
    bipoly_subst_x,
    pochhammer,
    poly_derivative_fractions,
    poly_eval_fractions,
    poly_integral_weighted_fractions,
    series,
    series_invert_fractions,
    series_mul_fractions,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


# --- rationals -------------------------------------------------------------


@given(rationals)
def test_rational_string_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "a/b", "1/-2", "1//2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


# --- univariate polynomials ------------------------------------------------


def test_unipoly_canonical_form():
    assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert UniPoly((0, 0)).coeffs == ()
    assert UniPoly(()).degree is None
    assert UniPoly((0, 1)).degree == 1


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/3", "2"])
@pytest.mark.parametrize(
    "build",
    [
        lambda c: UniPoly((c, 1)),
        lambda c: PowerSeries.of(UniPoly((c, 1)), 1),
        lambda c: BiPoly(((1,), (c, 1))),
    ],
    ids=["UniPoly", "PowerSeries", "BiPoly"],
)
def test_constructors_take_exact_coefficients_only(build, bad):
    # a float (even an exact binary one like 0.5) or a string is not coerced
    with pytest.raises(TypeError):
        build(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda v: poly_eval(UniPoly((1, 2)), v),
        lambda v: bipoly_subst_s(BiPoly(((1, 2), (3,))), v),
        lambda v: bipoly_shift_s(BiPoly(((1, 2), (3,))), v),
    ],
    ids=["poly_eval", "bipoly_subst_s", "bipoly_shift_s"],
)
@pytest.mark.parametrize("bad", [0.5, 0.0, "1"])
def test_scalar_arguments_take_the_constructors_rule(call, bad):
    # the TypeError UniPoly's constructor raises, not an AttributeError
    with pytest.raises(TypeError) as want:
        UniPoly((bad,))
    with pytest.raises(TypeError, match=re.escape(str(want.value))):
        call(bad)


def test_poly_eval_cases():
    b2 = UniPoly((Fraction(1, 6), -1, 1))  # x^2 - x + 1/6
    assert poly_eval(b2, 0) == Fraction(1, 6)
    assert poly_eval(UniPoly(()), 7) == 0
    assert poly_eval(UniPoly((-1, 1)), 1) == 0


def test_poly_derivative_cases():
    assert poly_derivative(UniPoly((0, 0, 0, 1))) == UniPoly((0, 0, 3))
    assert poly_derivative(UniPoly((5,))) == UniPoly(())
    # d/dx (x^2 - x + 1/6) = 2x - 1 = 2 * (x - 1/2)
    assert poly_derivative(UniPoly((Fraction(1, 6), -1, 1))) == UniPoly((-1, 2))


def test_poly_integral_weighted_cases():
    one = UniPoly((1,))
    assert poly_integral_weighted(one, 3) == Fraction(1, 3)
    assert poly_integral_weighted(one, 1) == 1
    assert poly_integral_weighted(UniPoly((Fraction(-1, 2), 1)), 1) == 0


@pytest.mark.parametrize("n_weight", range(1, 9))
def test_poly_integral_weighted_constant(n_weight):
    assert poly_integral_weighted(UniPoly((1,)), n_weight) == Fraction(1, n_weight)


@given(st.lists(rationals, max_size=6), st.integers(min_value=1, max_value=6))
def test_poly_integral_weighted_vs_beta_moments(coeffs, n_weight):
    p = UniPoly(tuple(coeffs))
    expected = sum(
        (c * beta_moment(k, n_weight) for k, c in enumerate(p.coeffs)), Fraction(0)
    )
    assert poly_integral_weighted(p, n_weight) == expected


@given(st.lists(rationals, max_size=8))
def test_derivative_then_antiderivative(coeffs):
    p = UniPoly(tuple(coeffs))
    d = poly_derivative(p)
    anti = UniPoly((Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(d.coeffs)))
    constant = UniPoly(p.coeffs[:1])
    assert anti == p - constant


# --- integer UniPoly against the Fraction reference ------------------------

# zeros come often, so coefficients vanish inside and at the end of a list
poly_terms = st.lists(st.one_of(st.just(Fraction(0)), rationals), max_size=6)
scalars = st.one_of(st.integers(min_value=-30, max_value=30), rationals)


def assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.nums)
    if p.nums:
        assert p.nums[-1] != 0
        assert math.gcd(p.den, *p.nums) == 1
    else:
        assert p.den == 1


@given(poly_terms, poly_terms, scalars, rationals)
@example([], [Fraction(1, 2)], 0, Fraction(3))
@example([Fraction(2, 3), 0, Fraction(-4, 9)], [Fraction(3, 2), 0, 0, 6], Fraction(-9, 4), 0)
@example([Fraction(1, 3), 1], [Fraction(-1, 3), -1], 3, Fraction(-1, 2))
def test_unipoly_matches_fraction_reference(a, b, c, v):
    p, q = UniPoly(tuple(a)), UniPoly(tuple(b))
    fp, fq = FractionPoly(tuple(a)), FractionPoly(tuple(b))
    results = [
        (p, fp),
        (p + q, fp + fq),
        (p - q, fp - fq),
        (-p, -fp),
        (p * q, fp * fq),
        (p * c, fp * c),
        (c * p, c * fp),
        (poly_derivative(p), poly_derivative_fractions(fp)),
    ]
    if c:
        results.append((p / c, fp * (1 / Fraction(c))))
    for got, want in results:
        assert_canonical(got)
        assert got.coeffs == want.coeffs
    assert poly_eval(p, v) == poly_eval_fractions(fp, v)
    for n_weight in range(1, 5):
        assert poly_integral_weighted(p, n_weight) == poly_integral_weighted_fractions(fp, n_weight)


def test_unipoly_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        UniPoly((1, 2)) / 0


@given(poly_terms, poly_terms, st.integers(min_value=1, max_value=60))
@example([1, 2], [Fraction(2, 2), Fraction(4, 2)], 6)
@example([], [0, 0], 5)
def test_unipoly_equality_is_coefficient_equality(a, b, k):
    p, q = UniPoly(tuple(a)), UniPoly(tuple(b))
    assert (p == q) == (p.coeffs == q.coeffs)
    if p == q:
        assert hash(p) == hash(q)
    # the same polynomial over a k-fold denominator, with trailing zero numerators
    same = UniPoly.from_integers([k * c for c in p.nums] + [0, 0], k * p.den)
    assert_canonical(same)
    assert same == p and hash(same) == hash(p) and same.coeffs == p.coeffs


@given(st.lists(st.tuples(scalars, poly_terms), max_size=5))
@example([])
@example([(0, [1, 2]), (Fraction(3, 2), []), (Fraction(0), [Fraction(1, 7)])])
@example([(1, [1, Fraction(1, 2)]), (Fraction(-1, 2), [2, 1])])
@example([(Fraction(-7, 3), [1, 2, 3, 4, 5]), (Fraction(5, 6), [Fraction(1, 9)]), (-4, [0, 1])])
def test_poly_combination_matches_fraction_sum(terms):
    # empty input, zero weights and polynomials, cancellation, negative and
    # non-integer weights, terms of unequal length
    got = poly_combination((c, UniPoly(tuple(cs))) for c, cs in terms)
    want = FractionPoly()
    for c, cs in terms:
        want = want + c * FractionPoly(tuple(cs))
    assert_canonical(got)
    assert got.coeffs == want.coeffs


def test_unipoly_is_immutable_and_round_trips():
    p = UniPoly((Fraction(1, 6), -1, 1))
    assert (p.nums, p.den) == ((1, -6, 6), 6)
    with pytest.raises(AttributeError):
        p.den = 1
    with pytest.raises(AttributeError):
        del p.nums
    assert pickle.loads(pickle.dumps(p)) == p
    with pytest.raises(ValueError):
        UniPoly.from_integers((1, 2), 0)


@pytest.mark.parametrize(
    "op",
    [
        lambda p: p * 0.5,
        lambda p: 0.5 * p,
        lambda p: p / 0.5,
        lambda p: p + 1,
        lambda p: 1 + p,
        lambda p: p - Fraction(1, 2),
        lambda p: p * "2",
    ],
)
def test_unipoly_operators_refuse_inexact_operands(op):
    # like the constructors: a float, a bare scalar sum or a string is a TypeError
    with pytest.raises(TypeError):
        op(UniPoly((1, 2)))


def test_unipoly_operators_take_exact_scalars():
    p = UniPoly((1, 2))
    assert p * 2 == 2 * p == UniPoly((2, 4))
    assert p / 3 == UniPoly((Fraction(1, 3), Fraction(2, 3)))
    assert p * Fraction(1, 3) == p / 3


# --- bivariate polynomials -------------------------------------------------


def test_bipoly_subst_s_cases():
    sx = BiPoly(((0, 0), (0, 1)))  # s*x
    assert bipoly_subst_s(sx, 2) == UniPoly((0, 2))
    s_minus_1 = BiPoly(((-1, 1),))
    assert bipoly_subst_s(s_minus_1, 1).is_zero


def test_bipoly_canonical_trim():
    a = BiPoly(((1, 0, 0), (0, 0, 0)))
    assert a.rows == (UniPoly((1,)),)
    assert BiPoly(((0, 0),)).is_zero
    assert BiPoly(((0, 0),)).rows == ()
    # rows keep their own length, trailing zero rows and columns cut; the
    # s-degree is that of the longest row
    assert BiPoly(((1,), (0, 2))).rows == (UniPoly((1,)), UniPoly((0, 2)))
    assert BiPoly(((1,), (0, 2))).s_degree == 1
    assert BiPoly(((0, 3, 0), (), (0, 0), ())).rows == (UniPoly((0, 3)),)
    assert BiPoly(((), (5,))).rows == (UniPoly(), UniPoly((5,)))
    assert all(type(r) is UniPoly for r in BiPoly(((1,), (0, 2))).rows)
    a, b = BiPoly(((1, 0), (2,), ())), BiPoly(((1,), (Fraction(4, 2), 0)))
    assert a == b and hash(a) == hash(b)
    assert BiPoly(((1,), (2,))) != BiPoly(((1, 2),))


# zero terms come often, so rows vanish inside and at the end, and so do
# columns; the empty list is the zero polynomial
bipolys = st.lists(
    st.lists(st.one_of(st.just(Fraction(0)), rationals), max_size=4), max_size=4
).map(lambda rows: BiPoly(tuple(map(tuple, rows))))


def at(a, x, s):
    return poly_eval(bipoly_subst_x(a, x), s)


@given(bipolys, rationals, rationals)
@example(BiPoly(), Fraction(-1, 2), Fraction(2))
@example(BiPoly(((1, 0), (0, 0), (0, 1))), 1, 1)
def test_bipoly_subst_s_evaluates_pointwise(a, x, s):
    assert poly_eval(bipoly_subst_s(a, s), x) == at(a, x, s)


@given(
    st.lists(st.lists(rationals, min_size=1, max_size=4), min_size=1, max_size=4),
    rationals,
    rationals,
    rationals,
)
def test_bipoly_shift_s_matches_direct_eval(rows, offset, x0, s0):
    a = BiPoly(tuple(tuple(r) for r in rows))
    shifted = bipoly_shift_s(a, offset)
    lhs = poly_eval(bipoly_subst_x(shifted, x0), s0)
    rhs = poly_eval(bipoly_subst_x(a, x0), s0 + offset)
    assert lhs == rhs


@given(bipolys, rationals, rationals)
@example(BiPoly(((1, 2, 3), (), (0, Fraction(-1, 2)))), Fraction(-5, 2), Fraction(2, 3))
@example(BiPoly(((Fraction(1, 3), 0, 1),)), Fraction(7), Fraction(0))
def test_bipoly_shift_and_subst_match_fraction_reference(a, offset, s):
    rows = [FractionPoly(r.coeffs) for r in a.rows]
    shifted = bipoly_shift_s(a, offset)
    for row in shifted.rows:
        assert_canonical(row)
    assert [r.coeffs for r in shifted.rows] == [
        r.coeffs for r in bipoly_shift_s_fractions(rows, offset)
    ]
    got = bipoly_subst_s(a, s)
    assert_canonical(got)
    assert got.coeffs == bipoly_subst_s_fractions(rows, s).coeffs


def test_bipoly_subst_x_at_zero_takes_first_row():
    a = BiPoly(((1, 2), (3, 4)))
    assert bipoly_subst_x(a, 0) == UniPoly((1, 2))


# --- power series ----------------------------------------------------------


def test_series_mul_cases():
    assert series_mul(series([1, 1, 0]), series([1, -1, 0])).coeffs == (1, 0, -1)
    a = series([2, 3, 5])
    assert series_mul(a, PowerSeries.one(2)) == a
    e3 = series([1, 1, Fraction(1, 2), Fraction(1, 6)])  # e**t through t**3
    ee = series_mul(e3, e3)
    assert ee.coeffs == (1, 2, 2, Fraction(4, 3))


def test_series_mul_min_order():
    assert series_mul(series([1, 1, 1]), series([1, 1])).order == 1


def test_series_invert_geometric():
    assert series_invert(series([1, 1, 0, 0])).coeffs == (1, -1, 1, -1)
    assert series_invert(PowerSeries.one(3)) == PowerSeries.one(3)


def test_series_invert_known_table():
    a = series([1, Fraction(1, 3), Fraction(1, 12), Fraction(1, 60)])
    assert series_invert(a).coeffs == (
        1,
        Fraction(-1, 3),
        Fraction(1, 36),
        Fraction(1, 540),
    )


def test_series_invert_needs_unit():
    with pytest.raises(ZeroDivisionError):
        series_invert(series([0, 1]))


@given(st.lists(rationals, min_size=1, max_size=8))
def test_series_invert_is_right_inverse(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    a = series(coeffs)
    assert series_mul(a, series_invert(a)) == PowerSeries.one(a.order)


@given(st.lists(rationals, min_size=1, max_size=6), st.integers(min_value=0, max_value=8))
def test_series_pow_matches_repeated_mul(coeffs, r):
    a = series(coeffs)
    by_fold = PowerSeries.one(a.order)
    for _ in range(r):
        by_fold = series_mul(by_fold, a)
    assert series_pow(a, r) == by_fold


def test_series_pow_cases():
    a = series([1, 1, 0])
    assert series_pow(a, 0) == PowerSeries.one(2)
    assert series_pow(a, 1) == a
    assert series_pow(a, 2).coeffs == (1, 2, 1)


@pytest.mark.parametrize("r", range(9))
def test_series_pow_product_count(monkeypatch, r):
    # floor(log2 r) + popcount(r) - 1 products, none for r <= 1
    calls = []

    def counting_mul(a, b):
        calls.append(1)
        return series_mul(a, b)

    monkeypatch.setattr(algebra, "series_mul", counting_mul)
    series_pow(series([1, 2, 3, 4]), r)
    expected = 0 if r <= 1 else r.bit_length() - 1 + bin(r).count("1") - 1
    assert len(calls) == expected


# --- integer series kernels against the Fraction references ----------------

# zeros come often, so coefficients vanish inside a series as well as at its
# start; constant terms may be negative or non-integer
series_terms = st.one_of(st.just(Fraction(0)), rationals)


@given(
    st.lists(series_terms, min_size=1, max_size=8),
    st.lists(series_terms, min_size=1, max_size=8),
)
@example([Fraction(-3), 0, Fraction(1, 2)], [Fraction(2, 3)])
@example([Fraction(2, 3), 0, 0, Fraction(-5, 7)], [Fraction(-1, 4), 1, 0, 3, 0, 2])
def test_series_mul_matches_fraction_reference(a_coeffs, b_coeffs):
    a, b = series(a_coeffs), series(b_coeffs)
    assert series_mul(a, b) == series_mul_fractions(a, b)


@given(rationals.filter(bool), st.lists(series_terms, max_size=8))
@example(Fraction(-3), [])
@example(Fraction(2, 3), [0, Fraction(-1, 5), 0, 1])
@example(Fraction(-2, 3), [1, 0, 0, Fraction(7, 4)])
def test_series_invert_matches_fraction_reference(lead, rest):
    a = series([lead, *rest])
    assert series_invert(a) == series_invert_fractions(a)


@given(st.lists(series_terms, min_size=1, max_size=6), st.integers(min_value=0, max_value=6))
@example([Fraction(-2, 3), 0, 1], 3)
@example([Fraction(5)], 4)
def test_series_pow_matches_fraction_reference(coeffs, r):
    a = series(coeffs)
    expected = PowerSeries.one(a.order)
    for _ in range(r):
        expected = series_mul_fractions(expected, a)
    assert series_pow(a, r) == expected


def assert_series_invariants(a):
    assert_canonical(a.poly)
    assert a.poly.degree is None or a.poly.degree <= a.order
    assert len(a.coeffs) == a.order + 1
    assert all(type(c) is Fraction for c in a.coeffs)


# a few values, so that equal series come up often
few_terms = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)])


@given(
    st.lists(few_terms, min_size=1, max_size=5),
    st.lists(few_terms, min_size=1, max_size=5),
    st.integers(min_value=0, max_value=3),
)
@example([Fraction(1)], [Fraction(1)], 2)
@example([Fraction(0)], [Fraction(0), Fraction(0)], 0)
def test_power_series_invariants(a_coeffs, b_coeffs, zeros):
    a = series(tuple(a_coeffs) + (0,) * zeros)  # trailing zeros keep the order
    b = series(b_coeffs)
    assert a.order == len(a_coeffs) + zeros - 1
    assert a.coeffs == tuple(a_coeffs) + (0,) * zeros
    for s in (a, b, series_mul(a, b), series_pow(a, 2), series_truncate(a, 0)):
        assert_series_invariants(s)
    if a.coeffs[0]:
        assert_series_invariants(series_invert(a))
    # equality and hashing are those of the coefficient tuples
    assert (a == b) == (a.coeffs == b.coeffs)
    if a == b:
        assert hash(a) == hash(b)
    same = PowerSeries.of(UniPoly(a.coeffs), a.order)
    assert same == a and hash(same) == hash(a)
    assert pickle.loads(pickle.dumps(a)) == a
    for field, value in (("poly", UniPoly()), ("order", a.order + 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field, value)


def test_power_series_needs_a_constant_term():
    with pytest.raises(ValueError):
        PowerSeries.of(UniPoly(), -1)


def fractions_built(monkeypatch, fn, *args) -> int:
    """How many Fractions one call fn(*args) builds.

    From Python 3.12 on, Fraction arithmetic builds its results through the
    private classmethod ``_from_coprime_ints``, which bypasses ``__new__``,
    so that is counted too where it exists.
    """
    built = []
    new = Fraction.__new__

    def counting_new(cls, *a, **k):
        built.append(1)
        return new(cls, *a, **k)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in vars(Fraction):
        from_coprime = vars(Fraction)["_from_coprime_ints"].__func__

        def counting_from_coprime(cls, *a):
            built.append(1)
            return from_coprime(cls, *a)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_from_coprime))
    fn(*args)
    monkeypatch.undo()
    return len(built)


def test_series_mul_builds_one_fraction_per_coefficient(monkeypatch):
    # work count: Fraction arithmetic term by term would build 1,023 here
    a = series([Fraction((-1) ** k * (k + 2), 3 * k + 1) for k in range(31)])
    b = series([Fraction(7, k + 1) for k in range(41)])
    assert fractions_built(monkeypatch, series_mul, a, b) <= a.order + 1


def test_series_invert_builds_one_fraction_per_coefficient(monkeypatch):
    # work count: Fraction arithmetic term by term would build 1,761 here
    b = series([Fraction(7, k + 1) for k in range(41)])
    assert fractions_built(monkeypatch, series_invert, b) <= b.order + 1


def test_series_kernels_build_no_fraction(monkeypatch):
    # every kernel stays on integer numerators; only reading coeffs builds Fractions
    a = series([Fraction((-1) ** k * (k + 2), 3 * k + 1) for k in range(31)])
    b = series([Fraction(7, k + 1) for k in range(41)])
    calls = [
        (series_mul, a, b),
        (series_invert, b),
        (series_pow, a, 3),
        (series_truncate, b, 20),
        (normalized_denominator, 3, 40),
    ]
    for fn, *args in calls:
        assert fractions_built(monkeypatch, fn, *args) == 0, fn


def test_unipoly_arithmetic_builds_no_fraction(monkeypatch):
    # work count: Fraction arithmetic term by term would build hundreds here
    p = UniPoly(tuple(Fraction((-1) ** k * (k + 2), 3 * k + 1) for k in range(12)))
    q = UniPoly(tuple(Fraction(7, k + 1) for k in range(9)))
    c = Fraction(-3, 4)
    calls = [
        (operator.add, p, q),
        (operator.sub, p, q),
        (operator.neg, p),
        (operator.mul, p, q),
        (operator.mul, p, 6),
        (operator.mul, p, c),
        (operator.truediv, p, c),
        (poly_derivative, p),
    ]
    for fn, *args in calls:
        assert fractions_built(monkeypatch, fn, *args) == 0, fn


def test_poly_combination_builds_no_fraction(monkeypatch):
    p = UniPoly(tuple(Fraction((-1) ** k * (k + 2), 3 * k + 1) for k in range(12)))
    q = UniPoly(tuple(Fraction(7, k + 1) for k in range(9)))
    terms = [(Fraction(-3, 4), p), (Fraction(5, 7), q), (2, p), (Fraction(0), q), (-1, UniPoly())]
    assert fractions_built(monkeypatch, poly_combination, terms) == 0


def test_poly_eval_builds_one_fraction(monkeypatch):
    p = UniPoly(tuple(Fraction(7, k + 1) for k in range(9)))
    assert fractions_built(monkeypatch, poly_eval, p, Fraction(-2, 5)) == 1
    assert fractions_built(monkeypatch, poly_eval, p, 3) == 1


def test_hb_order_step_builds_no_fraction(monkeypatch):
    table = hb_polys(3, 12)
    order2 = HBPolyTable(3, 2, tuple(hb_order_step(table, n) for n in range(13)))
    for t in (table, order2):
        assert fractions_built(monkeypatch, hb_order_step, t, 12) == 0


def test_series_truncate():
    a = series([1, 2, 3])
    assert series_truncate(a, 1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        series_truncate(a, 5)


def test_pochhammer_cases():
    assert pochhammer(Fraction(7, 3), 0) == 1
    assert pochhammer(1, 4) == 24
    assert pochhammer(3, 2) == 12


@given(st.lists(rationals, min_size=1, max_size=6), st.lists(rationals, min_size=1, max_size=6))
def test_results_are_canonically_reduced(a_coeffs, b_coeffs):
    prod = series_mul(series(a_coeffs), series(b_coeffs))
    for c in prod.coeffs:
        assert math.gcd(c.numerator, c.denominator) == 1
        assert c.denominator > 0
