import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbern import algebra, core
from hyperbern.algebra import (
    UniPoly,
    bipoly_subst_s,
    poly_derivative,
    poly_eval,
    poly_integral_weighted,
)
from hyperbern.core import (
    HBPolyTable,
    a_poly,
    a_poly_at_zero,
    hb_higher_numbers,
    hb_higher_polys_recurrence,
    hb_higher_polys_series,
    hb_numbers,
    hb_order_step,
    hb_polys,
    mult_operator_apply,
    normalized_denominator,
)
from hyperbern.identities import perturbed_numbers
from oracles import (
    CLASSICAL_BERNOULLI_POLYS,
    a_tables_sympy,
    bipoly_subst_x,
    classical_bernoulli,
    hb_higher_polys_recurrence_fractions,
    hb_numbers_by_inversion,
    hb_polys_sympy,
    pochhammer,
    series_invert_fractions,
)


# --- normalized denominator series ------------------------------------------


def test_normalized_denominator_level_one():
    nd = normalized_denominator(1, 3)
    assert nd.coeffs == (1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))


def test_normalized_denominator_level_two():
    nd = normalized_denominator(2, 3)
    assert nd.coeffs == (1, Fraction(1, 3), Fraction(1, 12), Fraction(1, 60))


@pytest.mark.parametrize("level", range(1, 7))
def test_normalized_denominator_factorial_ratio(level):
    nd = normalized_denominator(level, 40)
    for k, c in enumerate(nd.coeffs):
        assert c == Fraction(math.factorial(level), math.factorial(level + k))


@pytest.mark.parametrize("level", range(1, 5))
def test_normalized_denominator_hypergeometric_coefficients(level):
    # coefficient k is (1)_k / (level+1)_k / k!
    nd = normalized_denominator(level, 40)
    for k, c in enumerate(nd.coeffs):
        assert c == pochhammer(1, k) / pochhammer(level + 1, k) / math.factorial(k)


def test_normalized_denominator_rejects_bad_args():
    with pytest.raises(ValueError):
        normalized_denominator(0, 5)
    with pytest.raises(ValueError):
        normalized_denominator(1, -1)


# --- number tables -----------------------------------------------------------


def test_numbers_level_one_match_classical():
    table = hb_numbers(1, 30)
    assert list(table.values) == classical_bernoulli(30)


def test_numbers_level_one_frozen_values():
    assert hb_numbers(1, 4).values == (
        1,
        Fraction(-1, 2),
        Fraction(1, 6),
        0,
        Fraction(-1, 30),
    )


def test_numbers_level_two_frozen_values():
    assert hb_numbers(2, 3).values == (
        1,
        Fraction(-1, 3),
        Fraction(1, 18),
        Fraction(1, 90),
    )


@pytest.mark.parametrize("level", range(1, 11))
def test_number_table_head(level):
    table = hb_numbers(level, 1)
    assert table.values[0] == 1
    assert table.values[1] == Fraction(-1, level + 1)


def test_numbers_reject_bad_args():
    with pytest.raises(ValueError, match="level N must be >= 1"):
        hb_numbers(0, 5)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        hb_numbers(1, -1)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=60))
def test_numbers_match_series_inversion(level, n_max):
    values = hb_numbers(level, n_max).values
    assert list(values) == hb_numbers_by_inversion(level, n_max)
    assert all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("level", (1, 3, 7))
def test_integer_inversion_of_the_denominator_series(level):
    # the series route's own input: coefficients over a common denominator
    # of hundreds of digits
    d = normalized_denominator(level, 120)
    assert algebra.series_invert(d) == series_invert_fractions(d)


def test_hb_numbers_carries_the_binomial_row(monkeypatch):
    # work count: the binomial row is carried from step to step, not
    # recomputed by math.comb per term (80,600 calls at (3, 400))
    calls = []
    comb = math.comb

    def counting_comb(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(math, "comb", counting_comb)
    hb_numbers(3, 400)
    assert len(calls) <= 3 + 2


def test_numbers_match_sympy_series():
    # an oracle outside the package: n! [t^n] of (t^N/N!) / (e^t - T_{N-1}(t)),
    # T_{N-1} the degree-(N-1) Taylor polynomial of e^t, expanded by sympy's
    # ring series over QQ
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.ring_series import rs_exp, rs_series_inversion, rs_trunc
    from sympy.polys.rings import ring

    _, t = ring("t", QQ)
    for level in range(1, 6):
        e = rs_exp(t, t, 41 + level)
        # N! (e^t - T_{N-1}(t)) / t^N, whose reciprocal is the series above
        d = (e - rs_trunc(e, t, level)).exquo(t**level) * math.factorial(level)
        series = rs_series_inversion(d, t, 41)
        for n, value in enumerate(hb_numbers(level, 40).values):
            expected = series.coeff(t**n) * math.factorial(n)
            assert value == Fraction(int(expected.numerator), int(expected.denominator)), (
                level,
                n,
            )


@pytest.mark.parametrize(
    "r,n_max,build",
    [(1, 8, lambda N, r, n_max: hb_polys(N, n_max)), (2, 6, hb_higher_polys_series)],
    ids=["order-1", "order-2"],
)
def test_polys_match_sympy_generating_function(r, n_max, build):
    # an oracle outside the package: the polynomials from their generating
    # function, expanded by sympy.series, at level 2
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    built = build(2, r, n_max).polys
    expected = hb_polys_sympy(2, r, n_max)
    assert len(built) == len(expected)
    for n, (p, want) in enumerate(zip(built, expected)):
        coeffs = sympy.Poly(want, x).all_coeffs()[::-1]
        assert p.coeffs == tuple(Fraction(int(c.p), int(c.q)) for c in coeffs), n


def test_level_one_numbers_match_sympy_bernoulli():
    sympy = pytest.importorskip("sympy")
    for n, value in enumerate(hb_numbers(1, 60).values):
        # sympy >= 1.12 takes B_1 = +1/2; the level-1 numbers have B_1 = -1/2
        expected = -sympy.bernoulli(n) if n == 1 else sympy.bernoulli(n)
        assert value == Fraction(int(expected.p), int(expected.q)), n


def test_integer_engines_use_no_series_kernel(monkeypatch):
    numbers = hb_numbers_by_inversion(3, 20)
    polys = hb_higher_polys_recurrence_fractions(3, 2, 12)

    def refuse(*_args):
        raise AssertionError("series kernel called")

    for name in ("series_invert", "series_mul", "series_pow"):
        for module in (algebra, core):
            monkeypatch.setattr(module, name, refuse, raising=False)
    with pytest.raises(AssertionError, match="series kernel called"):
        core.hb_higher_numbers(2, 2, 5)
    assert list(hb_numbers(3, 20).values) == numbers
    assert list(hb_higher_polys_recurrence(3, 2, 12).polys) == polys


# --- polynomial tables -------------------------------------------------------


def test_polys_index_zero_is_one():
    for level in range(1, 5):
        assert hb_polys(level, 3).polys[0] == UniPoly((1,))


def test_polys_level_one_classical():
    table = hb_polys(1, 4)
    for n, expected in enumerate(CLASSICAL_BERNOULLI_POLYS):
        assert table.polys[n] == expected


def test_polys_level_two_index_one():
    assert hb_polys(2, 1).polys[1] == UniPoly((Fraction(-1, 3), 1))


def test_higher_polys_series_reduces_at_order_one():
    for level in (1, 2, 3):
        assert hb_higher_polys_series(level, 1, 8) == HBPolyTable(
            N=level, r=1, polys=hb_polys(level, 8).polys
        )


def test_higher_polys_series_order_two_level_one():
    assert hb_higher_polys_series(1, 2, 1).polys[1] == UniPoly((-1, 1))


def test_higher_polys_index_zero():
    for level in (1, 2):
        for order in (1, 2, 3):
            assert hb_higher_polys_series(level, order, 2).polys[0] == UniPoly((1,))


def test_value_at_zero_matches_numbers():
    for level, order in [(1, 1), (2, 3), (3, 2)]:
        table = hb_higher_polys_series(level, order, 10)
        values = hb_higher_numbers(level, order, 10).values
        for n, p in enumerate(table.polys):
            assert poly_eval(p, 0) == values[n]


# --- recurrence path ---------------------------------------------------------


def test_recurrence_rejects_bad_args():
    # a negative top gave a one-entry table, and level 0 with an injected
    # table a table at level 0
    with pytest.raises(ValueError, match="order must be nonnegative"):
        hb_higher_polys_recurrence(1, 1, -1)
    with pytest.raises(ValueError, match="level N must be >= 1"):
        hb_higher_polys_recurrence(0, 1, 3, numbers=hb_numbers(1, 4))


@pytest.mark.parametrize("n_max", [0, 1, 5])
def test_recurrence_builds_numbers_only_up_to_the_last_it_reads(monkeypatch, n_max):
    # step n reads B[N, n+1], so B[N, n_max] is the last: a table up to
    # n_max + 1 would cost one needless step of the number recurrence
    tops = []
    build = core.hb_numbers

    def recorded(N, top):
        tops.append(top)
        return build(N, top)

    monkeypatch.setattr(core, "hb_numbers", recorded)
    table = hb_higher_polys_recurrence(2, 3, n_max)
    assert tops == [n_max]
    assert table == hb_higher_polys_recurrence(2, 3, n_max, numbers=build(2, n_max + 1))


def test_order_r_builders_state_one_rule():
    messages = set()
    for build in (
        lambda: hb_higher_numbers(1, 0, 3),
        lambda: hb_higher_polys_recurrence(1, 0, 3),
        lambda: a_poly(1, 0),
        lambda: a_poly_at_zero(1, 0),
    ):
        with pytest.raises(ValueError) as err:
            build()
        messages.add(str(err.value))
    assert messages == {"order r must be >= 1"}


def test_recurrence_single_step_by_hand():
    # (x - 1/2)^2 - (1/6)/2 = x^2 - x + 1/6
    table = hb_higher_polys_recurrence(1, 1, 2)
    assert table.polys[2] == UniPoly((Fraction(1, 6), -1, 1))


def test_recurrence_empty_sum_step():
    for level in (1, 2, 3):
        for order in (1, 2, 4):
            table = hb_higher_polys_recurrence(level, order, 1)
            assert table.polys[1] == UniPoly((Fraction(-order, level + 1), 1))


@pytest.mark.parametrize("level,order", [(1, 1), (1, 3), (2, 2), (3, 4), (4, 2)])
def test_recurrence_agrees_with_series(level, order):
    assert (
        hb_higher_polys_recurrence(level, order, 12).polys
        == hb_higher_polys_series(level, order, 12).polys
    )


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=60),
    st.data(),
)
def test_recurrence_matches_fraction_recurrence(level, order, n_max, data):
    polys = hb_higher_polys_recurrence(level, order, n_max).polys
    assert list(polys) == hb_higher_polys_recurrence_fractions(level, order, n_max)
    # a fault table feeds both builders the same wrong number
    k = data.draw(st.integers(min_value=2, max_value=max(2, n_max)))
    bad = perturbed_numbers(level, k, n_max + 1)
    polys = hb_higher_polys_recurrence(level, order, n_max, numbers=bad).polys
    assert list(polys) == hb_higher_polys_recurrence_fractions(level, order, n_max, bad)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_recurrence_steps_by_the_operator_on_its_own_derivatives(k):
    # the route passes q_n, q_{n-1}, ..., q_0 to M as the derivatives of q_n:
    # M on the chain that differentiation gives, over n + 1, is the same
    # q_{n+1}, whatever the numbers the weights come from
    for level in (1, 2, 3):
        bad = perturbed_numbers(level, k, 11)
        for order in (1, 2, 3):
            weights = core._operator_weights(level, order, bad.values)
            polys = hb_higher_polys_recurrence(level, order, 11, numbers=bad).polys
            q = [p / math.factorial(n) for n, p in enumerate(polys)]
            for n in range(11):
                m_q = core._apply_operator(core._derivatives(q[n]), weights)
                assert m_q / (n + 1) == q[n + 1], (level, order, n)


@pytest.mark.parametrize("level,order,n_max", [(1, 1, 0), (1, 1, 1), (2, 3, 9), (3, 2, 20)])
def test_recurrence_work_is_pinned(monkeypatch, level, order, n_max):
    # one combination per step and no differentiation: q_n's derivatives are
    # the route's own predecessors (differentiating q_n measured 2.7 times
    # slower on hb_higher_polys_recurrence(3, 3, 100), 2-core Xeon VM, Python 3.11)
    calls = {"poly_combination": 0, "poly_derivative": 0}
    for name in calls:
        exact = getattr(core, name)

        def counted(*args, _name=name, _exact=exact):
            calls[_name] += 1
            return _exact(*args)

        monkeypatch.setattr(core, name, counted)
    hb_higher_polys_recurrence(level, order, n_max)
    assert calls == {"poly_combination": n_max, "poly_derivative": 0}


# --- order-raising step ------------------------------------------------------


def test_order_step_level_one():
    base = hb_polys(1, 3)
    assert hb_order_step(base, 1) == UniPoly((-1, 1))
    assert hb_order_step(base, 0) == UniPoly((1,))


def test_order_step_level_two():
    base = hb_polys(2, 3)
    assert hb_order_step(base, 1) == UniPoly((Fraction(-2, 3), 1))


def test_order_step_out_of_range():
    base = hb_polys(1, 2)
    with pytest.raises(IndexError):
        hb_order_step(base, 5)


def test_index_rule_is_shared():
    # hb_order_step and mult_operator_apply raise the one IndexError
    base = hb_polys(1, 2)
    for apply_at in (hb_order_step, mult_operator_apply):
        for n in (-1, 3):
            with pytest.raises(IndexError, match=f"index {n} not covered by table of size 3"):
                apply_at(base, n)


@pytest.mark.parametrize("level,order", [(1, 2), (2, 3), (3, 2)])
def test_iterated_order_step_matches_series(level, order):
    n_max = 10
    table = hb_polys(level, n_max)
    for _ in range(order - 1):
        table = HBPolyTable(
            N=level,
            r=table.r + 1,
            polys=tuple(hb_order_step(table, n) for n in range(n_max + 1)),
        )
    assert table.polys == hb_higher_polys_series(level, order, n_max).polys


# --- coefficient polynomial tables -------------------------------------------


def test_a_poly_base_case():
    table = a_poly(3, 1)
    assert len(table.entries) == 1
    assert bipoly_subst_s(table.entries[0], 17) == UniPoly((1,))


@pytest.mark.parametrize("level", range(1, 6))
@pytest.mark.parametrize("n", range(0, 9))
def test_a_poly_two_fold_closed_forms(level, n):
    table = a_poly(level, 2)
    s_val = 1 + level - n
    assert bipoly_subst_s(table.entries[0], s_val) == UniPoly((level - n,))
    assert bipoly_subst_s(table.entries[1], s_val) == UniPoly((1, -1))


@pytest.mark.parametrize("level", range(1, 6))
@pytest.mark.parametrize("n", range(0, 9))
def test_a_poly_three_fold_closed_forms(level, n):
    table = a_poly(level, 3)
    s_val = 1 + 2 * level - n
    half = Fraction(1, 2)
    assert bipoly_subst_s(table.entries[0], s_val) == UniPoly(
        (half * (2 * level - n) * (level - n),)
    )
    expected_mid = (
        -half * (2 * level - n) * UniPoly((-1, 1))
        - half * (level - n + 1) * UniPoly((-2, 1))
    )
    assert bipoly_subst_s(table.entries[1], s_val) == expected_mid
    assert bipoly_subst_s(table.entries[2], s_val) == half * UniPoly((-2, 1)) * UniPoly((-1, 1))


@pytest.mark.parametrize("level", (1, 2, 4))
@pytest.mark.parametrize("order", range(1, 7))
def test_a_poly_degree_bounds(level, order):
    table = a_poly(level, order)
    for i, entry in enumerate(table.entries):
        if entry.is_zero:
            continue
        assert entry.s_degree <= order - 1 - i
        assert len(entry.rows) - 1 <= i


@pytest.mark.parametrize("level", (1, 2, 3))
@pytest.mark.parametrize("order", range(1, 7))
def test_a_poly_at_zero_matches_substitution(level, order):
    full = a_poly(level, order)
    at_zero = a_poly_at_zero(level, order)
    for entry_full, entry_zero in zip(full.entries, at_zero.entries):
        assert entry_zero.is_zero or len(entry_zero.rows) == 1
        assert bipoly_subst_x(entry_full, 0) == bipoly_subst_x(entry_zero, 0)


def monomials(entry):
    """{(i, j): c} for each nonzero coefficient c of x^i s^j."""
    return {
        (i, j): Fraction(c, row.den)
        for i, row in enumerate(entry.rows)
        for j, c in enumerate(row.nums)
        if c
    }


@pytest.mark.parametrize("level", range(1, 5))
def test_a_tables_match_sympy_expansion(level):
    # both tables, through order 9, against sympy's expansion of the paper's
    # recurrence, which shifts s at every step where _a_table shifts once
    sympy = pytest.importorskip("sympy")
    x, s = sympy.symbols("x s")

    def expected(expr):
        terms = sympy.Poly(expr, x, s).as_dict()
        return {k: Fraction(int(c.p), int(c.q)) for k, c in terms.items() if c}

    for order, (full, free) in zip(range(1, 10), a_tables_sympy(level)):
        for built, want in ((a_poly(level, order), full), (a_poly_at_zero(level, order), free)):
            assert len(built.entries) == order
            for entry, expr in zip(built.entries, want):
                assert monomials(entry) == expected(expr)


@pytest.mark.parametrize("build", (a_poly, a_poly_at_zero))
def test_a_tables_shift_each_entry_once(monkeypatch, build):
    # the recurrence runs shift-free: entry i is shifted once, by i - (r-1)N
    calls = []

    def counted(a, offset):
        calls.append(offset)
        return algebra.bipoly_shift_s(a, offset)

    monkeypatch.setattr(core, "bipoly_shift_s", counted)
    for level in (1, 2, 3):
        for order in range(1, 9):
            calls.clear()
            build(level, order)
            assert calls == [i - (order - 1) * level for i in range(order)]


def test_a_poly_at_zero_two_fold_second_entry_is_one():
    table = a_poly_at_zero(2, 2)
    assert bipoly_subst_s(table.entries[1], 9) == UniPoly((1,))


# --- multiplicative operator --------------------------------------------------


def test_mult_operator_base_case():
    table = hb_higher_polys_series(2, 3, 4)
    assert mult_operator_apply(table, 0) == UniPoly((Fraction(-3, 3), 1))


def test_mult_operator_level_one():
    table = hb_polys(1, 4)
    assert mult_operator_apply(table, 1) == UniPoly((Fraction(1, 6), -1, 1))


@pytest.mark.parametrize("level,order", [(1, 1), (2, 2), (3, 1), (2, 4)])
def test_mult_operator_raises_index(level, order):
    table = hb_higher_polys_series(level, order, 10)
    for n in range(10):
        assert mult_operator_apply(table, n) == table.polys[n + 1]


@pytest.mark.parametrize("level,order", [(1, 1), (2, 3)])
def test_operator_commutation(level, order):
    # derivative(M p_n) - n * M p_{n-1} = p_n: the commutator of the raising
    # and lowering maps acts as the identity on the sequence
    table = hb_higher_polys_series(level, order, 8)
    for n in range(1, 8):
        pm = poly_derivative(mult_operator_apply(table, n))
        mp = n * mult_operator_apply(table, n - 1)
        assert pm - mp == table.polys[n]


# --- Appell structure ----------------------------------------------------------


@pytest.mark.parametrize("level,order", [(1, 1), (2, 1), (3, 2), (2, 4)])
def test_appell_derivative_and_monicity(level, order):
    table = hb_higher_polys_series(level, order, 12)
    for n, p in enumerate(table.polys):
        assert p.degree == n
        assert p.nums[-1] == p.den
        if n:
            assert poly_derivative(p) == n * table.polys[n - 1]


@pytest.mark.parametrize("level", range(1, 6))
def test_zero_mean_weighted_integral(level):
    table = hb_polys(level, 10)
    assert poly_integral_weighted(table.polys[0], level) == Fraction(1, level)
    for n in range(1, 11):
        assert poly_integral_weighted(table.polys[n], level) == 0
