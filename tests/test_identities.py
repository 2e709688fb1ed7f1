import gc
import itertools
import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperbern import core, identities
from hyperbern.algebra import BiPoly, PowerSeries, UniPoly, format_rational, poly_eval
from hyperbern.core import (
    HBNumberTable,
    HBPolyTable,
    a_poly,
    hb_higher_polys_recurrence,
    hb_higher_polys_series,
    hb_numbers,
    hb_polys,
    normalized_denominator,
)
from hyperbern.identities import (
    ALL_SUITES,
    FAIL,
    PASS,
    SKIPPED,
    SUITES,
    SuiteConfig,
    _check_cell,
    _closed_form,
    _first_mismatch,
    check_appell_basics,
    check_genfun_ode,
    check_kamano,
    check_logderiv,
    check_ode,
    check_recurrence_paths,
    check_sums_of_products,
    check_two_three_sums,
    perturbed_numbers,
    replay,
    run_suite,
)
from oracles import (
    a_tables_sympy,
    classical_bernoulli,
    hb_polys_sympy,
    multinomial_sum_bruteforce,
    series,
    series_mul_fractions,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


# --- the multinomial kernel against brute force ------------------------------


@given(st.integers(min_value=0, max_value=7), st.lists(rationals, min_size=1, max_size=3))
def test_integer_evaluator_matches_fraction_path(n, points):
    polys = hb_polys(2, n).polys
    plain = [[poly_eval(p, x) for p in polys] for x in points]
    direct = multinomial_sum_bruteforce(plain, n)
    row = tuple(points[:-1]), tuple(points[-1:])
    assert _first_mismatch(polys, n, [row], [UniPoly((direct,))]) == (1, None)


# coordinates from a small pool, so that points repeat and share leading runs
_pooled = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([Fraction(1, 2), Fraction(-5, 3)]),
    rationals,
)


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=3).flatmap(
        lambda fold: st.lists(st.tuples(*[_pooled] * fold), min_size=1, max_size=6)
    ),
)
def test_evaluate_any_point_order(n, points):
    # repeated points and orders that no check produces, each against brute force
    polys = hb_polys(3, n).polys
    for point in points:
        plain = [[poly_eval(p, Fraction(x)) for p in polys] for x in point]
        direct = multinomial_sum_bruteforce(plain, n)
        row = point[:-1], point[-1:]
        assert _first_mismatch(polys, n, [row], [UniPoly((direct,))]) == (1, None)


def _fraction_walk(polys, n, points, sides):
    """_first_mismatch's contract in plain Fractions: brute-force left side,
    Horner-evaluated sides."""
    for checked, point in enumerate(points, 1):
        plain = [[poly_eval(p, Fraction(x)) for p in polys] for x in point]
        lhs = multinomial_sum_bruteforce(plain, n)
        values = [poly_eval(side, sum(point)) for side in sides]
        if any(v != lhs for v in values):
            return checked, (point, lhs, values)
    return checked, None


@st.composite
def _walks(draw):
    level = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=0, max_value=5))
    fold = draw(st.integers(min_value=1, max_value=3))
    points = draw(st.lists(st.tuples(*[_pooled] * fold), min_size=1, max_size=6))
    # the r-fold sum of order-1 values is the order-r polynomial at the summed point
    exact = hb_higher_polys_series(level, fold, n).polys[n]

    def right_until(k, q):
        # right at the sums of the first k points, wrong elsewhere
        vanish = UniPoly((1,))
        for point in points[:k]:
            vanish = vanish * UniPoly((-sum(point), 1))
        return exact + q * vanish

    side = st.one_of(
        st.just(exact),
        # a shift by 1/p makes the integer target a non-integer
        st.just(exact + UniPoly((Fraction(1, 1_000_000_007),))),
        st.builds(right_until, st.integers(0, len(points)), rationals),
        st.lists(rationals, max_size=n + 2).map(lambda c: UniPoly(tuple(c))),
    )
    sides = draw(st.lists(side, min_size=1, max_size=2))
    return hb_polys(level, n).polys, n, points, sides


@given(_walks())
def test_integer_walk_matches_fraction_walk(walk):
    polys, n, points, sides = walk
    rows = [(point[:-1], point[-1:]) for point in points]
    got = _first_mismatch(polys, n, rows, sides)
    assert got == _fraction_walk(polys, n, points, sides)


def _wrong_at_chosen_sums(exact, points):
    """Sides equal to ``exact`` plus q times a polynomial that vanishes at
    every coordinate sum of ``points`` but a chosen few: wrong exactly at the
    points whose sum is chosen."""
    sums = sorted(set(map(sum, points)))

    def wrong_at(chosen, q):
        vanish = UniPoly((1,))
        for s in sums:
            if s not in chosen:
                vanish = vanish * UniPoly((-s, 1))
        return exact + q * vanish

    return st.builds(wrong_at, st.sets(st.sampled_from(sums), max_size=2), rationals)


@st.composite
def _row_walks(draw):
    level = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=0, max_value=5))
    fold = draw(st.integers(min_value=1, max_value=3))
    # grid rows of nonnegative integer points, as the grid checks pass them,
    # mixed with rows of one point anywhere
    grid_row = st.tuples(
        st.tuples(*[st.integers(min_value=0, max_value=4)] * (fold - 1)),
        st.tuples(st.integers(0, 5), st.integers(1, 4)).map(lambda t: range(t[0], t[0] + t[1])),
    )
    point_row = st.tuples(st.tuples(*[_pooled] * (fold - 1)), st.tuples(_pooled))
    rows = draw(st.lists(st.one_of(grid_row, point_row), min_size=1, max_size=5))
    points = [prefix + (x,) for prefix, lasts in rows for x in lasts]
    exact = hb_higher_polys_series(level, fold, n).polys[n]
    side = st.one_of(
        st.just(exact),
        st.just(exact + UniPoly((Fraction(1, 1_000_000_007),))),
        _wrong_at_chosen_sums(exact, points),
        st.lists(rationals, max_size=n + 2).map(lambda c: UniPoly(tuple(c))),
    )
    sides = draw(st.lists(side, min_size=1, max_size=2))
    return hb_polys(level, n).polys, n, rows, points, sides


@given(_row_walks())
def test_row_walk_matches_point_walk(walk):
    polys, n, rows, points, sides = walk
    got = _first_mismatch(polys, n, rows, sides)
    point_rows = [(point[:-1], point[-1:]) for point in points]
    assert got == _first_mismatch(polys, n, point_rows, sides)
    assert got == _fraction_walk(polys, n, points, sides)


@st.composite
def _grid_walks(draw):
    # full product grids, so that every permutation of each prefix is walked
    # and the walk reads its multiset memo; each row draws its own last
    # coordinates, so that permuted prefixes sometimes end their rows alike
    # and sometimes not
    level = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=0, max_value=4))
    fold = draw(st.integers(min_value=1, max_value=4))
    width = draw(st.integers(min_value=1, max_value=3))
    lasts = st.sampled_from([range(3), range(1, 3), range(2, 5)])
    rows = [(prefix, draw(lasts)) for prefix in itertools.product(range(width), repeat=fold - 1)]
    points = [prefix + (x,) for prefix, last in rows for x in last]
    polys = list(hb_polys(level, n).polys)
    # c x^k on p_i with k <= i keeps the degree premise but not the Appell
    # property, so no side is right at every point
    for i, k, c in draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n), rationals),
                                 max_size=1)):
        polys[i] = polys[i] + c * UniPoly((0,) * min(k, i) + (1,))
    exact = hb_higher_polys_series(level, fold, n).polys[n]
    side = st.one_of(st.just(exact), _wrong_at_chosen_sums(exact, points))
    sides = draw(st.lists(side, min_size=1, max_size=2))
    return polys, n, rows, points, sides


@given(_grid_walks())
def test_grid_walk_matches_point_walk(walk):
    polys, n, rows, points, sides = walk
    got = _first_mismatch(polys, n, rows, sides)
    point_rows = [(point[:-1], point[-1:]) for point in points]
    assert got == _first_mismatch(polys, n, point_rows, sides)
    assert got == _fraction_walk(polys, n, points, sides)


@pytest.mark.parametrize("x", [Fraction(1, 2), 2], ids=["rational", "integer"])
def test_walk_rejects_a_table_past_its_degree_premise(x):
    # the power row holds x^0..x^n only, so a cubic p_1 at n = 1 would be
    # truncated; the callers test deg p_i <= i first, the walk its own premise
    cube = UniPoly((0, 0, 0, 1))
    with pytest.raises(ValueError, match="degree"):
        _first_mismatch([UniPoly((1,)), cube], 1, [((), (x,))], [cube])


def _walk_work(monkeypatch, call):
    """The report of ``call()``, with counts of its ``_conv`` calls and of the
    sums over a map in ``identities`` (the walk's dot products and the
    entries of its coordinate vectors) and over a tuple (one per row the walk
    compares, the sum of its prefix)."""
    counts = Counter()
    conv = identities._conv

    def counted_conv(*args):
        counts["convs"] += 1
        return conv(*args)

    def counted_sum(values, *start):
        counts["map sums"] += isinstance(values, map)
        counts["tuple sums"] += isinstance(values, tuple)
        return sum(values, *start)

    monkeypatch.setattr(identities, "_conv", counted_conv)
    monkeypatch.setattr(identities, "sum", counted_sum, raising=False)
    return call(), counts


@pytest.mark.parametrize(
    "call,n,walks,convs,dots",
    [
        # 66 + 286 multisets of two and three leading coordinates, each
        # convolved once, and 286 rows of 11 dots (the full grid: 1,452 and 14,641)
        (lambda: check_sums_of_products(2, 4, 10), 10, 1, 352, 3_146),
        # fold 3's 121 multisets {a, b} with a + b <= 20 (all pairs: 231 and 2,002)
        (lambda: check_two_three_sums(2, 20), 20, 2, 121, 1_177),
        # every sampled prefix is a multiset of its own: 64 points, 2 convolutions each
        (lambda: check_sums_of_products(2, 4, 16), 16, 1, 128, 64),
    ],
    ids=["sums-grid", "two-three", "sums-sample"],
)
def test_walk_work_is_pinned(monkeypatch, call, n, walks, convs, dots):
    rep, counts = _walk_work(monkeypatch, call)
    assert rep.status == PASS
    if rep.details and rep.details["mode"] == "sample":
        coordinates = len({c for point in rep.details["points"] for c in point})
    else:
        coordinates = n + 1  # each walk sees 0..n
    assert counts["convs"] == convs
    # each walk's coordinate vectors take one sum per table polynomial p_0..p_n
    assert counts["map sums"] - walks * coordinates * (n + 1) == dots


def test_kamano_walk_work_is_pinned(monkeypatch):
    # the one point (0, 0, 0, 0): its prefix's key (0, 0, 0) repeats one id,
    # whose leading runs of two and three are convolved once each, then one
    # dot; the coordinate 0 takes one sum per number B_0..B_10
    rep, counts = _walk_work(monkeypatch, lambda: check_kamano(2, 4, 10))
    assert rep.status == PASS
    assert counts["convs"] == 2
    assert counts["map sums"] - 11 == 1


@pytest.mark.parametrize("fold,n,multisets", [(4, 10, math.comb(13, 3)), (5, 5, math.comb(9, 4))])
def test_walk_compares_each_distinct_row_once(monkeypatch, fold, n, multisets):
    # a full product grid walks every permutation of each prefix with the same
    # last coordinates; only the first row of each multiset is compared
    polys = hb_polys(2, n).polys
    rows = [(prefix, range(n + 1)) for prefix in itertools.product(range(n + 1), repeat=fold - 1)]
    sides = [hb_higher_polys_series(2, fold, n).polys[n]]
    got, counts = _walk_work(monkeypatch, lambda: _first_mismatch(polys, n, rows, sides))
    assert got == ((n + 1) ** fold, None)
    assert counts["tuple sums"] == multisets


def test_walk_leaves_no_cyclic_garbage():
    # every memo is a local of its call, freed by refcount on return
    polys = hb_polys(2, 6).polys
    grid = [(prefix, range(7)) for prefix in itertools.product(range(7), repeat=3)], 4
    sampled = [((Fraction(1, 2), Fraction(-5, 3)), (Fraction(7, 4),))], 3
    walks = [(rows, [hb_higher_polys_series(2, fold, 6).polys[6]])
             for rows, fold in (grid, sampled, grid)]
    gc.collect()
    gc.disable()
    try:
        for rows, sides in walks:
            assert _first_mismatch(polys, 6, rows, sides) == (len(rows) * len(rows[0][1]), None)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- number identity ----------------------------------------------------------


def test_kamano_euler_instance_value():
    # two-fold sum of classical Bernoulli numbers at n = 2 is 5/6
    b = classical_bernoulli(2)
    direct = multinomial_sum_bruteforce([b, b], 2)
    assert direct == Fraction(5, 6)
    assert check_kamano(1, 2, 2).status == PASS


def test_kamano_small_cell_by_hand():
    values = hb_numbers(2, 1).values
    direct = multinomial_sum_bruteforce([list(values)] * 2, 1)
    assert direct == Fraction(-2, 3)
    assert check_kamano(2, 2, 1).status == PASS


def test_kamano_order_one_is_tautology():
    for n in (0, 3, 10):
        rep = check_kamano(3, 1, n)
        assert rep.status == PASS


def test_kamano_precondition():
    with pytest.raises(ValueError):
        check_kamano(1, 3, 1)


@pytest.mark.parametrize("level", (1, 2))
@pytest.mark.parametrize("order", (2, 3))
def test_kamano_against_bruteforce_range(level, order):
    for n in range(order - 1, 8):
        rep = check_kamano(level, order, n)
        assert rep.status == PASS
        values = hb_numbers(level, n).values
        direct = multinomial_sum_bruteforce([list(values)] * order, n)
        # the integer path check_kamano takes: the numbers as constant polynomials at x = 0
        row = (0,) * (order - 1), range(1)
        constants = [UniPoly((v,)) for v in values]
        assert _first_mismatch(constants, n, [row], [UniPoly((direct,))]) == (1, None)


def test_kamano_failure_path_is_pinned(monkeypatch):
    exact = identities.hb_numbers

    def bumped(N, n):
        table = exact(N, n)
        values = list(table.values)
        values[2] += 1
        return HBNumberTable(N=table.N, values=tuple(values))

    monkeypatch.setattr(identities, "hb_numbers", bumped)
    rep = check_kamano(2, 3, 4)
    assert rep.status == FAIL
    assert rep.cells_checked == 1
    assert rep.counterexample == {"lhs": "1088/45", "rhs": "143/45"}


# --- polynomial identity --------------------------------------------------------


def test_sums_grid_small():
    rep = check_sums_of_products(1, 2, 2, mode="grid")
    assert rep.status == PASS
    assert rep.cells_checked == 9  # full {0,1,2}^2
    assert rep.details == {"mode": "grid"}


@pytest.mark.parametrize("cell", [(2, 3, 6), (1, 4, 11)], ids=["grid", "sampled"])
def test_sums_defaults_give_the_runs_report(cell):
    # the check resolves "auto" and takes SuiteConfig's defaults, so a direct
    # call gives the report a run gives; (1, 4, 11) has a 20,736-point grid
    params = dict(zip(SUITES["sums"].params, cell))
    rep = check_sums_of_products(*cell)
    assert rep == _check_cell(SUITES["sums"], params, SuiteConfig())
    assert rep.status == PASS
    assert rep.details["mode"] == ("grid" if cell == (2, 3, 6) else "sample")


def test_sums_degenerate_order_one():
    rep = check_sums_of_products(4, 1, 5, mode="grid")
    assert rep.status == PASS


def test_sums_precondition():
    with pytest.raises(ValueError):
        check_sums_of_products(1, 3, 1)
    with pytest.raises(ValueError):
        check_sums_of_products(1, 2, 2, mode="bogus")


@pytest.mark.parametrize("count", [0, -1])
def test_sums_sample_needs_points(count):
    # a sample of no points would pass while checking nothing
    with pytest.raises(ValueError, match="sample_count"):
        check_sums_of_products(2, 3, 6, mode="sample", sample_count=count)


@pytest.mark.parametrize(
    "field,value",
    [("seed", "x"), ("seed", True), ("seed", 1.5), ("sample_count", True), ("sample_count", 2.5)],
)
def test_sums_takes_suite_configs_sampling_rule(field, value):
    # the check raises SuiteConfig's error: a str or bool seed would seed the
    # sample, a bool count would walk one point
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        check_sums_of_products(1, 2, 3, mode="sample", **{"sample_count": 2, field: value})


def test_sums_sample_deterministic_and_replayable():
    a = check_sums_of_products(2, 3, 6, mode="sample", sample_count=16, seed=7)
    b = check_sums_of_products(2, 3, 6, mode="sample", sample_count=16, seed=7)
    assert a == b
    assert a.details["seed"] == 7
    assert len(a.details["points"]) == 16
    assert replay(a)
    c = check_sums_of_products(2, 3, 6, mode="sample", sample_count=16, seed=8)
    assert c.details["points"] != a.details["points"]


def _bump_poly(monkeypatch, idx, coeff=-1):
    """Make the checks read order-1 tables with one coefficient of polys[idx]
    raised by 1 (the leading one by default); the order-r tables stay exact."""
    exact = identities.hb_polys

    def bumped(N, n):
        table = exact(N, n)
        polys = list(table.polys)
        coeffs = list(polys[idx].coeffs)
        coeffs[coeff] += 1
        polys[idx] = UniPoly(tuple(coeffs))
        return HBPolyTable(N=table.N, r=table.r, polys=tuple(polys))

    monkeypatch.setattr(identities, "hb_polys", bumped)


# the exact first counterexample and the number of cells it took to reach it,
# for each failure path of the grid and sample walkers
@pytest.mark.parametrize(
    "idx,coeff,call,cells,counter",
    [
        (0, -1, lambda: check_sums_of_products(1, 2, 3), 3,
         {"x_points": ["0", "2"], "x_sum": "2", "lhs_direct": "7/2",
          "lhs_collapsed": "1/2", "rhs": "1/2"}),
        (3, -1, lambda: check_sums_of_products(1, 1, 3), 2,
         {"x_points": ["1"], "x_sum": "1", "lhs_direct": "1",
          "lhs_collapsed": "0", "rhs": "1"}),
        (1, -1, lambda: check_sums_of_products(1, 3, 3), 2,
         {"x_points": ["0", "0", "1"], "x_sum": "1", "lhs_direct": "11/4",
          "lhs_collapsed": "1/4", "rhs": "1/4"}),
        (2, -1, lambda: check_sums_of_products(1, 2, 3, mode="sample", sample_count=4, seed=7), 1,
         {"x_points": ["15/17", "-7/81"], "x_sum": "1096/1377",
          "lhs_direct": "-6619139359/5221939266",
          "lhs_collapsed": "488436167/5221939266",
          "rhs": "-1536814009/5221939266"}),
        (1, -1, lambda: check_two_three_sums(2, 4), 2,
         {"fold": 2, "x_points": ["0", "1"], "lhs": "1/270", "rhs": "-11/270"}),
        # a raised constant term passes every fold-2 point at level 1, n = 3
        (2, 0, lambda: check_two_three_sums(1, 3), 11,
         {"fold": 3, "x_points": ["0", "0", "0"], "lhs": "-45/4", "rhs": "9/4"}),
    ],
    ids=["sums-r2", "sums-r1", "sums-r3", "sums-sample", "two-three-fold2", "two-three-fold3"],
)
def test_grid_failure_paths_are_pinned(monkeypatch, idx, coeff, call, cells, counter):
    _bump_poly(monkeypatch, idx, coeff)
    rep = call()
    assert rep.status == FAIL
    assert rep.cells_checked == cells
    assert rep.counterexample == counter


def _sums_sides_sympy(N, r, n, polys1):
    """The sums identity's sides at (N, r, n) as sympy expressions in
    x_1..x_r: the direct multinomial sum of ``polys1`` (order-1 polynomials
    in x), the order-r polynomial from its generating function at the summed
    point, and the closed form with the A-table from sympy's expansion of its
    recurrence."""
    import sympy

    x, s = sympy.symbols("x s")
    xs = sympy.symbols(f"x_1:{r + 1}")
    total = sum(xs)
    direct = multinomial_sum_bruteforce([[p.subs(x, xj) for p in polys1] for xj in xs], n)
    collapsed = hb_polys_sympy(N, r, n)[n].subs(x, total)
    full, _ = next(itertools.islice(a_tables_sympy(N), r - 1, None))
    at = {x: total, s: 1 + N * (r - 1) - n}
    closed = sympy.Rational(1, N ** (r - 1)) * sum(
        (-1) ** i * math.perm(n, i) * entry.subs(at) * polys1[n - i].subs(x, total)
        for i, entry in enumerate(full)
    )
    return direct, collapsed, closed


def test_sums_identity_expands_to_zero_in_sympy():
    # an oracle outside the package for the identity itself, in x_1..x_3
    sympy = pytest.importorskip("sympy")
    direct, collapsed, closed = _sums_sides_sympy(2, 3, 8, hb_polys_sympy(2, 1, 8))
    assert sympy.expand(direct - collapsed) == 0
    assert sympy.expand(closed - collapsed) == 0


@pytest.mark.parametrize("bumped", [False, True], ids=["exact", "p2-plus-x"])
def test_sums_verdict_matches_sympy_difference(monkeypatch, bumped):
    # p_2 + x keeps the degree premise, so only the grid walk can reject it:
    # the check must fail exactly when sympy's difference is nonzero
    sympy = pytest.importorskip("sympy")
    polys1 = list(hb_polys_sympy(1, 1, 3))
    if bumped:
        _bump_poly(monkeypatch, 2, coeff=1)
        polys1[2] += sympy.Symbol("x")
    direct, collapsed, closed = _sums_sides_sympy(1, 2, 3, polys1)
    nonzero = any(sympy.expand(side - collapsed) != 0 for side in (direct, closed))
    assert (check_sums_of_products(1, 2, 3).status == FAIL) == nonzero
    assert nonzero == bumped


def _vanishing(top):
    """x(x-1)...(x-top): zero at 0..top, of degree top + 1."""
    p = UniPoly((1,))
    for k in range(top + 1):
        p = p * UniPoly((-k, 1))
    return p


@pytest.mark.parametrize("N,r,n,mode", [(1, 2, 3, "grid"), (2, 3, 6, "grid"), (1, 1, 5, "grid"),
                                         (1, 2, 3, "sample")])
def test_sums_checks_its_degree_premise(monkeypatch, N, r, n, mode):
    # the collapsed side plus x(x-1)...(x-rn) has degree rn+1 and the right
    # values at every coordinate sum of the grid, so it agrees with the other
    # sides on every grid point; only the degree bound can reject it
    exact = identities.hb_higher_polys_series

    def inflated(N, r, top):
        table = exact(N, r, top)
        return replace(table, polys=table.polys[:top] + (table.polys[top] + _vanishing(r * top),))

    monkeypatch.setattr(identities, "hb_higher_polys_series", inflated)
    rep = check_sums_of_products(N, r, n, mode=mode)
    assert rep.status == FAIL
    assert rep.cells_checked == 0
    assert rep.counterexample == {"polynomial": "collapsed side", "degree": r * n + 1, "bound": n}
    assert rep.details["mode"] == mode
    assert replay(rep)


def test_sums_rhs_matches_two_fold_closed_form():
    # at order 2 the expansion collapses to the explicit two-fold form
    level, n = 3, 5
    polys1 = hb_polys(level, n).polys
    rhs = _closed_form(level, 2, n, a_poly(level, 2).entries, polys1)
    for x in [Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(7, 4)]:
        expected = (
            Fraction(level - n, level) * poly_eval(polys1[n], x)
            + Fraction(n, level) * (x - 1) * poly_eval(polys1[n - 1], x)
        )
        assert poly_eval(rhs, x) == expected


# --- explicit two- and three-fold forms ------------------------------------------


@pytest.mark.parametrize("level", (1, 2, 4))
def test_two_three_sums_pass(level):
    for n in range(1, 9):
        assert check_two_three_sums(level, n).status == PASS


def test_two_three_precondition():
    with pytest.raises(ValueError):
        check_two_three_sums(1, 0)


@pytest.mark.parametrize("n", (3, 6))
def test_two_three_checks_its_degree_premise(monkeypatch, n):
    # B_n + x(x-1)...(x-n) has degree n+1 and B_n's values at 0..n, so it agrees
    # with B_n on every lattice point; only the degree bound can reject it
    exact = identities.hb_polys

    def inflated(N, top):
        table = exact(N, top)
        return replace(table, polys=table.polys[:top] + (table.polys[top] + _vanishing(top),))

    monkeypatch.setattr(identities, "hb_polys", inflated)
    rep = check_two_three_sums(2, n)
    assert rep.status == FAIL
    assert rep.cells_checked == 0
    assert rep.counterexample == {"polynomial": f"B_{n}(x)", "degree": n + 1, "bound": n}
    assert replay(rep)


def _two_three_differences_sympy(N, n, polys1):
    """Each fold's direct multinomial sum of ``polys1`` (order-1 polynomials
    in x) in x_1..x_fold, minus its closed form from the docstring of
    check_two_three_sums at the summed point, expanded by sympy."""
    import sympy

    x = sympy.Symbol("x")
    differences = {}
    for fold in (2, 3):
        xs = sympy.symbols(f"x_1:{fold + 1}")
        total = sum(xs)
        b = [p.subs(x, total) for p in polys1]
        direct = multinomial_sum_bruteforce([[p.subs(x, xj) for p in polys1] for xj in xs], n)
        if fold == 2:
            closed = sympy.Rational(1, N) * ((N - n) * b[n] + n * (total - 1) * b[n - 1])
        else:
            closed = sympy.Rational(1, 2 * N * N) * (
                (N - n) * (2 * N - n) * b[n]
                + n * ((2 * N - n) * (total - 1) + (total - 2) * (N - n + 1)) * b[n - 1]
                + n * (n - 1) * (total - 1) * (total - 2) * b[n - 2]
            )
        differences[fold] = sympy.expand(direct - closed)
    return differences


def test_two_three_identities_expand_to_zero_in_sympy():
    # an oracle outside the package for both closed forms, in x_1..x_fold
    pytest.importorskip("sympy")
    assert _two_three_differences_sympy(2, 6, hb_polys_sympy(2, 1, 6)) == {2: 0, 3: 0}


@pytest.mark.parametrize("bumped", [False, True], ids=["exact", "p2-plus-x"])
def test_two_three_verdict_matches_sympy_difference(monkeypatch, bumped):
    # p_2 + x keeps the degree premise, so only the lattice walk can reject it:
    # the check must fail exactly when a fold's sympy difference is nonzero
    sympy = pytest.importorskip("sympy")
    polys1 = list(hb_polys_sympy(1, 1, 4))
    if bumped:
        _bump_poly(monkeypatch, 2, coeff=1)
        polys1[2] += sympy.Symbol("x")
    differences = _two_three_differences_sympy(1, 4, polys1)
    rep = check_two_three_sums(1, 4)
    assert (rep.status == FAIL) == any(d != 0 for d in differences.values())
    assert (rep.status == FAIL) == bumped
    if bumped:
        assert rep.cells_checked == 2
        assert (rep.counterexample["fold"], rep.counterexample["x_points"]) == (2, ["0", "1"])


# --- the proof argument against sympy ---------------------------------------------
#
# Each perturbation keeps the degree premise, so only the grid or lattice walk
# can reject it: a check must fail exactly when sympy's expanded difference of
# the perturbed identity is nonzero, at a point past the premise.


def _sums_grid_matches_sympy(N, r, n, direct, collapsed, closed):
    """Whether sympy's difference of the sums sides is nonzero, after
    asserting that grid-mode ``sums`` fails, past its premise, exactly then."""
    sympy = pytest.importorskip("sympy")
    nonzero = any(sympy.expand(side - collapsed) != 0 for side in (direct, closed))
    rep = check_sums_of_products(N, r, n, mode="grid")
    assert rep.cells_checked > 0
    assert (rep.status == FAIL) == nonzero
    return nonzero


@pytest.mark.parametrize(
    "N,r,n,i,k",
    [(1, 2, 3, 2, 0), (1, 2, 3, 1, 1), (2, 3, 5, 4, 4), (2, 3, 5, 3, 1), (1, 1, 3, 3, 2)],
)
def test_table_bump_verdicts_match_sympy(monkeypatch, N, r, n, i, k):
    # x^k on p_i with k <= i reaches both the sums grid and the two-three
    # lattice; the lattice's verdict names the first fold whose difference
    # is nonzero (at level 1, n = 3, a raised constant on p_2 passes fold 2)
    sympy = pytest.importorskip("sympy")
    _bump_poly(monkeypatch, i, coeff=k)
    polys1 = list(hb_polys_sympy(N, 1, n))
    polys1[i] += sympy.Symbol("x") ** k
    assert _sums_grid_matches_sympy(N, r, n, *_sums_sides_sympy(N, r, n, polys1))
    failing = [fold for fold, d in _two_three_differences_sympy(N, n, polys1).items() if d != 0]
    rep = check_two_three_sums(N, n)
    assert rep.cells_checked > 0
    assert (rep.status == FAIL) == bool(failing)
    if failing:
        assert rep.counterexample["fold"] == failing[0]


@pytest.mark.parametrize(
    "N,r,n,i,a,b,nonzero",
    [(1, 2, 3, 1, 1, 0, True), (1, 2, 3, 0, 0, 1, True), (2, 3, 5, 2, 1, 0, True),
     # s = 1 + N(r-1) - n is 0 at (2, 3, 5), so a power of s changes no value
     (2, 3, 5, 2, 2, 1, False), (2, 3, 5, 0, 0, 1, False)],
)
def test_a_poly_bump_verdict_matches_sympy(monkeypatch, N, r, n, i, a, b, nonzero):
    # x^a s^b with a <= i on the entry A_r(i), here and on sympy's side
    sympy = pytest.importorskip("sympy")
    exact = identities.a_poly

    def bumped(N, r):
        table = exact(N, r)
        rows = list(table.entries[i].rows)
        rows += [UniPoly()] * (a + 1 - len(rows))
        rows[a] = rows[a] + UniPoly((0,) * b + (1,))
        entries = table.entries[:i] + (BiPoly(tuple(rows)),) + table.entries[i + 1:]
        return replace(table, entries=entries)

    monkeypatch.setattr(identities, "a_poly", bumped)
    x, s = sympy.symbols("x s")
    polys1 = hb_polys_sympy(N, 1, n)
    direct, collapsed, closed = _sums_sides_sympy(N, r, n, polys1)
    total = sum(sympy.symbols(f"x_1:{r + 1}"))
    delta = (x**a * s**b).subs({x: total, s: 1 + N * (r - 1) - n})
    weight = sympy.Rational((-1) ** i * math.perm(n, i), N ** (r - 1))
    closed += weight * delta * polys1[n - i].subs(x, total)
    assert _sums_grid_matches_sympy(N, r, n, direct, collapsed, closed) == nonzero


@pytest.mark.parametrize("N,r,n,k,c", [(1, 2, 3, 0, "1"), (2, 3, 5, 5, "-1/3"), (1, 1, 3, 2, "2")])
def test_collapsed_side_bump_verdict_matches_sympy(monkeypatch, N, r, n, k, c):
    # c x^k on the collapsed side's p_n, k <= n; two-three does not read it
    sympy = pytest.importorskip("sympy")
    exact = identities.hb_higher_polys_series

    def bumped(N, r, top):
        table = exact(N, r, top)
        bumped_top = table.polys[top] + Fraction(c) * UniPoly((0,) * k + (1,))
        return replace(table, polys=table.polys[:top] + (bumped_top,))

    monkeypatch.setattr(identities, "hb_higher_polys_series", bumped)
    direct, collapsed, closed = _sums_sides_sympy(N, r, n, hb_polys_sympy(N, 1, n))
    collapsed += sympy.Rational(c) * sum(sympy.symbols(f"x_1:{r + 1}")) ** k
    assert _sums_grid_matches_sympy(N, r, n, direct, collapsed, closed)


def test_two_fold_reproduces_euler_identity():
    # at level 1 and x = 0 the two-fold form becomes the classical
    # convolution identity: sum C(n,i) B_i B_{n-i} = -n B_{n-1} - (n-1) B_n
    b = classical_bernoulli(12)
    for n in range(1, 12):
        conv = sum(
            math.comb(n, i) * b[i] * b[n - i] for i in range(n + 1)
        )
        assert conv == -n * b[n - 1] - (n - 1) * b[n]


# --- differential equation ---------------------------------------------------------


def test_ode_hand_case():
    assert check_ode(1, 1, 2).status == PASS


def test_ode_first_index_cancellation():
    for level in (1, 2, 3):
        for order in (1, 2):
            assert check_ode(level, order, 1).status == PASS


def test_ode_precondition():
    with pytest.raises(ValueError):
        check_ode(1, 1, 0)


def test_ode_residual_is_zero_in_sympy():
    # the ODE on the generating-function polynomials, differentiated by sympy:
    # sum_{k=2..n} B[N,k]/k! y^(k) - (x/(rN) - 1/(N(N+1))) y' + (n/(rN)) y
    sympy = pytest.importorskip("sympy")
    N, r, n = 2, 2, 6
    x = sympy.Symbol("x")
    numbers = [p.subs(x, 0) for p in hb_polys_sympy(N, 1, n)]
    y = hb_polys_sympy(N, r, n)[n]
    residual = (
        sum(numbers[k] / sympy.factorial(k) * sympy.diff(y, x, k) for k in range(2, n + 1))
        - (x / (r * N) - sympy.Rational(1, N * (N + 1))) * sympy.diff(y, x)
        + sympy.Rational(n, r * N) * y
    )
    assert sympy.expand(residual) == 0
    assert check_ode(N, r, n).status == PASS

def test_ode_detects_perturbation():
    rep = check_ode(1, 1, 5, numbers=perturbed_numbers(1, 2, 5))
    assert rep.status == FAIL
    assert rep.counterexample is not None
    assert replay(rep, fault=(1, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_ode(2, 1, 4, numbers=hb_numbers(1, 4)),
        lambda: check_ode(2, 1, 6, numbers=hb_numbers(2, 3)),
        lambda: check_recurrence_paths(2, 1, 5, numbers=hb_numbers(1, 6)),
        lambda: hb_higher_polys_recurrence(2, 1, 5, numbers=hb_numbers(1, 6)),
        lambda: hb_higher_polys_recurrence(2, 1, 5, numbers=hb_numbers(2, 3)),
    ],
    ids=["ode-level", "ode-short", "recurrence-level", "route-level", "route-short"],
)
def test_injected_table_of_another_level_or_too_short_is_a_usage_error(call):
    # a usage error, not a counterexample, a silently different table or an IndexError
    with pytest.raises(ValueError, match=r"numbers must be a level-2 table up to index \d+"):
        call()


def test_injected_table_holding_exactly_the_numbers_read_is_taken():
    assert hb_higher_polys_recurrence(2, 3, 5, numbers=hb_numbers(2, 5)) == (
        hb_higher_polys_recurrence(2, 3, 5)
    )
    assert check_ode(2, 3, 6, numbers=hb_numbers(2, 6)).status == PASS


# --- path agreement ------------------------------------------------------------------


@pytest.mark.parametrize("level,order", [(1, 1), (2, 3), (4, 4)])
def test_recurrence_paths_pass(level, order):
    rep = check_recurrence_paths(level, order, 12)
    assert rep.status == PASS
    assert rep.cells_checked == 13


def test_recurrence_detects_perturbation_at_first_usable_index():
    k = 3
    rep = check_recurrence_paths(2, 2, 10, numbers=perturbed_numbers(2, k, 11))
    assert rep.status == FAIL
    assert rep.counterexample["n"] == k
    assert rep.counterexample["series"] != rep.counterexample["recurrence"]
    assert replay(rep, fault=(2, k))


# --- series-level identities -----------------------------------------------------------


@pytest.mark.parametrize("level", (1, 3))
def test_genfun_ode_pass(level):
    assert check_genfun_ode(level, 20).status == PASS


def test_genfun_ode_precondition():
    with pytest.raises(ValueError):
        check_genfun_ode(1, 1)


def test_logderiv_pass():
    for level in (1, 2):
        for order_r in (1, 3):
            assert check_logderiv(level, order_r, 15).status == PASS


def test_logderiv_scales_linearly_in_r():
    # the log-derivative of the r-th power is r times that of the first power
    from hyperbern.algebra import series_invert, series_pow, series_truncate
    from hyperbern.core import normalized_denominator

    order = 12
    f = series_invert(normalized_denominator(2, order + 1))

    def logd(r):
        a = series_pow(f, r)
        ap = [k * a.coeffs[k] for k in range(1, order + 2)]
        inv = series_invert(series_truncate(a, order))
        return [
            sum((ap[i] * inv.coeffs[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(order + 1)
        ]

    one = logd(1)
    assert logd(3) == [3 * c for c in one]


def test_logderiv_constant_term():
    # constant term of the log-derivative of the r-th power is -r/(N+1)
    from hyperbern.algebra import series_invert, series_pow
    from hyperbern.core import normalized_denominator

    level, order_r = 3, 2
    a = series_pow(series_invert(normalized_denominator(level, 2)), order_r)
    assert a.coeffs[1] / a.coeffs[0] == Fraction(-order_r, level + 1)
    assert check_logderiv(level, order_r, 5).status == PASS


def test_series_checks_match_sympy_series(monkeypatch):
    # an oracle outside the package: F = (t^N/N!) / (e^t - T_{N-1}(t)), T_{N-1}
    # the degree-(N-1) Taylor polynomial of e^t, by sympy.series, and
    # (F^r)'/F^r from it by sympy's ring series; genfun-ode reads F and
    # logderiv compares the operator weights with (F^r)'/F^r
    sympy = pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.ring_series import rs_mul, rs_pow, rs_series_inversion
    from sympy.polys.rings import ring

    from hyperbern.algebra import series_invert

    order = 8
    _, gen = ring("t", QQ)

    def coeffs(s):
        # [t^0..t^order] of a ring series, as Fractions
        values = (s.get((k,), QQ(0)) for k in range(order + 1))
        return tuple(Fraction(int(c.numerator), int(c.denominator)) for c in values)

    compared = []
    exact_report = identities._series_report

    def recorded(name, params, lhs, rhs):
        compared.append(rhs)
        return exact_report(name, params, lhs, rhs)

    monkeypatch.setattr(identities, "_series_report", recorded)
    t = sympy.Symbol("t")
    for N in range(1, 4):
        taylor = sum(t**j / sympy.factorial(j) for j in range(N))
        gf = t**N / sympy.factorial(N) / (sympy.exp(t) - taylor)
        f = gen.ring(sympy.series(gf, t, 0, order + 2).removeO())  # exact through t^(order+1)
        assert series_invert(normalized_denominator(N, order)).coeffs == coeffs(f), N
        for r in range(1, 4):
            g = rs_pow(f, r, gen, order + 2)
            logderiv = rs_mul(g.diff(gen), rs_series_inversion(g, gen, order + 1), gen, order + 1)
            assert check_logderiv(N, r, order).status == PASS
            assert compared.pop().coeffs == coeffs(logderiv), (N, r)


def bump_series_invert(monkeypatch, k):
    """Make the series checks' inversion add 1 to coefficient k of every
    inverse; the patched inversion is returned for the reference walks."""
    exact = identities.series_invert

    def bumped(a):
        coeffs = list(exact(a).coeffs)
        coeffs[k] += 1
        return series(coeffs)

    monkeypatch.setattr(identities, "series_invert", bumped)
    return bumped


def first_difference_walk(lhs, rhs):
    """The first k with lhs[k] != rhs[k], walked in Fractions, as a counterexample."""
    for k, (left, right) in enumerate(zip(lhs, rhs)):
        if left != right:
            return {"k": k, "lhs": format_rational(left), "rhs": format_rational(right)}
    return None


def test_genfun_ode_failure_is_the_first_wrong_coefficient(monkeypatch):
    level, order, k = 2, 12, 5
    invert = bump_series_invert(monkeypatch, k)
    f = invert(normalized_denominator(level, order))
    fc, f2 = f.coeffs, series_mul_fractions(f, f).coeffs
    lhs = [j * fc[j] for j in range(order + 1)]
    rhs = [level * fc[j] - (fc[j - 1] if j else 0) - level * f2[j] for j in range(order + 1)]
    expected = first_difference_walk(lhs, rhs)
    # f_k moves lhs_k by k and rhs_k by level - 2 level f_0, so k differs first
    assert expected["k"] == k
    rep = check_genfun_ode(level, order)
    assert rep.status == FAIL
    assert rep.cells_checked == order + 1
    assert rep.counterexample == expected
    assert replay(rep)


@pytest.mark.parametrize("order_r", (1, 2))
def test_logderiv_failure_is_the_first_wrong_coefficient(monkeypatch, order_r):
    level, order, k = 2, 10, 4
    invert = bump_series_invert(monkeypatch, k)
    a = PowerSeries.one(order + 1)
    for _ in range(order_r):
        a = series_mul_fractions(a, invert(normalized_denominator(level, order + 1)))
    a_prime = series([j * a.coeffs[j] for j in range(1, order + 2)])
    a_inv = invert(series(a.coeffs[: order + 1]))
    lhs = series_mul_fractions(a_prime, a_inv).coeffs
    values = hb_numbers(level, order + 1).values
    rhs = [Fraction(-order_r, level + 1)] + [
        -order_r * level * values[m + 1] / math.factorial(m + 1) for m in range(1, order + 1)
    ]
    expected = first_difference_walk(lhs, rhs)
    assert expected is not None
    rep = check_logderiv(level, order_r, order)
    assert rep.status == FAIL
    assert rep.cells_checked == order + 1
    assert rep.counterexample == expected
    assert replay(rep)


# --- appell bundle -----------------------------------------------------------------------


@pytest.mark.parametrize("level,order", [(1, 1), (3, 1), (2, 3)])
def test_appell_basics_pass(level, order):
    assert check_appell_basics(level, order, 12).status == PASS


def test_appell_value_at_zero_reads_another_route(monkeypatch):
    # a wrong order-r number B^(r)[N,3] reaches the series table's constant
    # term.  It is patched wherever the check could read it, so only a route
    # that does not go through the order-r numbers exposes it.
    exact = core.hb_higher_numbers

    def bumped(N, r, n_max):
        table = exact(N, r, n_max)
        values = list(table.values)
        values[3] += 1
        return HBNumberTable(N=table.N, values=tuple(values))

    monkeypatch.setattr(core, "hb_higher_numbers", bumped)
    monkeypatch.setattr(identities, "hb_higher_numbers", bumped, raising=False)
    rep = check_appell_basics(2, 2, 6)
    assert rep.status == FAIL
    assert rep.counterexample["property"] == "value_at_zero"
    assert rep.counterexample["n"] == 3


# --- suite driver ------------------------------------------------------------------------


def test_suite_empty_selection():
    # a run of no suite checks nothing
    with pytest.raises(ValueError):
        SuiteConfig(suites=())


def test_suite_empty_level_range():
    # level 0 and order 0 are out of domain, so such a range is rejected
    with pytest.raises(ValueError):
        SuiteConfig(N_max=0)
    with pytest.raises(ValueError):
        SuiteConfig(r_max=0)


@pytest.mark.parametrize(
    "fault",
    [(1, 1), (1, 0), (0, 2), (-1, 3), (1,), (1, 2, 3), (1.0, 2), [1, 1], [1], [1, 2, 3], [1.0, 2]],
)
def test_suite_rejects_out_of_domain_fault(fault):
    # rejected when the config is made, before any cell runs
    with pytest.raises(ValueError, match="inject_fault"):
        SuiteConfig(suites=("kamano", "ode"), N_max=2, n_max=4, inject_fault=fault)


@pytest.mark.parametrize(
    "field,value", [("N_max", 1.5), ("sample_count", 2.5), ("seed", "x"), ("n_max", True)]
)
def test_suite_rejects_non_int_fields(field, value):
    # a float range top would crash the run midway, and the others would run
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        SuiteConfig(suites=("kamano",), **{field: value})


def test_suite_takes_a_list_fault_pair_as_a_tuple():
    # a run's JSON params write the pair as a list
    cfg = SuiteConfig(suites=("ode",), inject_fault=[1, 2])
    assert cfg.inject_fault == (1, 2)
    assert cfg == SuiteConfig(suites=("ode",), inject_fault=(1, 2))
    assert hash(cfg) == hash(SuiteConfig(suites=("ode",), inject_fault=(1, 2)))


def test_suite_rejects_a_bare_string_for_suites():
    # a string is a sequence of letters, not of suite names
    with pytest.raises(ValueError, match="not the string 'sums'"):
        SuiteConfig(suites="sums")


def test_suite_rejects_unknown():
    with pytest.raises(ValueError):
        SuiteConfig(suites=("nope",))
    with pytest.raises(ValueError):
        SuiteConfig(mode="sometimes")


def test_suite_is_deterministic():
    cfg = SuiteConfig(suites=("sums",), N_max=2, r_max=3, n_max=6)
    assert run_suite(cfg) == run_suite(cfg)


def test_suite_records_skips_below_threshold():
    cfg = SuiteConfig(suites=("kamano",), N_max=1, r_max=3, n_max=4)
    reports = run_suite(cfg)
    skipped = [r for r in reports if r.status == SKIPPED]
    assert {(r.params["r"], r.params["n"]) for r in skipped} == {(2, 0), (3, 0), (3, 1)}
    assert all(r.cells_checked == 0 for r in skipped)


def test_suite_range_override():
    reports = run_suite(SuiteConfig(suites=("ode",), N_max=1, r_max=1, n_max=10))
    passing = [r for r in reports if r.status == PASS]
    assert len(passing) == 10


def test_suite_fault_injection_fails_ode_and_recurrence():
    cfg = SuiteConfig(
        suites=("ode", "recurrence"), N_max=2, r_max=2, n_max=8, inject_fault=(1, 2)
    )
    reports = run_suite(cfg)
    failed = [r for r in reports if r.status == FAIL]
    assert {r.identity_name for r in failed} == {"ode", "recurrence"}
    for rep in failed:
        assert rep.counterexample is not None
        assert replay(rep, fault=(1, 2))
    # cells at the unperturbed level never fail
    assert all(r.status != FAIL for r in reports if r.params["N"] == 2)


def test_only_cells_that_read_the_fault_get_a_perturbed_table(monkeypatch):
    # ode cells with n < k and recurrence cells with n_max < k read no
    # perturbed value, so they get the exact table; every cell that gets the
    # perturbed one fails
    builds = []
    exact_perturbed = identities.perturbed_numbers

    def counted(*args):
        builds.append(args)
        return exact_perturbed(*args)

    monkeypatch.setattr(identities, "perturbed_numbers", counted)
    perturbed = set()
    for name in ("ode", "recurrence"):
        exact = getattr(identities, SUITES[name].check)

        def recorded(*args, _name=name, _exact=exact, numbers=None):
            if numbers is not None:
                perturbed.add((_name, args))
            return _exact(*args, numbers=numbers)

        monkeypatch.setattr(identities, SUITES[name].check, recorded)
    cfg = SuiteConfig(suites=("ode", "recurrence"), N_max=1, r_max=2, n_max=8, inject_fault=(1, 5))
    reports = run_suite(cfg)
    assert len(builds) == 10
    failed = {(r.identity_name, tuple(r.params.values())) for r in reports if r.status == FAIL}
    assert failed == perturbed
    assert len(failed) == 10


_ONE = UniPoly((1,))


def _bump(seq, i, delta):
    """seq with delta added to entry i, if it has one."""
    return tuple(v + delta if j == i else v for j, v in enumerate(seq))


def _bump_series(series, k):
    """The series with [t^k] raised by 1, if it is exact through t^k."""
    if series.order < k:
        return series
    return PowerSeries.of(series.poly + UniPoly((0,) * k + (1,)), series.order)


def _bump_a1(table, N, r):
    """The A-table with 1 added to A_r(1), if it has that entry."""
    if r < 2:
        return table
    rows = table.entries[1].rows
    a1 = BiPoly((rows[0] + _ONE, *rows[1:]))
    return replace(table, entries=(table.entries[0], a1, *table.entries[2:]))


def _bump_first_derivative(chain):
    """The differentiation chain p, D p, ... with D p raised by 1."""
    yield next(chain)
    yield next(chain) + _ONE
    yield from chain


# each independent route, one small break of its result, and the suites that
# must fail when it is broken (measured on the default run and on this one)
_ROUTE_BREAKS = {
    "hb_numbers": (
        lambda table, N, n: replace(table, values=_bump(table.values, 3, 1)),
        {"appell", "kamano", "logderiv", "ode", "recurrence", "sums", "two-three"},
    ),
    "series_invert": (
        lambda f, d: _bump_series(f, 4),
        {"appell", "genfun-ode", "logderiv", "ode", "recurrence", "sums"},
    ),
    "series_pow": (
        lambda g, f, r: _bump_series(g, 4) if r > 1 else g,
        {"appell", "logderiv", "ode", "recurrence", "sums"},
    ),
    "normalized_denominator": (
        lambda d, N, order: _bump_series(d, 2),
        {"appell", "genfun-ode", "logderiv", "ode", "recurrence", "sums"},
    ),
    "_appell_polys": (
        lambda polys, values: _bump(polys, 5, UniPoly((0, 1))),
        {"appell", "ode", "recurrence", "sums", "two-three"},
    ),
    "hb_higher_polys_recurrence": (
        lambda table, N, r, n_max: replace(table, polys=_bump(table.polys, 4, _ONE)),
        {"appell", "recurrence"},
    ),
    "hb_order_step": (lambda p, table, n: p + _ONE if n == 4 else p, {"recurrence"}),
    "a_poly": (_bump_a1, {"sums"}),
    "a_poly_at_zero": (_bump_a1, {"kamano"}),
    "poly_integral_weighted": (lambda v, p, N: v + 1, {"appell"}),
    "_closed_form": (lambda p, *args: p + _ONE, {"kamano", "sums"}),
    "_operator_weights": (
        lambda weights, N, r, values: _bump(weights, 3, 1),
        {"appell", "logderiv", "ode", "recurrence"},
    ),
    "_apply_operator": (
        lambda p, derivatives, weights: p + _ONE,
        {"appell", "ode", "recurrence"},
    ),
    "_derivatives": (lambda chain, p: _bump_first_derivative(chain), {"appell", "ode"}),
    # each closed-form entry A_r(i, x; s) at the cell's s, raised by 1
    "bipoly_subst_s": (lambda p, a, sval: p + _ONE, {"kamano", "sums"}),
    # the multinomial walk's convolutions of two or more vectors: entry 0 of
    # each raised by its scale, that is by 1 in value
    "_run_conv": (
        lambda held, convs, key, n: ([held[0][0] + held[1], *held[0][1:]], held[1])
        if len(key) > 1 else held,
        {"kamano", "sums", "two-three"},
    ),
}


@pytest.mark.parametrize("route", _ROUTE_BREAKS)
def test_every_route_matters(monkeypatch, route):
    # the route is broken wherever core and identities bind it, so that every
    # caller, a table builder in core or a check, reads the broken result
    tweak, failing = _ROUTE_BREAKS[route]
    for module in (core, identities):
        exact = getattr(module, route, None)
        if exact is not None:
            broken = lambda *args, exact=exact, **kwargs: tweak(exact(*args, **kwargs), *args)
            monkeypatch.setattr(module, route, broken)
    reports = run_suite(SuiteConfig(N_max=2, r_max=3, n_max=6))
    failed = [rep for rep in reports if rep.status == FAIL]
    assert {rep.identity_name for rep in failed} == failing
    assert all(replay(rep) for rep in failed)


@pytest.mark.parametrize("name", [name for name, suite in SUITES.items() if suite.requires])
def test_requires_matches_the_checks_precondition(name):
    # each check raises ValueError through its row's requires predicate,
    # naming the suite, the reason and the cell; over small cells they agree
    suite = SUITES[name]
    check = getattr(identities, suite.check)
    axes = {"N": (1,), "r": (1, 2, 3)}
    for cell in itertools.product(*(axes.get(p, range(4)) for p in suite.params)):
        got = ", ".join(f"{p}={v}" for p, v in zip(suite.params, cell))
        try:
            check(*cell)
            raised = False
        except ValueError as exc:
            assert str(exc) == f"{name} {suite.skip_reason} (got {got})"
            raised = True
        assert suite.requires(*cell) is not raised, cell


def test_replay_of_passing_reports():
    for rep in run_suite(SuiteConfig(suites=("genfun-ode", "logderiv"), n_max=8)):
        assert replay(rep)


def test_all_suites_cover_registry():
    reports = run_suite(SuiteConfig(N_max=1, r_max=1, n_max=4))
    assert {r.identity_name for r in reports} == set(ALL_SUITES)


# --- table store --------------------------------------------------------------------------


def _count_builds(monkeypatch, key_len):
    """Count the calls of each builder the checks read, by builder and its
    first ``key_len[builder]`` arguments."""
    builds = Counter()
    for name, n_key in key_len.items():
        exact = getattr(identities, name)

        def counted(*args, _name=name, _exact=exact, _n_key=n_key, **kwargs):
            builds[_name, args[:_n_key]] += 1
            return _exact(*args, **kwargs)

        monkeypatch.setattr(identities, name, counted)
    return builds


def test_suite_builds_each_table_once(monkeypatch):
    # a deterministic work gate: one build per builder and leading arguments
    # within a suite, however many cells read the table
    builds = _count_builds(
        monkeypatch,
        {"hb_numbers": 1, "hb_polys": 1, "hb_higher_polys_series": 2, "a_poly": 2,
         "a_poly_at_zero": 2},
    )
    cfg = SuiteConfig(suites=("sums", "kamano"), N_max=2, r_max=3, n_max=8)
    reports = run_suite(cfg)
    assert all(r.status != FAIL for r in reports)
    for name, per_key in [
        ("hb_higher_polys_series", [(N, r) for N in (1, 2) for r in (1, 2, 3)]),
        ("a_poly", [(N, r) for N in (1, 2) for r in (1, 2, 3)]),
        ("a_poly_at_zero", [(N, r) for N in (1, 2) for r in (1, 2, 3)]),
        ("hb_polys", [(1,), (2,)]),
        ("hb_numbers", [(1,), (2,)]),
    ]:
        assert {key: builds[name, key] for key in per_key} == dict.fromkeys(per_key, 1), name


def test_run_suite_is_reentrant(monkeypatch):
    # runs of different configs in threads, switching often, each give the
    # reports they give alone
    configs = [
        SuiteConfig(suites=("sums", "kamano"), N_max=2, r_max=3, n_max=6),
        SuiteConfig(suites=("two-three", "ode", "appell"), N_max=3, r_max=2, n_max=7),
        SuiteConfig(suites=("sums", "recurrence"), N_max=3, r_max=2, n_max=5),
    ]
    serial = [run_suite(cfg) for cfg in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(configs)) as pool:
            assert list(pool.map(run_suite, configs, timeout=120)) == serial
    finally:
        sys.setswitchinterval(interval)

    # no table outlives a run: every run builds its tables again, and reads
    # a builder rebound between runs
    cfg = SuiteConfig(suites=("sums",), N_max=1, r_max=1, n_max=3)
    builds = _count_builds(monkeypatch, {"hb_polys": 1})
    run_suite(cfg)
    run_suite(cfg)
    assert builds == {("hb_polys", (1,)): 2}
    _bump_poly(monkeypatch, 2)
    assert any(r.status == FAIL for r in run_suite(cfg))


@pytest.mark.parametrize("fault", [None, (1, 3)])
def test_run_suite_matches_cells_run_alone(fault):
    # the store changes no report: each equals its cell run outside any run
    cfg = SuiteConfig(N_max=2, r_max=3, n_max=6, inject_fault=fault)
    reports = run_suite(cfg)
    alone = [_check_cell(SUITES[r.identity_name], r.params, cfg) for r in reports]
    assert reports == alone
    failed = [r for r in reports if r.status == FAIL]
    assert bool(failed) == (fault is not None)
    assert all(replay(r, fault=fault) for r in failed)
