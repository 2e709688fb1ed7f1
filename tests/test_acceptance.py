"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); the
stated runtime budgets are asserted where they apply.
"""

import hashlib
import math
import time
from contextlib import contextmanager
from fractions import Fraction

from click.testing import CliRunner

from hyperbern.algebra import UniPoly, bipoly_subst_s, poly_eval
from hyperbern.cli import cli, parse_json
from hyperbern.core import (
    HBPolyTable,
    a_poly,
    hb_higher_polys_recurrence,
    hb_higher_polys_series,
    hb_numbers,
    hb_order_step,
    hb_polys,
    normalized_denominator,
)
from hyperbern.identities import (
    FAIL,
    PASS,
    SuiteConfig,
    check_appell_basics,
    check_genfun_ode,
    check_kamano,
    check_logderiv,
    check_ode,
    check_recurrence_paths,
    check_sums_of_products,
    check_two_three_sums,
    replay,
    run_suite,
)
from oracles import classical_bernoulli


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def test_criterion_01_classical_reduction():
    with criterion(1, "classical reduction at level 1"):
        start = time.perf_counter()
        table = hb_numbers(1, 30)
        assert list(table.values) == classical_bernoulli(30)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_first_number_closed_form():
    with criterion(2, "B[N,1] = -1/(N+1)"):
        for level in range(1, 11):
            assert hb_numbers(level, 1).values[1] == Fraction(-1, level + 1)


def test_criterion_03_denominator_series_coefficients():
    with criterion(3, "normalized denominator coefficients N!/(N+k)!"):
        for level in range(1, 7):
            nd = normalized_denominator(level, 40)
            assert nd.order == 40
            for k, c in enumerate(nd.coeffs):
                assert c == Fraction(
                    math.factorial(level), math.factorial(level + k)
                )


def test_criterion_04_a_table_golden_values():
    with criterion(4, "coefficient-table golden values"):
        half = Fraction(1, 2)
        x_minus_1 = UniPoly((-1, 1))
        x_minus_2 = UniPoly((-2, 1))
        for level in range(1, 6):
            two = a_poly(level, 2).entries
            three = a_poly(level, 3).entries
            for n in range(0, 13):
                s2 = 1 + level - n
                assert bipoly_subst_s(two[0], s2) == UniPoly((level - n,))
                assert bipoly_subst_s(two[1], s2) == -1 * x_minus_1
                s3 = 1 + 2 * level - n
                assert bipoly_subst_s(three[0], s3) == UniPoly(
                    (half * (2 * level - n) * (level - n),)
                )
                assert bipoly_subst_s(three[1], s3) == (
                    -half * (2 * level - n) * x_minus_1
                    - half * (level - n + 1) * x_minus_2
                )
                assert bipoly_subst_s(three[2], s3) == half * x_minus_2 * x_minus_1


def test_criterion_05_number_sums_of_products():
    with criterion(5, "number sums-of-products, N<=4 r<=4 n<=24"):
        start = time.perf_counter()
        for level in range(1, 5):
            for order in range(1, 5):
                for n in range(order - 1, 25):
                    assert check_kamano(level, order, n).status == PASS
        assert time.perf_counter() - start < 30.0


def test_criterion_06_polynomial_sums_of_products():
    with criterion(6, "polynomial sums-of-products, grid and sample"):
        for level in range(1, 4):
            for order in range(1, 4):
                for n in range(order - 1, 11):
                    rep = check_sums_of_products(level, order, n, mode="grid")
                    assert rep.status == PASS
                    assert rep.cells_checked == (n + 1) ** order
        for level in range(1, 5):
            for n in range(3, 17):
                rep = check_sums_of_products(
                    level, 4, n, mode="sample", sample_count=64, seed=42
                )
                assert rep.status == PASS
                assert rep.cells_checked == 64


def test_criterion_07_two_three_fold_closed_forms():
    with criterion(7, "explicit two/three-fold forms and the Euler instance"):
        for level in range(1, 5):
            for n in range(1, 21):
                assert check_two_three_sums(level, n).status == PASS
        # level 1 at x = 0 degenerates to the classical convolution identity
        b = classical_bernoulli(21)
        table = hb_polys(1, 20).polys
        for n in range(1, 21):
            conv = sum(math.comb(n, i) * b[i] * b[n - i] for i in range(n + 1))
            euler_rhs = -n * b[n - 1] - (n - 1) * b[n]
            two_fold_rhs = Fraction(1 - n) * poly_eval(table[n], 0) + n * Fraction(
                -1
            ) * poly_eval(table[n - 1], 0)
            assert conv == euler_rhs == two_fold_rhs
            if n == 2:
                assert conv == Fraction(5, 6) and euler_rhs == Fraction(5, 6)


def test_criterion_08_differential_equation():
    with criterion(8, "differential equation residuals vanish"):
        for level in range(1, 5):
            for order in range(1, 4):
                for n in range(1, 16):
                    assert check_ode(level, order, n).status == PASS


def test_criterion_09_recurrence_and_order_step_paths():
    with criterion(9, "series, recurrence, and order-step paths agree to n=30"):
        for level in range(1, 5):
            for order in range(1, 5):
                rep = check_recurrence_paths(level, order, 30)
                assert rep.status == PASS and rep.cells_checked == 31
        # the iterated order-raising path once more, explicitly
        for level in (1, 4):
            stepped = hb_polys(level, 30)
            for target in range(2, 5):
                stepped = HBPolyTable(
                    N=level,
                    r=target,
                    polys=tuple(hb_order_step(stepped, n) for n in range(31)),
                )
                assert stepped.polys == hb_higher_polys_series(level, target, 30).polys
                assert (
                    stepped.polys == hb_higher_polys_recurrence(level, target, 30).polys
                )


def test_criterion_10_generating_function_ode():
    with criterion(10, "generating-function first-order relation at order 30"):
        for level in range(1, 6):
            rep = check_genfun_ode(level, 30)
            assert rep.status == PASS and rep.cells_checked == 31


def test_criterion_11_log_derivative_series():
    with criterion(11, "log-derivative series identity at order 30"):
        for level in range(1, 5):
            for order in range(1, 4):
                assert check_logderiv(level, order, 30).status == PASS


def test_criterion_12_appell_structure():
    with criterion(12, "Appell derivative chain, monicity, zero-mean integral"):
        for level in range(1, 6):
            for order in (1, 2, 3):
                assert check_appell_basics(level, order, 20).status == PASS


def test_criterion_13_mutation_sensitivity():
    with criterion(13, "single-value perturbations trip the suite"):
        for level in (1, 2, 3):
            for k in range(2, 9):
                cfg = SuiteConfig(
                    suites=("ode", "recurrence"),
                    N_max=level,
                    r_max=2,
                    n_max=10,
                    inject_fault=(level, k),
                )
                failed = [r for r in run_suite(cfg) if r.status == FAIL]
                assert failed, f"perturbing B[{level},{k}] tripped nothing"
                for rep in failed:
                    assert rep.counterexample is not None
                    assert replay(rep, fault=(level, k))


def test_criterion_14_default_verify_suite():
    with criterion(14, "default verify run: exit 0 in under 60 s"):
        runner = CliRunner()
        start = time.perf_counter()
        result = runner.invoke(cli, ["verify", "--no-meta"])
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        assert elapsed < 60.0
        # the bytes perfbench pins for its verify-default workload
        assert hashlib.sha256(result.output.encode("utf-8")).hexdigest() == (
            "797dc2f84bb0a556a574af1a5fd65801b6573f011e0e50f443c42a2f645e71d2"
        )
        payload = parse_json(result.output).payload
        statuses = {row["status"] for row in payload}
        assert FAIL not in statuses
        assert PASS in statuses
