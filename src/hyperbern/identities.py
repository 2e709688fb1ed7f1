"""Exact certification of the identities satisfied by the tables in ``core``.

Every check compares independently computed exact rational values; there are
no tolerances anywhere.  A polynomial identity is certified either by
coefficientwise comparison, by exhaustive evaluation on the principal
lattice (total degree d needs the nonnegative integer points with coordinate
sum at most d), or by seeded random rational sample points.  The comparison
at a lattice point does not change when its coordinates are permuted, and
the lattice is closed under permutation, so it is compared at its
nondecreasing points only; ``cells_checked`` still counts every point of the
lattice, and a failing lattice reports the sorted walk's first mismatch,
which is the whole walk's, with the whole walk's count.  Each sums cell
walks once: the lattice, for a grid and for a sample of no fewer points than
the lattice has sorted rows, and otherwise its sample.  The lattice's
verdict is the cell's: a pass proves every requested point, and the cell
reports the grid's or sample's pass; a failure reports the lattice's.

Each identity is one row of :data:`~hyperbern.suites.SUITES`, the one
statement of its check, cell layout and precondition: a check called directly
on a cell below its row's ``requires`` raises ``ValueError`` naming the suite,
the reason and the cell.  Checks return :class:`VerifyReport` records;
:func:`run_suite` drives them over parameter ranges deterministically,
recording precondition violations as skipped cells (never as passes).
:class:`~hyperbern.suites.SuiteConfig` states a run's defaults, which the
checks called directly share.  The registry and the configuration live in
:mod:`hyperbern.suites`, so that the command line can declare ``verify``'s
options without loading this module; they are imported here and exported
under the same names.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import random
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import (
    PowerSeries,
    UniPoly,
    _conv,
    _horner,
    bipoly_subst_s,
    format_coeffs,
    format_rational,
    poly_combination,
    poly_derivative,
    poly_eval,
    poly_integral_weighted,
    series_invert,
    series_mul,
    series_pow,
    series_truncate,
)
# the builders are also read by name through _table, so that a rebound name is seen
from .core import (
    HBNumberTable,
    HBPolyTable,
    _apply_operator,
    _check_numbers,
    _derivatives,
    _operator_weights,
    a_poly,
    a_poly_at_zero,
    hb_higher_polys_recurrence,
    hb_higher_polys_series,
    hb_numbers,
    hb_order_step,
    hb_polys,
    normalized_denominator,
)
from .suites import ALL_SUITES, MODES, REPORT_PARAMS, SUITES, Suite, SuiteConfig

__all__ = [
    "VerifyReport",
    "SuiteConfig",
    "Suite",
    "SUITES",
    "ALL_SUITES",
    "MODES",
    "REPORT_PARAMS",
    "check_kamano",
    "check_sums_of_products",
    "check_two_three_sums",
    "check_ode",
    "check_recurrence_paths",
    "check_genfun_ode",
    "check_logderiv",
    "check_appell_basics",
    "run_suite",
    "VacuousRun",
    "replay",
    "perturbed_numbers",
]

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

# auto mode: a grid report, (n + 1)^r points proved on the lattice, up to this
# many points, and a sample past it; the limit picks only the report's form
GRID_POINT_LIMIT = 20_000


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one identity instance.

    ``status`` is "pass", "fail", or "skipped" (precondition not met).  On
    failure ``counterexample`` holds the offending inputs and both sides'
    exact serialized values; re-running the same cell reproduces it exactly.
    ``details`` is None, or for a skipped cell ``{"reason": ...}``, its
    suite's skip reason; a ``sums`` report carries its mode, ``{"mode":
    "grid"}`` or the sample's replay payload (mode, seed, sample count and
    points).
    """

    identity_name: str
    params: dict
    status: str
    cells_checked: int
    counterexample: dict | None = None
    details: dict | None = None


def _require(name: str, *cell) -> dict:
    """The cell's params, named by its suite's row; ``ValueError`` unless the
    cell meets the row's ``requires`` (a row without one takes every cell).
    Each check states its precondition and its report's params through this
    call."""
    suite = SUITES[name]
    params = dict(zip(suite.params, cell))
    if suite.requires is not None and not suite.requires(*cell):
        got = ", ".join(f"{p}={v}" for p, v in params.items())
        raise ValueError(f"{name} {suite.skip_reason} (got {got})")
    return params


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _cell_rng(seed: int, name: str, *index: int) -> random.Random:
    """Deterministic per-cell generator, independent of execution order."""
    key = f"{seed}:{name}:" + ":".join(str(i) for i in index)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _random_rational(rng: random.Random) -> Fraction:
    # numerator and denominator both bounded by 100
    return Fraction(rng.randint(-100, 100), rng.randint(1, 100))


def perturbed_numbers(N: int, k: int, n_top: int) -> HBNumberTable:
    """Number table with B[N,k] bumped by +1, for fault-sensitivity tests."""
    if k < 2:
        raise ValueError("only indices k >= 2 may be perturbed")
    base = hb_numbers(N, max(n_top, k))
    values = list(base.values)
    values[k] += 1
    return HBNumberTable(N=N, values=tuple(values))


# The tables of the suite run_suite is running; None outside a run, where
# every check builds its tables afresh.  A context variable, so that runs in
# different threads keep separate stores.
_TABLES: ContextVar[dict | None] = ContextVar("hyperbern_tables", default=None)

# builders whose last argument is a top index and whose table for a top is a
# prefix of the table for any larger top, by the field holding the sequence
_PREFIX_FIELD = {
    "hb_numbers": "values",
    "hb_polys": "polys",
    "hb_higher_polys_series": "polys",
}


def _table(builder: str, *args):
    """The table ``builder(*args)``, for the builder this module binds to
    that name at call time (a tracer's wrapper or a test's patch included).

    Inside :func:`run_suite` it comes from the current suite's store, keyed
    by the builder object and its leading arguments, so no route reads
    another's table.  A prefix-stable builder is built at the largest top
    index asked for so far and smaller tops get a prefix of that table;
    ``a_poly`` and ``a_poly_at_zero`` are built once per (N, r).  The
    recurrence route does not come through here: each recurrence and appell
    cell reads its own (N, r) table, so a store would only hold it, and those
    checks call ``hb_higher_polys_recurrence`` directly.
    """
    build = globals()[builder]
    store = _TABLES.get()
    if store is None:
        return build(*args)
    field = _PREFIX_FIELD.get(builder)
    if field is None:
        key = build, args
        if key not in store:
            store[key] = build(*args)
        return store[key]
    top = args[-1]
    key = build, args[:-1]
    table = store.get(key)
    if table is None or len(getattr(table, field)) <= top:
        table = store[key] = build(*args)
    return replace(table, **{field: getattr(table, field)[: top + 1]})


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _closed_form(N: int, r: int, n: int, entries, polys) -> UniPoly:
    """The sums-of-products closed form as one polynomial in the summed point:

        N^(1-r) sum_i (-1)^i C(n,i) i! A_r(i, x; s) B_{n-i}(x),

    with s = 1 + N(r-1) - n substituted into each coefficient entry."""
    s_val = 1 + N * (r - 1) - n
    scale = N ** (r - 1)
    return poly_combination(
        (Fraction((-1) ** i * math.perm(n, i), scale), bipoly_subst_s(entry, s_val) * polys[n - i])
        for i, entry in enumerate(entries)
    )


def _degree_excess(polys, n: int, sides) -> dict | None:
    """The first polynomial past its bound in a lattice proof's degree
    premise (polys[i] <= i, each named side <= n) as a counterexample, or None."""
    premises = [(f"B_{i}(x)", p, i) for i, p in enumerate(polys)]
    for name, p, bound in premises + [(name, side, n) for name, side in sides]:
        if len(p.nums) - 1 > bound:
            return {"polynomial": name, "degree": p.degree, "bound": bound}
    return None


def _first_mismatch(polys, n: int, rows, sides):
    """Compare the multinomial sum of the values of polys[0..n] at each point
    of each row with every side polynomial at the point's coordinate sum, in
    integers.

    A coordinate x = a/b becomes the integer vector u with
    u_i = (n!/i!) * sum_k c_ik a^k b^(n-k), c_ik the coefficients of p_i over
    one denominator D, that is p_i(x)/i! times the scale M = D * n! * b^n.
    Each u_i is one dot product of its coefficients with the power row
    a^k b^(n-k), k = 0..n, computed once per coordinate; so the walk's
    premise is that no p_i has more than n + 1 coefficients, and a table
    past it raises ValueError.  A row is (prefix, lasts): the points
    prefix + (x,) for x in lasts, in order.  A row's last coordinates share
    one denominator (a range of integers, or a single rational), so they
    share the scale, and the sum at prefix + (lasts[j],) is
    n! * dots[j] / scale with integer dots[j].

    The walk holds, local to the call:

    - ``vectors``: a coordinate to its vector and scale, built on first sight;
    - ``stack``, along the current row's prefix: entry j holds the truncated
      convolution of the vectors of prefix[:j] and the product of their
      scales, with the unit at entry 0.  Each row pops back to the leading
      run its prefix shares with the row before and pushes one ``_conv`` per
      new coordinate (a run of one is the coordinate's own vector), so rows
      in lexicographic order, as the lattice's are, convolve each prefix
      once along the walk;
    - ``targets``: a scale, then a coordinate sum, to the target.

    A point's target is the integer its dot must be for every side to hold,
    or None if no integer is (a side needs a non-integer, or two sides need
    different ones); a point whose dot differs from its target is a
    mismatch.  Targets depend only on the scale and the coordinate sum, so
    rows of integer points share them.  Fractions are built only for the
    counterexample.

    Since the comparison at a point depends only on the multiset of its
    coordinates, the lattice checks pass only the rows of its nondecreasing
    points, and a failing cell reports the first mismatch of those rows with
    the count of the walk over every point (see :func:`_walk_lattice`).

    Returns the number of points checked and the first (point, lhs, side
    values) in walk order where some side differs, or None.  The tests pin
    the walk against brute-force composition enumeration.
    """
    fact_n = math.factorial(n)
    polys = polys[: n + 1]
    if any(len(p.nums) > n + 1 for p in polys):
        raise ValueError(f"a table polynomial has degree above n = {n}")
    d = math.lcm(*(p.den for p in polys))
    int_coeffs = [[c * (d // p.den) for c in p.nums] for p in polys]
    fall = [fact_n // math.factorial(i) for i in range(n + 1)]
    vectors: dict = {}  # coordinate -> (vector, scale)

    def vector(x):
        held = vectors.get(x)
        if held is None:
            a, b = x.numerator, x.denominator
            a_pows, b_pows = (
                list(itertools.accumulate(itertools.repeat(c, n), operator.mul, initial=1))
                for c in (a, b)
            )
            powers = list(map(operator.mul, a_pows, reversed(b_pows)))  # a^k b^(n-k)
            u = [f * sum(map(operator.mul, coeffs, powers)) for coeffs, f in zip(int_coeffs, fall)]
            held = vectors[x] = u, d * fact_n * b_pows[-1]
        return held

    int_sides = [(side.nums, side.den) for side in sides]

    def target(x_sum, scale: int) -> int | None:
        # a side with numerators c_k over den at x_sum = a/b is H / (den * b^deg)
        # by Horner's scheme in integers, so the dot it needs is
        # H * scale / (n! * den * b^deg)
        a, b = x_sum.numerator, x_sum.denominator
        needed = set()
        for nums, den in int_sides:
            h, bpow = _horner(nums, a, b)
            q, rem = divmod(h * scale, fact_n * den * bpow)
            needed.add(None if rem else q)
        return needed.pop() if len(needed) == 1 else None

    targets: dict = {}  # scale -> {coordinate sum -> target}
    checked = 0
    # stack[j]: (convolution, scale) of along[:j], along the last row's prefix
    stack, along = [([1] + [0] * n, 1)], ()
    for prefix, lasts in rows:
        keep = 0  # the leading run that prefix shares with along
        for held, x in zip(along, prefix):
            if held != x:
                break
            keep += 1
        del stack[keep + 1 :]
        for u, m_u in map(vector, prefix[keep:]):
            conv, m = stack[-1]
            stack.append((_conv(conv, u, n + 1), m * m_u) if len(stack) > 1 else (u, m_u))
        along = prefix
        conv, m = stack[-1]
        rev = conv[::-1]  # dots[j] = sum_k conv[n-k] u_j[k], u_j the vector of lasts[j]
        last_vectors = [vector(x) for x in lasts]
        dots = [sum(map(operator.mul, rev, u)) for u, _ in last_vectors]
        scale = m * last_vectors[0][1]
        x0 = sum(prefix)
        at = targets.setdefault(scale, {})  # coordinate sum -> target, at this scale
        sums = [x0 + x for x in lasts]
        wanted = [at[s] if s in at else at.setdefault(s, target(s, scale)) for s in sums]
        if dots == wanted:
            checked += len(dots)
            continue
        j = next(j for j, (dot, want) in enumerate(zip(dots, wanted)) if dot != want)
        lhs = Fraction(fact_n * dots[j], scale)
        mismatch = prefix + (lasts[j],), lhs, [poly_eval(side, sums[j]) for side in sides]
        return checked + j + 1, mismatch
    return checked, None


def _point_rows(n: int, fold: int):
    """The nondecreasing points a_1 <= ... <= a_fold of the principal lattice
    {a : sum(a) <= n} of that fold, as the rows (prefix, range of last
    coordinates) of :func:`_first_mismatch`, in lexicographic order."""
    return _lattice_rows((), 0, n, fold)


def _lattice_rows(prefix, low, budget, free):
    """The rows of :func:`_point_rows` below ``prefix``, its coordinates at
    least ``low`` and summing to at most ``budget``.  A coordinate with
    ``free`` coordinates left, itself included, leaves each of them at least
    its value, so it runs only to ``budget // free``."""
    if free == 1:
        yield prefix, range(low, budget + 1)
        return
    for c in range(low, budget // free + 1):
        yield from _lattice_rows(prefix + (c,), c, budget - c, free - 1)


def _lex_rank(point, n: int) -> int:
    """The number of points of the principal lattice of ``point``'s fold
    that come before it in lexicographic order: for each coordinate a with
    ``free`` coordinates left, itself included, and ``budget`` n less the
    earlier ones, the points that complete each smaller value of it,
    sum over c < a of C(budget - c + free - 1, free - 1), which is
    C(budget + free, free) - C(budget - a + free, free)."""
    rank, budget = 0, n
    for i, a in enumerate(point):
        free = len(point) - i
        rank += math.comb(budget + free, free) - math.comb(budget - a + free, free)
        budget -= a
    return rank


def _walk_lattice(polys, n: int, fold: int, sides):
    """:func:`_first_mismatch` over every point of the principal lattice
    {a : sum(a) <= n} of that fold, comparing only its nondecreasing points
    (the rows of :func:`_point_rows`).

    The comparison at a point does not change when its coordinates are
    permuted, for any table: the dot is [t^n] of the product of the
    coordinates' vectors and the scale the product of their scales, and the
    targets depend only on that scale and the coordinate sum.  The lattice
    is closed under permutation, so every point passes exactly when every
    nondecreasing point does, and a pass counts all C(n + fold, fold)
    points.  A point sorts to its least permutation in lexicographic order,
    so the first mismatch of the walk over the whole lattice in order is
    nondecreasing: it is the sorted walk's, and the whole walk's count is
    its rank in the lattice plus 1."""
    _, mismatch = _first_mismatch(polys, n, _point_rows(n, fold), sides)
    if mismatch is None:
        return math.comb(n + fold, fold), None
    return _lex_rank(mismatch[0], n) + 1, mismatch


def check_kamano(N: int, r: int, n: int) -> VerifyReport:
    """Number sums-of-products: the multinomial convolution of r level-N
    number sequences against its closed form with x-free coefficient
    polynomials, after Kamano, "Sums of products of hypergeometric Bernoulli
    numbers" (J. Number Theory 130, 2010).  Requires n >= r-1."""
    params = _require("kamano", N, r, n)
    # the numbers as constant polynomials, so the convolution runs on integers
    # and the closed form is the polynomial one taken at x = 0
    values = _table("hb_numbers", N, n).values
    polys = [UniPoly.from_integers((v.numerator,), v.denominator) for v in values]
    rhs = _closed_form(N, r, n, _table("a_poly_at_zero", N, r).entries, polys)
    # the one point (0, ..., 0), as an integer row
    row = (0,) * (r - 1), range(1)
    _, mismatch = _first_mismatch(polys, n, [row], [rhs])
    if mismatch is None:
        return VerifyReport("kamano", params, PASS, 1)
    _, lhs, (rhs_val,) = mismatch
    counter = {"lhs": format_rational(lhs), "rhs": format_rational(rhs_val)}
    return VerifyReport("kamano", params, FAIL, 1, counterexample=counter)


def check_sums_of_products(
    N: int,
    r: int,
    n: int,
    mode: str = SuiteConfig.mode,
    sample_count: int = SuiteConfig.sample_count,
    seed: int = SuiteConfig.seed,
) -> VerifyReport:
    """Polynomial sums-of-products identity at one (N, r, n) cell.

    The left side is evaluated two independent ways at every point: the
    direct multinomial convolution of order-1 polynomial values, and the
    collapse to the single order-r polynomial at the summed point.  Both must
    equal the closed form with the bivariate coefficient polynomials.

    grid mode asks for the integer grid {0..n}^r, (n + 1)^r points; sample
    mode for ``sample_count`` seeded rational points with numerator and
    denominator bounded by 100, kept for replay.  The degree premise is
    checked first in both modes: each B_i(x) has degree <= i and both other
    sides degree <= n, so every side has total degree <= n, and a polynomial
    past its bound fails the cell.  The principal lattice {a : sum(a) <= n}
    is unisolvent for total degree <= n (Chung & Yao, SIAM J. Numer. Anal.
    14, 1977), so its verdict is the identity's.

    Each cell then walks once.  A grid cell walks the lattice; so does a
    sample cell whose lattice has no more sorted rows than ``sample_count``
    (counted only that far), and any other sample cell walks its sample.
    A lattice pass proves every requested point, and the cell reports the
    requested set's pass: (n + 1)^r or ``sample_count`` points, with the
    same ``details``.  A failing lattice reports its sorted walk's first
    counterexample, with the count of the walk over the whole lattice in
    order, its rank plus 1 (see :func:`_walk_lattice`); on a grid cell that
    point is a grid point too.  A walked sample reports its own pass or
    first counterexample.  auto mode, :class:`SuiteConfig`'s default like
    ``sample_count`` and ``seed``, takes the grid when it has at most
    ``GRID_POINT_LIMIT`` points and samples otherwise, so a call with the
    defaults gives the report that :func:`run_suite` gives for the cell.
    The report records the mode taken.  mode, ``sample_count`` and ``seed``
    obey :class:`SuiteConfig`'s rule, which raises its ``ValueError`` on a
    bad one (in grid mode too).
    """
    params = _require("sums", N, r, n)
    SuiteConfig(mode=mode, sample_count=sample_count, seed=seed)
    if mode == "auto":
        mode = "grid" if (n + 1) ** r <= GRID_POINT_LIMIT else "sample"
    polys1 = _table("hb_polys", N, n).polys
    higher = _table("hb_higher_polys_series", N, r, n).polys[n]
    rhs = _closed_form(N, r, n, _table("a_poly", N, r).entries, polys1)

    sides = [higher, rhs]
    # the collapsed side and the closed form depend on the point only through
    # its sum, and the direct side is symmetric in the points: the lattice is
    # walked at its nondecreasing points, each sorted prefix convolved once
    if mode == "grid":
        details, cells, rows = {"mode": "grid"}, (n + 1) ** r, None
    else:
        rng = _cell_rng(seed, "sums", N, r, n)
        points = [
            tuple(_random_rational(rng) for _ in range(r)) for _ in range(sample_count)
        ]
        details = {
            "mode": "sample",
            "seed": seed,
            "sample_count": sample_count,
            "points": [[format_rational(c) for c in pt] for pt in points],
        }
        cells = sample_count
        # the sample is walked, each point a row of its own, only when the
        # lattice has more sorted rows than it has points; the count stops
        # after sample_count + 1
        more = next(itertools.islice(_point_rows(n, r), sample_count, None), None) is not None
        rows = ((pt[:-1], pt[-1:]) for pt in points) if more else None
    counter = _degree_excess(polys1, n, [("collapsed side", higher), ("closed form", rhs)])
    if counter is not None:
        return VerifyReport("sums", params, FAIL, 0, counterexample=counter, details=details)
    if rows is not None:
        checked, mismatch = _first_mismatch(polys1, n, rows, sides)
    else:
        checked, mismatch = _walk_lattice(polys1, n, r, sides)
    if mismatch is None:
        # every requested point passes: a lattice pass proves them all
        return VerifyReport("sums", params, PASS, cells, details=details)
    point, lhs_direct, (lhs_collapsed, rhs_val) = mismatch
    counter = {
        "x_points": [format_rational(p) for p in point],
        "x_sum": format_rational(sum(point)),
        "lhs_direct": format_rational(lhs_direct),
        "lhs_collapsed": format_rational(lhs_collapsed),
        "rhs": format_rational(rhs_val),
    }
    return VerifyReport("sums", params, FAIL, checked, counterexample=counter, details=details)


def check_two_three_sums(N: int, n: int) -> VerifyReport:
    """The explicit two-fold and three-fold closed forms.

    Two-fold (n >= 1):
        sum = (1/N)(N-n) B_n(x) + (n/N)(x-1) B_{n-1}(x)
    Three-fold (n >= 2):
        sum = (1/(2N^2)) [ (N-n)(2N-n) B_n(x)
              + n((2N-n)(x-1) + (x-2)(N-n+1)) B_{n-1}(x)
              + n(n-1)(x-1)(x-2) B_{n-2}(x) ]

    Certified on the principal lattice {a in N^f : sum(a) <= n} of each fold
    f.  When every B_i(x) walked has degree <= i, the left side is a
    polynomial of total degree <= n in the f points, and when the closed form
    has degree <= n so is the right side; the lattice is unisolvent for total
    degree <= n (Chung & Yao, SIAM J. Numer. Anal. 14, 1977), so agreement on
    its C(n+f, f) points proves the identity.  Those degree bounds are
    checked first, and a polynomial past its bound fails the cell.  Both
    sides are symmetric in the points and the lattice is closed under
    permuting them, so each fold is compared at its nondecreasing points and
    a pass counts all C(n+f, f); a failing fold reports the sorted walk's
    first counterexample, with the count of the walk over the whole lattice
    in order, its rank plus 1 (see :func:`_walk_lattice`).
    """
    params = _require("two-three", N, n)
    polys1 = _table("hb_polys", N, n).polys

    b_n, b_n1 = polys1[n], polys1[n - 1]
    x_1, x_2 = UniPoly((-1, 1)), UniPoly((-2, 1))  # x - 1, x - 2
    closed_forms = {2: Fraction(N - n, N) * b_n + Fraction(n, N) * (x_1 * b_n1)}
    if n >= 2:
        closed_forms[3] = Fraction(1, 2 * N * N) * (
            (N - n) * (2 * N - n) * b_n
            + n * (((2 * N - n) * x_1 + (N - n + 1) * x_2) * b_n1)
            + n * (n - 1) * (x_1 * x_2 * polys1[n - 2])
        )

    sides = [(f"fold-{fold} closed form", cf) for fold, cf in closed_forms.items()]
    counter = _degree_excess(polys1, n, sides)
    if counter is not None:
        return VerifyReport("two-three", params, FAIL, 0, counterexample=counter)

    checked = 0
    for fold, closed_form in closed_forms.items():
        fold_checked, mismatch = _walk_lattice(polys1, n, fold, [closed_form])
        checked += fold_checked
        if mismatch is not None:
            point, lhs, (rhs,) = mismatch
            counter = {
                "fold": fold,
                "x_points": [str(g) for g in point],
                "lhs": format_rational(lhs),
                "rhs": format_rational(rhs),
            }
            return VerifyReport("two-three", params, FAIL, checked, counterexample=counter)
    return VerifyReport("two-three", params, PASS, checked)


def check_ode(N: int, r: int, n: int, numbers: HBNumberTable | None = None) -> VerifyReport:
    """Linear ODE satisfied by the order-r polynomial of index n:

        sum_{k=2..n} B[N,k]/k! y^(k) - (x/(rN) - 1/(N(N+1))) y' + (n/(rN)) y = 0

    that is, -(M y' - n y)/(rN) = 0 exactly, with y from the series route
    and M from the code that the recurrence route steps by, here applied to
    the differentiation chain of y'.  A ``numbers``
    table may be injected for fault testing; ``ValueError`` unless it is at
    level N and holds B[N,0..n], the numbers M's weights read.  Requires
    n >= 1.
    """
    params = _require("ode", N, r, n)
    if numbers is not None:
        _check_numbers(numbers, N, n)
    values = (numbers or _table("hb_numbers", N, n)).values
    y = _table("hb_higher_polys_series", N, r, n).polys[n]
    m_yp = _apply_operator(_derivatives(poly_derivative(y)), _operator_weights(N, r, values))
    residual = poly_combination(((Fraction(-1, r * N), m_yp), (Fraction(n, r * N), y)))

    if residual.is_zero:
        return VerifyReport("ode", params, PASS, 1)
    counter = {"residual_coeffs": format_coeffs(residual)}
    return VerifyReport("ode", params, FAIL, 1, counterexample=counter)


def check_recurrence_paths(
    N: int, r: int, n_max: int, numbers: HBNumberTable | None = None
) -> VerifyReport:
    """Coefficientwise agreement of three independent constructions of the
    order-r table: the series path, the linear recurrence, and the iterated
    order-raising step from the order-1 table.  An injected ``numbers`` table
    feeds only the recurrence path, which raises ``ValueError`` unless it is
    at level N and holds B[N,0..n_max]."""
    params = _require("recurrence", N, r, n_max)
    series_polys = _table("hb_higher_polys_series", N, r, n_max).polys
    rec_polys = hb_higher_polys_recurrence(N, r, n_max, numbers=numbers).polys

    step_table = _table("hb_polys", N, n_max)
    for _ in range(r - 1):
        step_table = HBPolyTable(
            N=N,
            r=step_table.r + 1,
            polys=tuple(hb_order_step(step_table, n) for n in range(n_max + 1)),
        )
    step_polys = step_table.polys

    counter = None
    for n in range(n_max + 1):
        if not (series_polys[n] == rec_polys[n] == step_polys[n]):
            counter = {
                "n": n,
                "series": format_coeffs(series_polys[n]),
                "recurrence": format_coeffs(rec_polys[n]),
                "order_step": format_coeffs(step_polys[n]),
            }
            break

    status = PASS if counter is None else FAIL
    return VerifyReport("recurrence", params, status, n_max + 1, counterexample=counter)


def _series_report(name: str, params: dict, lhs: PowerSeries, rhs: PowerSeries) -> VerifyReport:
    """Compare two series of one order as integer numerators; on a difference
    the first differing coefficient is the counterexample, its only Fractions."""
    if lhs == rhs:
        return VerifyReport(name, params, PASS, lhs.order + 1)
    for k, (left, right) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if left != right:
            counter = {"k": k, "lhs": format_rational(left), "rhs": format_rational(right)}
            return VerifyReport(name, params, FAIL, lhs.order + 1, counterexample=counter)


def check_genfun_ode(N: int, order: int) -> VerifyReport:
    """First-order relation for the reciprocal series F (cleared of 1/t):

        t F' = N F - t F - N F^2

    verified coefficientwise through the truncation order."""
    params = _require("genfun-ode", N, order)
    f = series_invert(normalized_denominator(N, order))
    F, t = f.poly, UniPoly((0, 1))
    lhs = PowerSeries.of(t * poly_derivative(F), order)
    rhs = poly_combination(((N, F), (-1, t * F), (-N, series_mul(f, f).poly)))
    return _series_report("genfun-ode", params, lhs, PowerSeries.of(rhs, order))


def check_logderiv(N: int, r: int, order: int) -> VerifyReport:
    """Logarithmic derivative of the order-r generating factor A = F^r:

        A'/A = r ( -1/(N+1) - N sum_{m>=1} B[N,m+1]/(m+1) t^m/m! )

    compared coefficientwise through the truncation order; the right side
    holds the multiplicative operator's weights, from the number recurrence."""
    params = _require("logderiv", N, r, order)
    a = series_pow(series_invert(normalized_denominator(N, order + 1)), r)
    a_prime = PowerSeries.of(poly_derivative(a.poly), order)  # exact through t^order
    lhs = series_mul(a_prime, series_invert(series_truncate(a, order)))
    weights = _operator_weights(N, r, _table("hb_numbers", N, order + 1).values)
    return _series_report("logderiv", params, lhs, PowerSeries.of(UniPoly(weights), order))


def check_appell_basics(N: int, r: int, n_max: int) -> VerifyReport:
    """Structural Appell-sequence properties of the order-r table.

    Bundles: the derivative chain (the p-th derivative of index n equals
    n!/(n-p)! times index n-p, for all 0 <= p <= n, with D^p read from
    ``core._derivatives``, the chain the ``ode`` check passes to M),
    monicity with the exact degree, value at zero against the constant term
    of the recurrence route (the series table takes its constant terms from
    the order-r numbers, so comparing with those would compare the series
    route with itself), and
    (order 1 only) the weighted zero-mean condition: the (1-x)^(N-1)-weighted
    integral over [0,1] is 1/N at n = 0 and 0 for n > 0.
    """
    params = _require("appell", N, r, n_max)
    table = _table("hb_higher_polys_series", N, r, n_max)
    values = [poly_eval(p, 0) for p in hb_higher_polys_recurrence(N, r, n_max).polys]

    checked = 0

    def fail(kind: str, **data) -> VerifyReport:
        counter = {"property": kind, **data}
        return VerifyReport("appell", params, FAIL, checked, counterexample=counter)

    for n, p in enumerate(table.polys):
        checked += 1
        if p.degree != n or p.nums[-1] != p.den:
            return fail("monic", n=n, coeffs=format_coeffs(p))
        checked += 1
        if poly_eval(p, 0) != values[n]:
            return fail(
                "value_at_zero",
                n=n,
                poly_value=format_rational(poly_eval(p, 0)),
                number=format_rational(values[n]),
            )
        for step, dp in enumerate(itertools.islice(_derivatives(p), 1, n + 1), 1):
            expect = math.perm(n, step) * table.polys[n - step]
            checked += 1
            if dp != expect:
                return fail(
                    "derivative_chain",
                    n=n,
                    p=step,
                    got=format_coeffs(dp),
                    expected=format_coeffs(expect),
                )
        if r == 1:
            integral = poly_integral_weighted(p, N)
            expect_int = Fraction(1, N) if n == 0 else Fraction(0)
            checked += 1
            if integral != expect_int:
                return fail(
                    "weighted_integral",
                    n=n,
                    got=format_rational(integral),
                    expected=format_rational(expect_int),
                )

    return VerifyReport("appell", params, PASS, checked)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def _cells(suite: Suite, cfg: SuiteConfig):
    """The suite's cells under the config, as param tuples in report order."""
    overrides = (cfg.N_max, cfg.r_max, cfg.n_max)
    if suite.desk_cells is not None and overrides == (None, None, None):
        return suite.desk_cells
    N_top, r_top, top = (d if o is None else o for o, d in zip(overrides, suite.desk))

    def axis(param: str):
        if param == "N":
            return range(1, N_top + 1)
        if param == "r":
            return range(1, r_top + 1)
        return range(top + 1) if param == "n" else (top,)

    return itertools.product(*map(axis, suite.params))


def _reads_fault(suite: Suite, cell, fault: tuple[int, int] | None) -> bool:
    """Whether the cell reads the number B[N,k] that ``fault`` = (N, k)
    perturbs: an injectable suite's cell at level N with index at least k.

    A cell below k reads no perturbed value: ``recurrence`` reads B up to its
    n_max only, and ``ode`` at n < k meets the bumped weight v_{k-1} only on
    D^{k-1} y', which is zero.
    """
    return fault is not None and suite.injectable and cell[0] == fault[0] and cell[-1] >= fault[1]


def _check_cell(suite: Suite, params: dict, cfg: SuiteConfig) -> VerifyReport:
    """Run one cell; :func:`run_suite` and :func:`replay` both come through here."""
    args = [params[p] for p in suite.params]
    if suite.requires is not None and not suite.requires(*args):
        return VerifyReport(suite.name, params, SKIPPED, 0, details={"reason": suite.skip_reason})
    kwargs: dict = {}
    if _reads_fault(suite, args, cfg.inject_fault):
        kwargs["numbers"] = perturbed_numbers(params["N"], cfg.inject_fault[1], args[-1])
    if suite.sampled:
        kwargs.update(mode=cfg.mode, sample_count=cfg.sample_count, seed=cfg.seed)
    # by module-global name at call time, so a rebound attribute (a tracer's wrapper) runs
    return globals()[suite.check](*args, **kwargs)


class VacuousRun(ValueError):
    """The run would pass without checking what it was asked to check."""


def run_suite(config: SuiteConfig = SuiteConfig()) -> list[VerifyReport]:
    """Run the selected suites over their ranges; deterministic given the seed.

    Cells whose preconditions fail are reported as skipped, never as passed.
    Reports come back sorted by (suite, N, r, index).  Each suite builds
    each table once per builder and leading arguments and slices it for
    smaller indices; the tables are dropped when the suite ends.  The
    recurrence route, which no two cells share, is built per cell and not
    stored.  Two runs would pass without checking what they were asked to,
    and raise :class:`VacuousRun` before any cell runs: a selected suite
    whose every cell would be skipped, and a fault that no cell of the run
    reads (see :func:`_reads_fault`), which would pass whether or not it
    trips.  Only the cells that read the fault get the perturbed table.
    """
    fault = config.inject_fault
    # in selection order, so that the first empty suite reported is the first selected
    cells = {name: sorted(_cells(SUITES[name], config)) for name in config.suites}
    for name, suite_cells in cells.items():
        suite = SUITES[name]
        if suite.requires and not any(suite.requires(*cell) for cell in suite_cells):
            raise VacuousRun(
                f"suite {name!r} checks nothing: every cell is skipped ({suite.skip_reason})"
            )
    reads = (_reads_fault(SUITES[name], cell, fault) for name in cells for cell in cells[name])
    if fault is not None and not any(reads):
        raise VacuousRun(f"no cell of the run reads the faulted number B[{fault[0]},{fault[1]}]")
    reports = []
    for name in sorted(cells):
        suite = SUITES[name]
        # one store per suite; largest index first, so that smaller cells
        # slice tables already built
        token = _TABLES.set({})
        try:
            by_cell = {
                cell: _check_cell(suite, dict(zip(suite.params, cell)), config)
                for cell in sorted(cells[name], key=lambda cell: -cell[-1])
            }
        finally:
            _TABLES.reset(token)
        reports += [by_cell[cell] for cell in cells[name]]
    return reports


def replay(report: VerifyReport, fault: tuple[int, int] | None = None) -> bool:
    """Re-run the cell a report came from and confirm the identical outcome:
    the same status, ``cells_checked`` and counterexample.

    For failed reports this reproduces the counterexample exactly (sampling
    is reseeded from the recorded seed).  ``fault`` must be supplied if the
    original run injected one, as :class:`SuiteConfig` takes it (the run's
    JSON ``inject_fault`` list too).
    """
    suite = SUITES.get(report.identity_name)
    if suite is None:
        raise ValueError(f"cannot replay unknown identity {report.identity_name!r}")
    # a sums report records the sampling that made it in its details
    d = report.details or {}
    sampling = {key: d[key] for key in ("mode", "sample_count", "seed") if key in d}
    fresh = _check_cell(suite, report.params, SuiteConfig(inject_fault=fault, **sampling))
    return (fresh.status, fresh.cells_checked, fresh.counterexample) == (
        report.status, report.cells_checked, report.counterexample
    )
