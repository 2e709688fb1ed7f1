"""Hypergeometric Bernoulli numbers and polynomials, by several routes.

The family is indexed by a level ``N >= 1`` and an order ``r >= 1``.  The
level-N numbers ``B[N,n]`` are ``n!`` times the series coefficients of the
reciprocal F of the normalized denominator series D (the series whose k-th
coefficient is ``N!/(N+k)!``); at ``N = 1`` they are the classical Bernoulli
numbers.  The polynomials form an Appell sequence over the numbers, and the
order-r variants come from the r-th power of the same reciprocal series.

The number table is not built by inverting D.  The coefficient of ``t**k``
in ``D * F = 1`` is ``sum_{m<=k} N!/(N+k-m)! * B[N,m]/m! = [k = 0]``;
multiplied by ``(N+k)!/N!`` it becomes the integer-binomial recurrence

    sum_{m=0..k} C(N+k, m) B[N,m] = 0    (k >= 1),   B[N,0] = 1,

which ``hb_numbers`` runs on Python ints over one common denominator.

Each quantity is computed by independent routes (series inversion, the
linear recurrence, the order-raising step, the multiplicative operator) so
the identity layer can cross-certify them.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    BiPoly,
    PowerSeries,
    UniPoly,
    _integer_coeffs,
    bipoly_shift_s,
    poly_combination,
    poly_derivative,
    series_invert,
    series_pow,
)

__all__ = [
    "HBNumberTable",
    "HBPolyTable",
    "APolyTable",
    "normalized_denominator",
    "hb_numbers",
    "hb_polys",
    "hb_higher_numbers",
    "hb_higher_polys_series",
    "hb_higher_polys_recurrence",
    "hb_order_step",
    "a_poly",
    "a_poly_at_zero",
    "mult_operator_apply",
]

@dataclass(frozen=True)
class HBNumberTable:
    """Numbers B[N,n] for n = 0..len(values)-1 at level N."""

    N: int
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class HBPolyTable:
    """Polynomials B[N,n]^(r)(x) for n = 0..len(polys)-1 at level N, order r."""

    N: int
    r: int
    polys: tuple[UniPoly, ...]


@dataclass(frozen=True)
class APolyTable:
    """Coefficient polynomials A_r(i) of the sums-of-products expansion.

    ``entries[i]`` is the bivariate polynomial in (x, s) for 0 <= i <= r-1;
    indices outside that range are the zero polynomial.  The x-free variant
    (used for the number identity) stores entries of x-degree zero.
    """

    N: int
    r: int
    entries: tuple[BiPoly, ...]


def _check_level_order(N: int, order: int, r: int = 1) -> None:
    """The builders' rule: level N >= 1, top index or series order >= 0, order r >= 1."""
    if N < 1:
        raise ValueError("level N must be >= 1")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if r < 1:
        raise ValueError("order r must be >= 1")


def _check_numbers(numbers: HBNumberTable, N: int, top: int) -> None:
    """An injected number table must be at level N and hold B[N,0..top]."""
    if numbers.N != N or len(numbers.values) <= top:
        got = f"level {numbers.N} up to index {len(numbers.values) - 1}"
        raise ValueError(f"numbers must be a level-{N} table up to index {top}, not {got}")


def _check_index(table: HBPolyTable, n: int) -> None:
    if n < 0 or n >= len(table.polys):
        raise IndexError(f"index {n} not covered by table of size {len(table.polys)}")


def normalized_denominator(N: int, order: int) -> PowerSeries:
    """Series with coefficient N!/(N+k)! at t**k (constant term 1).

    This is the exponential series with its degree-(N-1) Taylor polynomial
    removed, shifted down by the valuation N and rescaled by N!; its
    reciprocal generates the level-N numbers.  It is held as the numerators
    perm(N+order, order-k) over perm(N+order, order).
    """
    _check_level_order(N, order)
    nums = [math.perm(N + order, order - k) for k in range(order + 1)]
    return PowerSeries.of(UniPoly.from_integers(nums, nums[0]), order)


def hb_numbers(N: int, n_max: int) -> HBNumberTable:
    """Numbers B[N,0..n_max] by the integer-binomial recurrence

        B[N,0] = 1,   B[N,k] = -sum_{m<k} C(N+k, m) B[N,m] / C(N+k, k),

    the coefficient of t**k in ``normalized_denominator * F = 1`` times
    (N+k)!/N! (see the module docstring).  Every B[N,m] is held as an
    integer numerator P_m over one common denominator D.  The binomial row
    C(N+k, 0..k) is carried from step to step: its inner entries are sums
    of neighbouring entries of the previous row (Pascal's rule) and its last
    entry is C(N+k-1, k-1) (N+k)/k, an exact integer division.  At step k,
    S = -sum_{m<k} C(N+k, m) P_m and c = C(N+k, k); with g = gcd(S, c) the
    old numerators and D are scaled by c/g and P_k = S/g, so B[N,k] =
    P_k/D exactly and every value stays an integer.  Fractions are built
    (and reduced) only for the output.  No series kernel is used, so the
    ``logderiv`` check compares series inversion against a different
    construction.
    """
    _check_level_order(N, n_max)
    nums = [1]
    den = 1
    row = [1]  # C(N+k-1, m) for m < k
    for k in range(1, n_max + 1):
        row = [1, *map(operator.add, row[1:], row), row[-1] * (N + k) // k]
        s = -sum(map(operator.mul, row, nums))
        c = row[k]
        g = math.gcd(s, c)
        scale = c // g
        if scale != 1:
            nums = [scale * p for p in nums]
            den *= scale
        nums.append(s // g)
    return HBNumberTable(N=N, values=tuple(Fraction(p, den) for p in nums))


def _appell_polys(values: tuple[Fraction, ...]) -> tuple[UniPoly, ...]:
    """Appell sequence over a value sequence: p_n(x) = sum_k C(n,k) v_{n-k} x^k,
    built in integers over the values' common denominator."""
    nums, den = _integer_coeffs(values)
    return tuple(
        UniPoly.from_integers([math.comb(n, k) * nums[n - k] for k in range(n + 1)], den)
        for n in range(len(nums))
    )


def hb_polys(N: int, n_max: int) -> HBPolyTable:
    """Order-1 polynomial table, built by the Appell expansion of hb_numbers."""
    values = hb_numbers(N, n_max).values
    return HBPolyTable(N=N, r=1, polys=_appell_polys(values))


def hb_higher_numbers(N: int, r: int, n_max: int) -> HBNumberTable:
    """Order-r numbers: n! times coefficients of the r-th power of the
    reciprocal series.  ValueError unless N >= 1, r >= 1 and n_max >= 0."""
    _check_level_order(N, n_max, r)
    f = series_invert(normalized_denominator(N, n_max))
    g = series_pow(f, r)
    values = tuple(math.factorial(n) * c for n, c in enumerate(g.coeffs))
    return HBNumberTable(N=N, values=values)


def hb_higher_polys_series(N: int, r: int, n_max: int) -> HBPolyTable:
    """Order-r polynomial table via the power-of-series route (reference path)."""
    values = hb_higher_numbers(N, r, n_max).values
    return HBPolyTable(N=N, r=r, polys=_appell_polys(values))


def hb_higher_polys_recurrence(
    N: int, r: int, n_max: int, numbers: HBNumberTable | None = None
) -> HBPolyTable:
    """Order-r polynomial table built purely from the linear recurrence.

    Starting from the constant 1, each step applies the multiplicative
    operator of :func:`_operator_weights` to the Appell sequence p_n:

        p_{n+1} = (x - r/(N+1)) p_n - sum_{k<n} w_{n,k} p_k,
        w_{n,k} = r N C(n,k) B[N,n-k+1]/(n-k+1),

    which consumes only the order-1 numbers; the series engine is never
    touched, so this path is independent of hb_higher_polys_series.  Divided
    by n!, with q_n = p_n/n! and the operator's weights v_j, a step reads

        (n+1) q_{n+1} = M q_n = x q_n + sum_{k<=n} v_{n-k} q_k.

    The sequence built this way satisfies D q_{n+1} = q_n for any weights
    (induction on the step), so q_n, q_{n-1}, ..., q_0 are the derivatives of
    q_n, and a step is :func:`_apply_operator` on them: one
    :func:`poly_combination` and no differentiation, divided by n+1.  The
    weights are built once, and p_n = n! q_n.  Step n touches O(n^2)
    coefficients, so the table costs O(n_max^3) integer operations (on
    numbers that grow with n).  ValueError unless N >= 1, r >= 1 and
    n_max >= 0.  An explicit ``numbers`` table may be injected (used for
    fault-sensitivity testing); ValueError unless it is at level N and holds
    B[N,0..n_max], the numbers the steps read.
    """
    _check_level_order(N, n_max, r)
    if numbers is not None:
        _check_numbers(numbers, N, n_max)
    v = _operator_weights(N, r, (numbers or hb_numbers(N, n_max)).values)
    q = [UniPoly((1,))]
    for n in range(n_max):
        q.append(_apply_operator(reversed(q), v) / (n + 1))
    polys = tuple(math.factorial(n) * p for n, p in enumerate(q))
    return HBPolyTable(N=N, r=r, polys=polys)


def hb_order_step(table: HBPolyTable, n: int) -> UniPoly:
    """Raise the order by one at index n:

        p^(r+1)_n = (1/N)(N - n/r) p^(r)_n + (1/N)(n/r)(x - r) p^(r)_{n-1}

    It is computed as ((N r - n) p_n + n (x - r) p_{n-1}) / (N r), a
    combination with integer weights, so no Fraction is built.  For n = 0 the
    result is the constant 1; otherwise indices n and n-1 must exist in the table.
    """
    if n == 0:
        return UniPoly((1,))
    _check_index(table, n)
    N, r = table.N, table.r
    x_minus_r = UniPoly((-r, 1))
    terms = ((N * r - n, table.polys[n]), (n, x_minus_r * table.polys[n - 1]))
    return poly_combination(terms) / (N * r)


def _a_table(N: int, r: int, keep_x: bool) -> APolyTable:
    """The A-coefficient recurrence, run shift-free and shifted once per entry.

    In the variable u = s - (r-1)N + i, every term of A_r(i) carries the
    same shift, so G_r(i)(u) = A_r(i)(u + (r-1)N - i) obeys

        G_1(0) = 1
        G_r(i) = (u+(r-1)N-i-1)/(r-1) * G_{r-1}(i) - (x-(r-1))/(r-1) * G_{r-1}(i-1)

    with out-of-range entries zero and no shift of s.  With a = G_{r-1}(i)
    and b = G_{r-1}(i-1), the coefficient of x^k in G_r(i) is

        ((u+(r-1)N-i-1) a_k - b_{k-1})/(r-1) + b_k,

    one :func:`poly_combination` per row.  Without ``keep_x`` the b_{k-1}
    term is dropped: that is the recurrence at x = 0, where the factor
    -(x-(r-1))/(r-1) equals 1.  At the end each entry is shifted back once,
    A_r(i)(s) = G_r(i)(s + i - (r-1)N): r calls of :func:`bipoly_shift_s`.
    """
    _check_level_order(N, 0, r)
    zero = UniPoly()
    entries = [BiPoly((UniPoly((1,)),))]
    for rr in range(2, r + 1):
        inv = Fraction(1, rr - 1)
        new = []
        for i in range(rr):
            a = entries[i].rows if i < rr - 1 else ()
            b = entries[i - 1].rows if i else ()
            factor = UniPoly(((rr - 1) * N - i - 1, 1))
            lower = (zero, *b) if keep_x else ()  # b_{k-1}: the rows of x b
            rows = itertools.zip_longest(a, b, lower, fillvalue=zero)
            terms = (((inv, factor * ak), (1, bk), (-inv, bk1)) for ak, bk, bk1 in rows)
            new.append(BiPoly(tuple(map(poly_combination, terms))))
        entries = new
    shifted = (bipoly_shift_s(g, i - (r - 1) * N) for i, g in enumerate(entries))
    return APolyTable(N=N, r=r, entries=tuple(shifted))


def a_poly(N: int, r: int) -> APolyTable:
    """Coefficient polynomial table A_r(i, x; s), i = 0..r-1, by the
    shift-free recurrence in u = s - (r-1)N + i (out-of-range entries zero)

        G_1(0) = 1
        G_r(i) = (u+(r-1)N-i-1)/(r-1) * G_{r-1}(i) - (x-(r-1))/(r-1) * G_{r-1}(i-1),

    one row formula per power of x (see ``_a_table``), and one shift of each
    entry at the end, A_r(i)(s) = G_r(i)(s + i - (r-1)N).  That is the
    paper's recurrence A_r(i) = (s-1)/(r-1) * A_{r-1}(i)|_{s -> s-N}
    - (x-(r-1))/(r-1) * A_{r-1}(i-1)|_{s -> s-N+1}, whose two terms carry the
    same shift.  ValueError unless N >= 1 and r >= 1.
    """
    return _a_table(N, r, keep_x=True)


def a_poly_at_zero(N: int, r: int) -> APolyTable:
    """The x-free coefficient table, built by its own shift-free recurrence

        G_1(0) = 1
        G_r(i) = (u+(r-1)N-i-1)/(r-1) * G_{r-1}(i) + G_{r-1}(i-1)

    in u = s - (r-1)N + i, with one shift of each entry at the end,
    A_r(i)(s) = G_r(i)(s + i - (r-1)N), rather than by substituting x = 0
    into a_poly: it is the row formula of ``_a_table`` without the b_{k-1}
    term, and never reads a_poly's result.  No ``verify`` suite compares the
    two; the package's unit tests and a sympy expansion of the paper's
    recurrence, A_r(i) = (s-1)/(r-1) * A_{r-1}(i)|_{s -> s-N}
    + A_{r-1}(i-1)|_{s -> s-N+1}, check that they agree.  ValueError unless
    N >= 1 and r >= 1.
    """
    return _a_table(N, r, keep_x=False)


def _operator_weights(N: int, r: int, values) -> list[Fraction]:
    """Weights v_j of the multiplicative operator M = x + sum_j v_j D^j from
    the level-N numbers: v_0 = -r/(N+1), v_j = -r N B[N,j+1]/(j+1)! for
    1 <= j <= len(values) - 2.  On the order-r table M p_n = p_{n+1}, so
    M D p_n = n p_n is its ODE; and (F^r)'/F^r = sum_j v_j t^j."""
    weights = (Fraction(-r * N) * b / math.factorial(k) for k, b in enumerate(values[2:], 2))
    return [Fraction(-r, N + 1), *weights]


def _derivatives(p: UniPoly):
    """p, D p, D^2 p, ... without end, each derivative taken when it is read."""
    while True:
        yield p
        p = poly_derivative(p)


def _apply_operator(derivatives, weights) -> UniPoly:
    """M p = x p + sum_j v_j D^j p, the one statement of M: ``derivatives``
    yields D^0 p = p, D^1 p, ... in order and is read once per weight, so a
    caller that holds them passes them (the recurrence route) and one that
    does not passes :func:`_derivatives` of p (``mult_operator_apply``, the
    ``ode`` check).  One :func:`poly_combination`."""
    terms = list(zip(weights, derivatives))
    p = terms[0][1]
    return poly_combination([(1, UniPoly.from_integers((0, *p.nums), p.den)), *terms])


def mult_operator_apply(table: HBPolyTable, n: int) -> UniPoly:
    """The index-raising operator M of :func:`_operator_weights` applied to
    table.polys[n] through :func:`_apply_operator`, the code of the recurrence
    route and the ``ode`` check; the result must equal table.polys[n+1] (the
    tests assert it)."""
    _check_index(table, n)
    weights = _operator_weights(table.N, table.r, hb_numbers(table.N, n + 1).values)
    return _apply_operator(_derivatives(table.polys[n]), weights)
