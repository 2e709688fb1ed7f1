"""Independent reference computations used to pin expected test values.

The classical Bernoulli numbers come from the binomial-sum recurrence, the
multinomial sums from literal composition enumeration, and the weighted
moments from the Beta-function closed form.  The rising factorial and the
x-substitution of a bivariate polynomial serve only tests.  Two former package builders are
kept here as references for the integer engines that replaced them: the
number table by exact series inversion, and the order-r recurrence in
Fraction arithmetic.  So are the former Fraction bodies of the series
kernels ``series_mul`` and ``series_invert``, which the package now runs on
integer numerators; the number oracle inverts through the Fraction one.
Likewise :class:`FractionPoly` and the ``*_fractions`` polynomial functions
are the former Fraction bodies of ``UniPoly`` and its operations, which the
package now runs on integer numerators over one denominator.

The ``*_sympy`` functions are oracles outside the package: the polynomial
tables from their generating function and the A-tables from their
recurrence, both expanded by sympy.  They import sympy when called, so a
test that uses them skips with ``pytest.importorskip("sympy")`` first.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from hyperbern.algebra import BiPoly, PowerSeries, UniPoly
from hyperbern.core import HBNumberTable, normalized_denominator


def classical_bernoulli(n_max: int) -> list[Fraction]:
    """B_0..B_n via sum_{k=0..n} C(n+1,k) B_k = 0 (so B_1 = -1/2)."""
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum(
            (math.comb(n + 1, k) * values[k] for k in range(n)), Fraction(0)
        )
        values.append(-acc / (n + 1))
    return values


def series(coeffs) -> PowerSeries:
    """The series exact through t**(len(coeffs) - 1) with these coefficients."""
    return PowerSeries.of(UniPoly(tuple(coeffs)), len(coeffs) - 1)


def series_mul_fractions(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product in Fraction arithmetic, truncated to the smaller order."""
    order = min(a.order, b.order)
    ac, bc = a.coeffs, b.coeffs
    out = []
    for k in range(order + 1):
        out.append(sum((ac[i] * bc[k - i] for i in range(k + 1)), Fraction(0)))
    return series(out)


def series_invert_fractions(a: PowerSeries) -> PowerSeries:
    """Inverse by b_0 = 1/a_0, b_k = -(1/a_0) sum_{j=1..k} a_j b_{k-j}, in
    Fraction arithmetic; a zero constant term raises ZeroDivisionError."""
    if a.coeffs[0] == 0:
        raise ZeroDivisionError("series with zero constant term is not invertible")
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for k in range(1, a.order + 1):
        acc = sum((a.coeffs[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))
        out.append(-inv0 * acc)
    return series(out)


def hb_numbers_by_inversion(N: int, n_max: int) -> list[Fraction]:
    """B[N,0..n_max] as n! times the coefficients of 1/normalized_denominator,
    inverted by the Fraction reference kernel."""
    f = series_invert_fractions(normalized_denominator(N, n_max))
    return [math.factorial(n) * c for n, c in enumerate(f.coeffs)]


def hb_higher_polys_recurrence_fractions(
    N: int, r: int, n_max: int, numbers: HBNumberTable | None = None
) -> list[UniPoly]:
    """The order-r recurrence

        p_{n+1} = (x - r/(N+1)) p_n - r N sum_{k<n} C(n,k) B[N,n-k+1]/(n-k+1) p_k

    in UniPoly/Fraction arithmetic, over ``numbers`` or, by default, the
    series-inversion numbers."""
    if numbers is None:
        values = hb_numbers_by_inversion(N, n_max + 1)
    else:
        values = numbers.values
    shift = UniPoly((Fraction(-r, N + 1), Fraction(1)))
    polys = [UniPoly((Fraction(1),))]
    for n in range(n_max):
        nxt = shift * polys[n]
        for k in range(n):
            w = Fraction(r * N * math.comb(n, k)) * values[n - k + 1] / (n - k + 1)
            nxt = nxt - w * polys[k]
        polys.append(nxt)
    return polys


# Closed forms for the first few classical Bernoulli polynomials.
CLASSICAL_BERNOULLI_POLYS = [
    UniPoly((1,)),
    UniPoly((Fraction(-1, 2), 1)),
    UniPoly((Fraction(1, 6), -1, 1)),
    UniPoly((0, Fraction(1, 2), Fraction(-3, 2), 1)),
    UniPoly((Fraction(-1, 30), 0, 1, -2, 1)),
]


def compositions(n: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to n."""
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in compositions(n - head, parts - 1):
            yield (head,) + rest


def multinomial_sum_bruteforce(vectors: list[list[Fraction]], n: int) -> Fraction:
    """sum over i_1+...+i_r = n of n!/(i_1!...i_r!) * prod_j vectors[j][i_j].

    ``vectors[j][i]`` holds the plain (unscaled) value of the j-th factor at
    index i.
    """
    total = Fraction(0)
    fact_n = math.factorial(n)
    for combo in compositions(n, len(vectors)):
        weight = fact_n
        for i in combo:
            weight //= math.factorial(i)
        term = Fraction(weight)
        for vec, i in zip(vectors, combo):
            term *= vec[i]
        total += term
    return total


def beta_moment(k: int, n_weight: int) -> Fraction:
    """integral_0^1 x^k (1-x)^(n_weight-1) dx = k! (n_weight-1)! / (k+n_weight)!."""
    return Fraction(
        math.factorial(k) * math.factorial(n_weight - 1),
        math.factorial(k + n_weight),
    )


def pochhammer(a: int | Fraction, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1), with the empty product equal to 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = Fraction(1)
    for k in range(n):
        result *= a + k
    return result


def bipoly_subst_x(a: BiPoly, xval: int | Fraction) -> UniPoly:
    """Substitute a rational value for x, leaving a polynomial in s."""
    out = [Fraction(0)] * max((len(row.nums) for row in a.rows), default=0)
    power = Fraction(1)
    for row in a.rows:
        for j, c in enumerate(row.coeffs):
            out[j] += c * power
        power *= xval
    return UniPoly(tuple(out))


# --- the former Fraction UniPoly and its operations ------------------------


@dataclass(frozen=True)
class FractionPoly:
    """Dense polynomial with ``coeffs[k]`` (a Fraction) multiplying ``x**k``,
    trailing zeros trimmed; every operation is term-by-term Fraction
    arithmetic."""

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __add__(self, other: FractionPoly) -> FractionPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return FractionPoly(tuple(out))

    def __neg__(self) -> FractionPoly:
        return FractionPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: FractionPoly) -> FractionPoly:
        return self + (-other)

    def __mul__(self, other) -> FractionPoly:
        if isinstance(other, FractionPoly):
            if not self.coeffs or not other.coeffs:
                return FractionPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return FractionPoly(tuple(out))
        c = Fraction(other)
        return FractionPoly(tuple(a * c for a in self.coeffs))

    __rmul__ = __mul__


def poly_eval_fractions(p: FractionPoly, v) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


def poly_derivative_fractions(p: FractionPoly) -> FractionPoly:
    return FractionPoly(tuple(k * c for k, c in enumerate(p.coeffs) if k >= 1))


def poly_integral_weighted_fractions(p: FractionPoly, n_weight: int) -> Fraction:
    """integral_0^1 (1-x)^(n_weight-1) p(x) dx, monomial by monomial."""
    total = Fraction(0)
    for j in range(n_weight):
        w = Fraction((-1) ** j * math.comb(n_weight - 1, j))
        for k, c in enumerate(p.coeffs):
            total += w * c / (j + k + 1)
    return total


def bipoly_subst_s_fractions(rows: list[FractionPoly], sval) -> FractionPoly:
    """rows[i] is the polynomial in s multiplying x**i; substitute s = sval."""
    return FractionPoly(tuple(poly_eval_fractions(row, sval) for row in rows))


def bipoly_shift_s_fractions(rows: list[FractionPoly], offset) -> list[FractionPoly]:
    """Compose s -> s + offset row by row, by binomial re-expansion of each
    s power, with trailing zero rows trimmed."""
    out = []
    for row in rows:
        new_row = [Fraction(0)] * len(row.coeffs)
        for j, c in enumerate(row.coeffs):
            for k in range(j + 1):
                new_row[k] += c * math.comb(j, k) * Fraction(offset) ** (j - k)
        out.append(FractionPoly(tuple(new_row)))
    while out and not out[-1].coeffs:
        out.pop()
    return out


@functools.lru_cache(maxsize=None)
def hb_polys_sympy(N: int, r: int, n_max: int) -> tuple:
    """The order-r polynomials of level N for n <= n_max as sympy expressions
    in the symbol x: n! [t^n] of (t^N / (N! (e^t - T_{N-1}(t))))^r e^(xt),
    T_{N-1} the degree-(N-1) Taylor polynomial of e^t, by ``sympy.series``."""
    import sympy

    x, t = sympy.symbols("x t")
    taylor = sum(t**j / sympy.factorial(j) for j in range(N))
    gf = (t**N / (sympy.factorial(N) * (sympy.exp(t) - taylor))) ** r * sympy.exp(x * t)
    expansion = sympy.series(gf, t, 0, n_max + 1).removeO()
    return tuple(sympy.expand(expansion.coeff(t, n) * math.factorial(n)) for n in range(n_max + 1))


def a_tables_sympy(level: int):
    """Yield the A-tables of orders 1, 2, ... in turn, each as a pair (full
    table, x-free table) of lists of sympy expressions in the symbols x and s,
    from the recurrence in its ring form:
    A_r(i) = (s-1)/(r-1) A_{r-1}(i)|_{s->s-N} - (x-(r-1))/(r-1) A_{r-1}(i-1)|_{s->s-N+1},
    and the same with x -> 0 for the x-free table."""
    import sympy

    x, s = sympy.symbols("x s")

    def step(prev, xval, order):
        inv = sympy.Rational(1, order - 1)

        def shifted(i, offset):
            return prev[i].subs(s, s + offset) if 0 <= i < len(prev) else 0

        return [
            sympy.expand(
                inv * (s - 1) * shifted(i, -level)
                - inv * (xval - (order - 1)) * shifted(i - 1, 1 - level)
            )
            for i in range(order)
        ]

    full = free = [sympy.Integer(1)]
    for order in itertools.count(2):
        yield full, free
        full, free = step(full, x, order), step(free, sympy.Integer(0), order)

