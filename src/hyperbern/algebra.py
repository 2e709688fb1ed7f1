"""Exact arithmetic kernels: rationals, dense polynomials, truncated power series.

Everything here is pure and immutable.  The ground field is the exact
rationals (``fractions.Fraction``), so every operation in this module is
exact; there is no floating point anywhere.

The power-series kernels ``series_mul`` and ``series_invert`` do their
arithmetic on Python ints: each operand is written once as integer
numerators over one common denominator (``_integer_coeffs``), the
recurrence runs on those numerators, and one reduced ``Fraction`` is built
per output coefficient.  Integer sums and products are exact, and a
numerator row and its denominator are only ever scaled by the same integer,
so each output equals the rational the ``Fraction`` recurrence would give;
the ``Fraction`` constructor reduces it to the same canonical form.

Three container types:

* :class:`UniPoly` -- dense univariate polynomial, ascending coefficients.
* :class:`BiPoly` -- polynomial in ``x`` whose coefficients, its rows, are
  ``UniPoly``s in ``s``; its arithmetic is ``UniPoly``'s, row by row.
* :class:`PowerSeries` -- truncated formal power series in ``t`` with an
  explicit truncation order; binary operations take the min of the operand
  orders and never claim precision beyond it.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]

__all__ = [
    "UniPoly",
    "BiPoly",
    "PowerSeries",
    "format_rational",
    "parse_rational",
    "poly_eval",
    "poly_derivative",
    "poly_integral_weighted",
    "bipoly_subst_s",
    "bipoly_shift_s",
    "series_mul",
    "series_truncate",
    "series_invert",
    "series_pow",
]


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def format_rational(q: RationalLike) -> str:
    """Serialize to the reduced string "p/q", or just "p" when q = 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (q > 0).  Anything else raises ValueError."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniPoly:
    """Dense polynomial in one variable, ``coeffs[k]`` multiplying ``x**k``.

    Canonical form: no trailing zero coefficient; the zero polynomial is the
    empty tuple.  ``degree`` of the zero polynomial is ``None`` (a sentinel,
    never -1 arithmetic).
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        # a Fraction is already reduced; only other values are converted
        cs = [c if type(c) is Fraction else Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: UniPoly) -> UniPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return UniPoly(tuple(out))

    def __neg__(self) -> UniPoly:
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: UniPoly) -> UniPoly:
        return self + (-other)

    def __mul__(self, other: UniPoly | RationalLike) -> UniPoly:
        if isinstance(other, UniPoly):
            if self.is_zero or other.is_zero:
                return UniPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly(tuple(out))
        c = Fraction(other)
        return UniPoly(tuple(a * c for a in self.coeffs))

    __rmul__ = __mul__


def poly_eval(p: UniPoly, v: RationalLike) -> Fraction:
    """Exact Horner evaluation of p at v."""
    v = Fraction(v)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


def poly_derivative(p: UniPoly) -> UniPoly:
    """Exact formal derivative."""
    return UniPoly(tuple(k * c for k, c in enumerate(p.coeffs) if k >= 1))


def poly_integral_weighted(p: UniPoly, n_weight: int) -> Fraction:
    """Exact value of ``integral_0^1 (1-x)**(n_weight-1) p(x) dx``.

    Expands ``(1-x)**(n_weight-1)`` binomially and integrates monomials term
    by term; requires ``n_weight >= 1``.
    """
    if n_weight < 1:
        raise ValueError("weight exponent base must be >= 1")
    total = Fraction(0)
    for j in range(n_weight):
        # (1-x)^(N-1) = sum_j C(N-1, j) (-1)^j x^j
        w = Fraction((-1) ** j * math.comb(n_weight - 1, j))
        for k, c in enumerate(p.coeffs):
            total += w * c / (j + k + 1)
    return total


# ---------------------------------------------------------------------------
# bivariate polynomials in (x, s)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiPoly:
    """Polynomial in x whose coefficients are polynomials in s.

    ``rows[i]`` is the :class:`UniPoly` in s multiplying ``x**i``, trailing zero
    rows trimmed (zero has no rows); every operation works row by row through
    ``UniPoly`` arithmetic.  The constructor also takes nested rational tuples.
    """

    rows: tuple[UniPoly, ...] = ()

    def __post_init__(self) -> None:
        rows = [r if type(r) is UniPoly else UniPoly(tuple(r)) for r in self.rows]
        while rows and rows[-1].is_zero:
            rows.pop()
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def coeffs(self) -> tuple[tuple[Fraction, ...], ...]:
        """``coeffs[i][j]`` multiplies ``x**i * s**j``: a rectangular matrix
        with trailing all-zero rows and columns trimmed, ``()`` for zero."""
        width = max((len(r.coeffs) for r in self.rows), default=0)
        return tuple(r.coeffs + (Fraction(0),) * (width - len(r.coeffs)) for r in self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def x_degree(self) -> int | None:
        return len(self.rows) - 1 if self.rows else None

    @property
    def s_degree(self) -> int | None:
        return max(len(r.coeffs) for r in self.rows) - 1 if self.rows else None

    def __add__(self, other: BiPoly) -> BiPoly:
        pairs = itertools.zip_longest(self.rows, other.rows, fillvalue=UniPoly())
        return BiPoly(tuple(a + b for a, b in pairs))

    def __neg__(self) -> BiPoly:
        return BiPoly(tuple(-r for r in self.rows))

    def __sub__(self, other: BiPoly) -> BiPoly:
        return self + (-other)

    def __mul__(self, other: BiPoly | RationalLike) -> BiPoly:
        if isinstance(other, BiPoly):
            if self.is_zero or other.is_zero:
                return BiPoly()
            out = [UniPoly()] * (len(self.rows) + len(other.rows) - 1)
            for i, a in enumerate(self.rows):
                for j, b in enumerate(other.rows):
                    out[i + j] = out[i + j] + a * b
            return BiPoly(tuple(out))
        return BiPoly(tuple(r * other for r in self.rows))

    __rmul__ = __mul__

    @staticmethod
    def from_x_poly(p: UniPoly) -> BiPoly:
        """Embed a polynomial in x as a BiPoly constant in s."""
        return BiPoly(tuple((c,) for c in p.coeffs))

    @staticmethod
    def from_s_poly(p: UniPoly) -> BiPoly:
        """Embed a polynomial in s as a BiPoly constant in x."""
        return BiPoly((p,))


def bipoly_subst_s(a: BiPoly, sval: RationalLike) -> UniPoly:
    """Substitute a rational value for s, leaving a polynomial in x."""
    return UniPoly(tuple(poly_eval(row, sval) for row in a.rows))


def bipoly_shift_s(a: BiPoly, offset: RationalLike) -> BiPoly:
    """Compose s -> s + offset by exact binomial re-expansion of each s power."""
    if a.is_zero or offset == 0:
        return a
    # pascal[j][k] = C(j,k) * offset^(j-k), the expansion of (s + offset)^j
    pascal = [
        [math.comb(j, k) * offset ** (j - k) for k in range(j + 1)]
        for j in range(a.s_degree + 1)
    ]
    out = []
    for row in a.rows:
        new_row = [Fraction(0)] * len(row.coeffs)
        for j, c in enumerate(row.coeffs):
            if c:
                for k, w in enumerate(pascal[j]):
                    new_row[k] += c * w
        out.append(new_row)
    return BiPoly(tuple(out))


# ---------------------------------------------------------------------------
# truncated formal power series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerSeries:
    """Formal power series in t, exact through ``t**order``.

    ``coeffs`` always has exactly ``order + 1`` entries; the length is the
    precision bookkeeping, so trailing zeros are kept.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant term")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def one(order: int) -> PowerSeries:
        return PowerSeries((Fraction(1),) + (Fraction(0),) * order)


def series_truncate(a: PowerSeries, order: int) -> PowerSeries:
    if order > a.order:
        raise ValueError(f"cannot extend order {a.order} series to order {order}")
    return PowerSeries(a.coeffs[: order + 1])


def _integer_coeffs(coeffs) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product, truncated to the smaller operand order.

    With a = A/d_a and b = B/d_b over integer numerators, the product's
    coefficient k is ``sum_i A_i B_{k-i} / (d_a d_b)``: the sum runs exactly
    in ints, and one Fraction, reduced by its constructor, is built per
    coefficient.
    """
    order = min(a.order, b.order)
    ac, da = _integer_coeffs(a.coeffs[: order + 1])
    bc, db = _integer_coeffs(b.coeffs[: order + 1])
    den = da * db
    return PowerSeries(
        tuple(
            Fraction(sum(map(operator.mul, ac[: k + 1], bc[k::-1])), den)
            for k in range(order + 1)
        )
    )


def series_invert(a: PowerSeries) -> PowerSeries:
    """Multiplicative inverse through a.order.

    Uses the triangular recurrence b_0 = 1/a_0,
    b_k = -(1/a_0) * sum_{j=1..k} a_j b_{k-j}; requires a nonzero constant
    term.  With a = A/d over integer numerators (A_0 > 0 after a common sign
    change) and b_0..b_{k-1} held as integer numerators P_m over one
    denominator D, the step value is b_k = S/(A_0 D) with
    S = -sum_{j=1..k} A_j P_{k-j} (S = d at k = 0).  Reduced, b_k = n/q;
    when q does not divide D, the row and D are scaled by lcm(D, q)/D, so D
    stays the least common denominator of the row, and P_k = n D/q.  Every
    step is integer arithmetic, and one Fraction is built per coefficient.
    """
    if a.coeffs[0] == 0:
        raise ZeroDivisionError("series with zero constant term is not invertible")
    ac, d = _integer_coeffs(a.coeffs)
    if ac[0] < 0:
        ac, d = [-c for c in ac], -d
    lead, tail = ac[0], ac[1:]
    nums: list[int] = []
    den = 1
    for k in range(a.order + 1):
        s = -sum(map(operator.mul, tail[:k], reversed(nums))) if k else d
        q = lead * den
        g = math.gcd(s, q)
        n, q = s // g, q // g
        scale = q // math.gcd(den, q)
        if scale != 1:
            nums = [scale * p for p in nums]
            den *= scale
        nums.append(n * (den // q))
    return PowerSeries(tuple(Fraction(p, den) for p in nums))


def series_pow(a: PowerSeries, r: int) -> PowerSeries:
    """r-fold product of a with itself (exact), by binary exponentiation from
    the top bit: floor(log2 r) + popcount(r) - 1 products, none for r <= 1."""
    if r < 0:
        raise ValueError("exponent must be nonnegative")
    if r == 0:
        return PowerSeries.one(a.order)
    result = a
    for bit in bin(r)[3:]:
        result = series_mul(result, result)
        if bit == "1":
            result = series_mul(result, a)
    return result

