"""Exact arithmetic kernels: rationals, dense polynomials, truncated power series.

Everything here is pure and immutable.  The ground field is the exact
rationals, so every operation in this module is exact; there is no floating
point anywhere.  The arithmetic itself runs on Python ints, through one
integer Cauchy product (``_conv``) and one linear combination
(:func:`poly_combination`, which every sum of polynomials goes through), and
``fractions.Fraction`` appears only at the edges: as the coefficients a
caller passes in or reads out, and as the value of an evaluation.

Three container types, all on the one rational representation, integer
numerators over one denominator:

* :class:`UniPoly` -- dense univariate polynomial, held as integer numerators
  ``nums`` (ascending powers) over one positive denominator ``den``.  Its
  canonical form has gcd(den, *nums) = 1 and no trailing zero numerator, and
  the zero polynomial is ``()`` over 1, so equal polynomials have equal
  (nums, den) and ``==`` and ``hash`` compare that pair.  Every operation
  combines numerators in ints and reduces once per result; ``coeffs`` builds
  the reduced ``Fraction`` coefficients on each read.
* :class:`BiPoly` -- polynomial in ``x`` whose coefficients, its rows, are
  ``UniPoly``s in ``s``: a container with no arithmetic of its own; its
  builders combine the rows with ``UniPoly``'s.
* :class:`PowerSeries` -- truncated formal power series in ``t``: a
  ``UniPoly`` plus the order through which it is exact.  Binary operations
  take the min of the operand orders and never claim precision beyond it.
  ``series_mul`` and ``series_invert`` run on the numerators; a numerator row
  and its denominator are only ever scaled by the same integer, so each
  output equals the rational the ``Fraction`` recurrence would give.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

RationalLike = int | Fraction  # the exact scalars: a float or a string is not exact

__all__ = [
    "UniPoly",
    "BiPoly",
    "PowerSeries",
    "format_rational",
    "format_coeffs",
    "parse_rational",
    "poly_combination",
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


def format_coeffs(p: UniPoly, width: int = 0) -> list[str]:
    """p's coefficients as format_rational writes them, each reduced from
    (nums, den) by one gcd, padded with "0" to width."""
    den = p.den
    out = []
    for c in p.nums:
        g = math.gcd(c, den)
        out.append(str(c // g) if den == g else f"{c // g}/{den // g}")
    return out + ["0"] * (width - len(out))


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
# integer kernels
# ---------------------------------------------------------------------------


def _exact(c: RationalLike) -> RationalLike:
    """c itself; TypeError unless it is an exact scalar."""
    if not isinstance(c, RationalLike):
        raise TypeError(f"expected int or Fraction, not {type(c).__name__}")
    return c


def _integer_coeffs(coeffs) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _conv(a, b, size: int | None = None) -> list[int]:
    """Cauchy product of two integer sequences: entry k is sum_i a[i] b[k-i].

    ``size`` truncates the product to its first ``size`` entries; the
    default is the full product, len(a) + len(b) - 1 entries.  A plain loop:
    on the evaluator's truncated rows it measured faster than
    ``sum(map(operator.mul, ...))`` over slices, for small and for bignum
    entries alike.
    """
    la, lb = len(a), len(b)
    if size is None:
        size = la + lb - 1
    out = []
    for k in range(size):
        acc = 0
        for i in range(k - lb + 1 if k >= lb else 0, k + 1 if k < la else la):
            acc += a[i] * b[k - i]
        out.append(acc)
    return out


def _horner(nums, a: int, b: int) -> tuple[int, int]:
    """(H, b**deg) with H = sum_k nums[k] a^k b^(deg-k), deg = len(nums) - 1,
    so that the polynomial with coefficients nums[k] is H / b**deg at a/b;
    (0, 1) for no coefficients."""
    if not nums:
        return 0, 1
    h, bpow = nums[-1], 1
    for c in nums[-2::-1]:
        bpow *= b
        h = h * a + c * bpow
    return h, bpow


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, init=False)
class UniPoly:
    """Dense polynomial in one variable: ``nums[k] / den`` multiplies ``x**k``.

    Canonical form: integer numerators over one positive denominator with
    gcd(den, *nums) = 1 and no trailing zero numerator; the zero polynomial is
    ``()`` over 1.  So ``==`` and ``hash`` compare (nums, den).  The
    constructor takes ``int`` or ``Fraction`` coefficients and raises
    TypeError on anything else (a float or a string is not exact);
    :meth:`from_integers` takes numerators and a denominator.  The operators
    take the same exact scalars and another ``UniPoly``, and return
    NotImplemented for anything else.  ``degree`` of the zero polynomial is
    ``None`` (a sentinel, never -1 arithmetic).
    """

    nums: tuple[int, ...]
    den: int

    def __new__(cls, coeffs=()) -> UniPoly:
        return UniPoly.from_integers(*_integer_coeffs([_exact(c) for c in coeffs]))

    @staticmethod
    def from_integers(nums, den: int = 1) -> UniPoly:
        """The polynomial with coefficients ``nums[k] / den``, in canonical form."""
        if den < 1:
            raise ValueError("denominator must be positive")
        end = len(nums)
        while end and not nums[end - 1]:
            end -= 1
        g = math.gcd(den, *nums)  # den itself when every numerator is zero
        nums = nums[:end]
        p = object.__new__(UniPoly)
        object.__setattr__(p, "nums", tuple(nums) if g == 1 else tuple(c // g for c in nums))
        object.__setattr__(p, "den", den // g)
        return p

    def __reduce__(self):
        # pickles by value through from_integers, the same on every Python version
        return UniPoly.from_integers, (self.nums, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, built on every read."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int | None:
        return len(self.nums) - 1 if self.nums else None

    def __add__(self, other: UniPoly) -> UniPoly:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return poly_combination(((1, self), (1, other)))

    def __sub__(self, other: UniPoly) -> UniPoly:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return poly_combination(((1, self), (-1, other)))

    def __neg__(self) -> UniPoly:
        return UniPoly.from_integers([-c for c in self.nums], self.den)

    def __mul__(self, other: UniPoly | RationalLike) -> UniPoly:
        if isinstance(other, UniPoly):
            return UniPoly.from_integers(_conv(self.nums, other.nums), self.den * other.den)
        if not isinstance(other, RationalLike):
            return NotImplemented
        # cancel against den first, so that the reduction seldom has a factor left to divide out
        g = math.gcd(other.numerator, self.den)
        c = other.numerator // g
        return UniPoly.from_integers([c * a for a in self.nums], self.den // g * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> UniPoly:
        if not isinstance(other, RationalLike):
            return NotImplemented
        c, d = other.denominator, other.numerator
        if d < 0:
            c, d = -c, -d
        if not d:
            raise ZeroDivisionError("polynomial division by zero")
        return UniPoly.from_integers([c * a for a in self.nums], self.den * d)


def poly_combination(terms) -> UniPoly:
    """The sum of c * p over pairs (c, p) of a rational and a UniPoly.

    Each term's numerators are scaled to one common denominator, the lcm of
    the terms' c.denominator * p.den, and summed in ints; the sum is reduced
    once, and no Fraction is built.  Terms with a zero weight or polynomial
    are skipped; no terms sum to the zero polynomial.
    """
    scaled = []
    den, width = 1, 0
    for c, p in terms:
        f, nums = c.numerator, p.nums
        if f and nums:
            d = c.denominator * p.den
            if den % d:
                den = math.lcm(den, d)
            width = max(width, len(nums))
            scaled.append((f, d, nums))
    acc = [0] * width
    for f, d, nums in scaled:
        f *= den // d
        for i, a in enumerate(nums):
            acc[i] += f * a
    return UniPoly.from_integers(acc, den)


def poly_eval(p: UniPoly, v: RationalLike) -> Fraction:
    """Exact value of p at v: Horner's scheme in integers, one Fraction.
    TypeError unless v is an exact scalar."""
    _exact(v)
    h, bpow = _horner(p.nums, v.numerator, v.denominator)
    return Fraction(h, p.den * bpow)


def poly_derivative(p: UniPoly) -> UniPoly:
    """Exact formal derivative."""
    return UniPoly.from_integers([k * c for k, c in enumerate(p.nums[1:], 1)], p.den)


def poly_integral_weighted(p: UniPoly, n_weight: int) -> Fraction:
    """Exact value of ``integral_0^1 (1-x)**(n_weight-1) p(x) dx``.

    Expands ``(1-x)**(n_weight-1)`` binomially and integrates monomials term
    by term: the product's coefficient of x^(m-1) integrates to it over m,
    and the terms are summed over lcm(1..M) in integers; requires
    ``n_weight >= 1``.
    """
    if n_weight < 1:
        raise ValueError("weight exponent base must be >= 1")
    # (1-x)^(N-1) = sum_j C(N-1, j) (-1)^j x^j
    weight = [(-1) ** j * math.comb(n_weight - 1, j) for j in range(n_weight)]
    terms = _conv(weight, p.nums)
    lcm = math.lcm(*range(1, len(terms) + 1))
    return Fraction(sum(c * (lcm // m) for m, c in enumerate(terms, 1)), lcm * p.den)


# ---------------------------------------------------------------------------
# bivariate polynomials in (x, s)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiPoly:
    """Polynomial in x whose coefficients are polynomials in s.

    ``rows[i]`` is the :class:`UniPoly` in s multiplying ``x**i``, trailing zero
    rows trimmed (zero has no rows).  It is a container: the s-shift and
    s-substitution below, and the A-table recurrence in ``core``, work on the
    rows with ``UniPoly`` arithmetic.  The constructor also takes nested
    tuples of ints and Fractions.
    """

    rows: tuple[UniPoly, ...] = ()

    def __post_init__(self) -> None:
        rows = [r if type(r) is UniPoly else UniPoly(tuple(r)) for r in self.rows]
        while rows and rows[-1].is_zero:
            rows.pop()
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def s_degree(self) -> int | None:
        return max(len(r.nums) for r in self.rows) - 1 if self.rows else None


def bipoly_subst_s(a: BiPoly, sval: RationalLike) -> UniPoly:
    """Substitute a rational value for s, leaving a polynomial in x.

    Row i at s = p/q is H_i / (d_i q^deg_i) by :func:`_horner`; the rows are
    brought over lcm(d_i) q^deg, deg the largest row degree, in integers.
    TypeError unless sval is an exact scalar."""
    _exact(sval)
    if a.is_zero:
        return UniPoly()
    p, q = sval.numerator, sval.denominator
    top = q ** a.s_degree
    den = math.lcm(*(row.den for row in a.rows))
    nums = []
    for row in a.rows:
        h, bpow = _horner(row.nums, p, q)
        nums.append(h * (den // row.den) * (top // bpow))
    return UniPoly.from_integers(nums, den * top)


def bipoly_shift_s(a: BiPoly, offset: RationalLike) -> BiPoly:
    """Compose s -> s + offset by exact binomial re-expansion of each s power.

    With offset p/q and D the s-degree, q^D (s + p/q)^j is
    sum_k C(j, k) p^(j-k) q^(D-j+k) s^k, so each row's numerators are
    re-expanded by those integer weights and its denominator scaled by q^D.
    TypeError unless offset is an exact scalar.
    """
    _exact(offset)
    if a.is_zero or offset == 0:
        return a
    p, q, deg = offset.numerator, offset.denominator, a.s_degree
    # column k holds the weights of s^k, for j = k..deg
    columns = [
        [math.comb(j, k) * p ** (j - k) * q ** (deg - j + k) for j in range(k, deg + 1)]
        for k in range(deg + 1)
    ]
    top = q**deg
    return BiPoly(
        tuple(
            UniPoly.from_integers(
                [sum(map(operator.mul, row.nums[k:], columns[k])) for k in range(len(row.nums))],
                row.den * top,
            )
            for row in a.rows
        )
    )


# ---------------------------------------------------------------------------
# truncated formal power series
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class PowerSeries:
    """Formal power series in t, exact through ``t**order``: the canonical
    :class:`UniPoly` of its coefficients, plus the order, which keeps the
    precision that trimmed trailing zeros drop.  :meth:`of`, the one
    constructor, takes a polynomial and an order >= 0; ``coeffs`` builds the
    ``order + 1`` reduced Fractions on every read."""

    poly: UniPoly
    order: int

    @staticmethod
    def of(poly: UniPoly, order: int) -> PowerSeries:
        """The series ``poly + O(t**(order+1))``: poly truncated through t**order."""
        if order < 0:
            raise ValueError("a series needs at least its constant term")
        if len(poly.nums) > order + 1:
            poly = UniPoly.from_integers(poly.nums[: order + 1], poly.den)
        s = object.__new__(PowerSeries)
        vars(s).update(poly=poly, order=order)
        return s

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self.poly.coeffs + (Fraction(0),) * (self.order + 1 - len(self.poly.nums))

    @staticmethod
    def one(order: int) -> PowerSeries:
        return PowerSeries.of(UniPoly.from_integers((1,)), order)


def series_truncate(a: PowerSeries, order: int) -> PowerSeries:
    if order > a.order:
        raise ValueError(f"cannot extend order {a.order} series to order {order}")
    return PowerSeries.of(a.poly, order)


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product, truncated to the smaller operand order: the truncated
    integer product of the numerators over the product of the denominators."""
    order = min(a.order, b.order)
    p, q = a.poly, b.poly
    product = UniPoly.from_integers(_conv(p.nums, q.nums, order + 1), p.den * q.den)
    return PowerSeries.of(product, order)


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
    step is integer arithmetic; no Fraction is built.
    """
    ac, d = a.poly.nums, a.poly.den
    if not ac or not ac[0]:
        raise ZeroDivisionError("series with zero constant term is not invertible")
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
    return PowerSeries.of(UniPoly.from_integers(nums, den), a.order)


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

