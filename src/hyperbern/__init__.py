"""Exact-rational hypergeometric Bernoulli numbers, polynomials, and identity certification."""

from .algebra import (
    BiPoly,
    PowerSeries,
    UniPoly,
    format_rational,
    parse_rational,
)
from .core import (
    APolyTable,
    HBNumberTable,
    HBPolyTable,
    a_poly,
    a_poly_at_zero,
    hb_higher_polys_recurrence,
    hb_higher_polys_series,
    hb_numbers,
    hb_order_step,
    hb_polys,
    mult_operator_apply,
    normalized_denominator,
)
from .suites import ALL_SUITES, SuiteConfig

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "UniPoly",
    "BiPoly",
    "PowerSeries",
    "format_rational",
    "parse_rational",
    "HBNumberTable",
    "HBPolyTable",
    "APolyTable",
    "normalized_denominator",
    "hb_numbers",
    "hb_polys",
    "hb_higher_polys_series",
    "hb_higher_polys_recurrence",
    "hb_order_step",
    "a_poly",
    "a_poly_at_zero",
    "mult_operator_apply",
    "VerifyReport",
    "SuiteConfig",
    "ALL_SUITES",
    "run_suite",
]


def __getattr__(name: str):
    # the checks load on first use, so that the table commands never compile them
    if name in ("VerifyReport", "run_suite"):
        from . import identities

        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
