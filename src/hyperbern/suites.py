"""The suite registry: what ``verify`` runs, and the configuration of a run.

:data:`SUITES` holds one :class:`Suite` row per identity: the name of its
check in :mod:`hyperbern.identities`, its cell layout, its desk defaults and
its precondition.  :class:`SuiteConfig` states a run's ranges and sampling
policy.  The command line declares ``verify``'s options from these names, so
they live apart from the checks: this module imports nothing of ``algebra``
or ``core``, and a table command loads it without loading the checks.
``identities`` imports every name back, so the checks, :func:`run_suite` and
:func:`replay` read the same objects.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Suite:
    """One row of the suite registry: how a suite's cells are laid out,
    defaulted, skipped and run.

    ``params`` names the check's positional arguments in report order, ``N``
    first and the index last: ``n`` ranges over 0..top with one cell per
    index, while ``n_max`` and ``order`` size a whole table or series, one
    cell per (N, r).
    ``desk`` holds the default tops of (N, r, index), r being None for suites
    without an order.  A cell failing ``requires`` is reported as skipped with
    ``skip_reason``, and its check called directly raises ``ValueError``
    through :func:`_require`.
    """

    name: str
    check: str  # name of the module-level check function
    params: tuple[str, ...]
    desk: tuple[int, int | None, int]
    requires: Callable[..., bool] | None = None
    skip_reason: str | None = None
    injectable: bool = False  # the check takes an injected ``numbers`` table
    sampled: bool = False  # the check takes mode, sample_count and seed
    desk_cells: tuple[tuple[int, ...], ...] | None = None  # replaces the desk grid


# the sums desk set is the union of two grids: orders up to 3 at small n, and
# order 4 further out
_SUMS_DESK_CELLS = tuple(
    [(N, r, n) for N in range(1, 4) for r in range(1, 4) for n in range(11)]
    + [(N, 4, n) for N in range(1, 5) for n in range(17)]
)

SUITES = {
    suite.name: suite
    for suite in (
        Suite("kamano", "check_kamano", ("N", "r", "n"), (4, 4, 24),
              lambda N, r, n: n >= r - 1, "requires n >= r-1"),
        Suite("sums", "check_sums_of_products", ("N", "r", "n"), (4, 4, 16),
              lambda N, r, n: n >= r - 1, "requires n >= r-1",
              sampled=True, desk_cells=_SUMS_DESK_CELLS),
        Suite("two-three", "check_two_three_sums", ("N", "n"), (4, None, 20),
              lambda N, n: n >= 1, "requires n >= 1"),
        Suite("ode", "check_ode", ("N", "r", "n"), (4, 3, 15),
              lambda N, r, n: n >= 1, "requires n >= 1", injectable=True),
        Suite("recurrence", "check_recurrence_paths", ("N", "r", "n_max"), (4, 4, 30),
              injectable=True),
        Suite("genfun-ode", "check_genfun_ode", ("N", "order"), (5, None, 30),
              lambda N, order: order >= 2, "requires order >= 2"),
        Suite("logderiv", "check_logderiv", ("N", "r", "order"), (4, 3, 30),
              lambda N, r, order: order >= 1, "requires order >= 1"),
        Suite("appell", "check_appell_basics", ("N", "r", "n_max"), (5, 3, 20)),
    )
}

ALL_SUITES = tuple(SUITES)

# point strategies for the sums family; "auto" picks grid or sample per cell
MODES = ("auto", "grid", "sample")

# every parameter a report can carry, in column order
REPORT_PARAMS = tuple(dict.fromkeys(p for suite in SUITES.values() for p in suite.params))


@dataclass(frozen=True)
class SuiteConfig:
    """Parameter ranges and sampling policy for :func:`run_suite`.

    ``N_max``, ``r_max`` and ``n_max`` override the per-suite desk defaults
    (which mirror the ranges certified by the acceptance tests); ``n_max``
    doubles as the truncation order for the series-based checks and as the
    table size for the table-wide checks.  Each of them, ``seed`` and
    ``sample_count`` is an int (not a bool).  mode, seed and sample_count
    are passed to the polynomial sums-of-products check, which resolves
    "auto" per cell (see :func:`check_sums_of_products`) and takes these
    defaults as its own.  ``inject_fault``, a pair of ints (N, k) with
    N >= 1 and k >= 2, bumps B[N,k] by +1 in the number table of each cell
    that reads it (see :func:`_reads_fault`); a list pair, as a run's JSON
    params write it, is taken as a tuple, so ``SuiteConfig(**params)``
    rebuilds the run.  ``suites`` is a sequence of suite names, not one
    string.
    """

    suites: tuple[str, ...] = ALL_SUITES
    N_max: int | None = None
    r_max: int | None = None
    n_max: int | None = None
    mode: str = "auto"
    seed: int = 42
    sample_count: int = 64
    inject_fault: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if isinstance(self.suites, str):
            raise ValueError(f"suites must be a sequence of suite names, not the string {self.suites!r}")
        # a suite named twice runs once
        object.__setattr__(self, "suites", tuple(dict.fromkeys(self.suites)))
        unknown = set(self.suites) - set(ALL_SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        if not self.suites:
            raise ValueError("no suite selected")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        # each is an int (a bool is not), a range top possibly None; level 0 and
        # order 0 are out of domain, and a range over them checks nothing, as
        # does a sample of no points
        bounds = ("N_max", 1), ("r_max", 1), ("n_max", 0), ("sample_count", 1), ("seed", None)
        for name, low in bounds:
            v = getattr(self, name)
            if not (type(v) is int or v is None and name.endswith("_max")):
                raise ValueError(f"{name} must be an int")
            if None not in (v, low) and v < low:
                raise ValueError(f"{name} must be >= {low}")
        # a run's JSON params write the pair as a list
        fault = tuple(self.inject_fault) if isinstance(self.inject_fault, list) else self.inject_fault
        object.__setattr__(self, "inject_fault", fault)
        # level 0 is out of domain and perturbed_numbers bumps only k >= 2;
        # reject the pair here rather than midway through the run
        pair = isinstance(fault, tuple) and [type(v) for v in fault] == [int, int]
        if fault is not None and not (pair and fault[0] >= 1 and fault[1] >= 2):
            raise ValueError("inject_fault (N, k) needs a pair of ints with N >= 1 and k >= 2")
