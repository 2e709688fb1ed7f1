"""Command-line front end: exact tables as CSV/JSON, plus the verification suite.

Four subcommands:

* ``numbers`` -- hypergeometric Bernoulli numbers at one level.
* ``polys``   -- polynomial coefficient tables (any order).
* ``apoly``   -- the bivariate coefficient polynomials of the
  sums-of-products expansion, optionally specialized at a rational s.
* ``verify``  -- run identity-certification suites; exits 1 on any failure.

All rationals are emitted as reduced "p/q" strings, never floats.  Output is
byte-deterministic for a fixed command line once ``--no-meta`` suppresses the
timestamped metadata header.  Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import TextIO

import click

from . import __version__
from .algebra import bipoly_subst_s, format_coeffs, format_rational, parse_rational
from .core import a_poly, hb_higher_polys_series, hb_numbers
from .identities import ALL_SUITES, FAIL, MODES, REPORT_PARAMS, SuiteConfig, VacuousRun, run_suite

SCHEMA_VERSION = 1

# the CSV headers; polys and a substituted apoly write "n" or "i", then _coeff_columns
_NUMBERS_COLUMNS = ("n", "value")
_APOLY_MATRIX_COLUMNS = ("i", "x_pow", "s_pow", "value")
_VERIFY_NOTES = ("details", "counterexample")  # JSON-encoded, empty for None
_VERIFY_COLUMNS = ("identity",) + REPORT_PARAMS + ("status", "cells_checked") + _VERIFY_NOTES


def _coeff_columns(width: int) -> list[str]:
    return [f"c{k}" for k in range(width)]


@dataclass(frozen=True)
class OutputRecord:
    """One command's output: a payload of serialized rows plus its parameters.

    The payload is already in wire form (rationals as "p/q" strings), so the
    same record renders to CSV and JSON with identical mathematical content,
    and parsing either format recovers the payload exactly.
    """

    kind: str  # numbers | polys | apoly | verify
    params: dict
    payload: list


def _meta() -> dict:
    return {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "tool": "hyperbern",
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# JSON rendering / parsing
# ---------------------------------------------------------------------------


def render_json(record: OutputRecord, out, with_meta: bool = True) -> None:
    """Write the record to the text stream ``out`` as indented JSON: the
    encoder's chunks, which ``json.dumps`` would join, in pieces of 4096."""
    doc: dict = {"schema": SCHEMA_VERSION, "kind": record.kind, "params": record.params}
    if with_meta:
        doc["meta"] = _meta()
    doc["data"] = record.payload
    chunks = json.JSONEncoder(indent=2).iterencode(doc)
    # a write per chunk would be a system call per chunk on an unbuffered stdout
    while piece := "".join(itertools.islice(chunks, 4096)):
        out.write(piece)
    out.write("\n")


def parse_json(text: str) -> OutputRecord:
    doc = json.loads(text)
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema: {doc.get('schema')!r}")
    return OutputRecord(kind=doc["kind"], params=doc["params"], payload=doc["data"])


# ---------------------------------------------------------------------------
# CSV rendering / parsing
# ---------------------------------------------------------------------------


def _csv_rows(record: OutputRecord):
    """The record's CSV table: its header, then its rows."""
    kind, payload = record.kind, record.payload
    if kind == "numbers":
        yield _NUMBERS_COLUMNS
        for row in payload:
            yield row["n"], row["value"]
    elif kind == "apoly" and record.params.get("subst_s") is None:
        yield _APOLY_MATRIX_COLUMNS
        for row in payload:
            for x_pow, s_row in enumerate(row["coeffs_xs"]):
                for s_pow, value in enumerate(s_row):
                    yield row["i"], x_pow, s_pow, value
    elif kind in ("polys", "apoly"):  # one row of coefficients per index
        index = "n" if kind == "polys" else "i"
        width = max((len(r["coeffs"]) for r in payload), default=1)
        yield [index] + _coeff_columns(width)
        for row in payload:
            yield [row[index]] + list(row["coeffs"])
    elif kind == "verify":
        yield _VERIFY_COLUMNS
        for row in payload:
            params, notes = row["params"], (row.get(key) for key in _VERIFY_NOTES)
            yield (
                row["identity"],
                *("" if params.get(key) is None else params[key] for key in REPORT_PARAMS),
                row["status"],
                row["cells_checked"],
                *("" if v is None else json.dumps(v, separators=(",", ":")) for v in notes),
            )
    else:
        raise ValueError(f"unknown record kind {kind!r}")


def render_csv(record: OutputRecord, out, with_meta: bool = True) -> None:
    buf = io.StringIO()  # one write: on an unbuffered stdout each row would be a system call
    if with_meta:
        for key, value in _meta().items():
            buf.write(f"# {key}: {value}\n")
    csv.writer(buf, lineterminator="\n").writerows(_csv_rows(record))
    out.write(buf.getvalue())


def parse_csv(text: str) -> list:
    """Recover the payload rows from a CSV rendering; its header names the layout."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header, *rows = csv.reader(lines)
    if tuple(header) == _NUMBERS_COLUMNS:
        return [{"n": int(n), "value": value} for n, value in rows]
    if header[0] in ("n", "i") and header[1:] == _coeff_columns(max(len(header) - 1, 1)):
        # polys, or apoly with s substituted: the index column, then c0 (at least), c1, ...
        return [{header[0]: int(r[0]), "coeffs": r[1:]} for r in rows]
    if tuple(header) == _APOLY_MATRIX_COLUMNS:
        matrices: dict[int, dict[tuple[int, int], str]] = {}
        for i, x_pow, s_pow, value in rows:
            matrices.setdefault(int(i), {})[int(x_pow), int(s_pow)] = value
        payload = []
        for i, cells in sorted(matrices.items()):
            nx, ns = (1 + max(axis) for axis in zip(*cells))
            coeffs_xs = [[cells.get((x, s), "0") for s in range(ns)] for x in range(nx)]
            payload.append({"i": i, "coeffs_xs": coeffs_xs})
        return payload
    if tuple(header) == _VERIFY_COLUMNS:
        payload = []
        for r in rows:
            cells = dict(zip(header, r))
            payload.append(
                {
                    "identity": cells["identity"],
                    "params": {key: int(cells[key]) for key in REPORT_PARAMS if cells[key]},
                    "status": cells["status"],
                    "cells_checked": int(cells["cells_checked"]),
                    **{k: json.loads(cells[k]) if cells[k] else None for k in _VERIFY_NOTES},
                }
            )
        return payload
    raise ValueError(f"unknown CSV header {header!r}")


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------


def _report_payload(reports) -> list:
    return [
        {
            "identity": rep.identity_name,
            "params": rep.params,
            "status": rep.status,
            "cells_checked": rep.cells_checked,
            "counterexample": rep.counterexample,
            "details": rep.details,
        }
        for rep in reports
    ]


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------


def _output_options(default_format: str):
    def wrap(f):
        f = click.option(
            "--format",
            "fmt",
            type=click.Choice(["csv", "json"]),
            default=default_format,
            show_default=True,
            help="Output format.",
        )(f)
        # opened while the options are parsed, so a path that cannot be opened
        # is a usage error before anything is computed
        f = click.option(
            "--output",
            type=click.File("w", encoding="utf-8", lazy=False),
            default=None,
            help="Write to a file instead of stdout.",
        )(f)
        f = click.option(
            "--no-meta",
            is_flag=True,
            help="Suppress the timestamped metadata header (byte-deterministic output).",
        )(f)
        return f

    return wrap


def _emit(record: OutputRecord, fmt: str, output: TextIO | None, no_meta: bool) -> None:
    # click closes an --output file when the command ends
    render = render_json if fmt == "json" else render_csv
    out = output or sys.stdout
    try:
        render(record, out, with_meta=not no_meta)
        out.flush()
    except BrokenPipeError:
        # a reader closed stdout early: keep the exit code, send the final flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# the options the table commands share
_level_option = click.option("--N", "level", type=click.IntRange(min=1), required=True, help="Level N >= 1.")
_max_n_option = click.option("--max-n", type=click.IntRange(min=0), required=True, help="Largest index n.")


@click.group()
@click.version_option(version=__version__, prog_name="hyperbern")
def cli():
    """Exact hypergeometric Bernoulli tables and identity certification."""


@cli.command()
@_level_option
@_max_n_option
@_output_options("csv")
def numbers(level, max_n, fmt, output, no_meta):
    """Numbers B[N,n] for n = 0..max-n, as exact reduced rationals."""
    table = hb_numbers(level, max_n)
    payload = [{"n": n, "value": format_rational(v)} for n, v in enumerate(table.values)]
    record = OutputRecord("numbers", {"N": level, "max_n": max_n}, payload)
    _emit(record, fmt, output, no_meta)


@cli.command()
@_level_option
@click.option("--r", "order_r", type=click.IntRange(min=1), default=1, show_default=True, help="Order r >= 1.")
@_max_n_option
@_output_options("csv")
def polys(level, order_r, max_n, fmt, output, no_meta):
    """Polynomial tables, one row per index with ascending coefficients."""
    table = hb_higher_polys_series(level, order_r, max_n)
    # width 1 writes the zero polynomial as one explicit "0"
    payload = [{"n": n, "coeffs": format_coeffs(p, 1)} for n, p in enumerate(table.polys)]
    record = OutputRecord(
        "polys", {"N": level, "r": order_r, "max_n": max_n}, payload
    )
    _emit(record, fmt, output, no_meta)


@cli.command()
@_level_option
@click.option("--r", "order_r", type=click.IntRange(min=1), required=True, help="Order r >= 1.")
@click.option(
    "--subst-s",
    default=None,
    help='Substitute a rational value (e.g. "3" or "-5/2") for s before output.',
)
@_output_options("csv")
def apoly(level, order_r, subst_s, fmt, output, no_meta):
    """Coefficient polynomials of the sums-of-products expansion, i = 0..r-1."""
    if subst_s is not None:
        try:
            s_val = parse_rational(subst_s)
        except ValueError as exc:
            raise click.BadParameter(str(exc), param_hint="--subst-s")
    table = a_poly(level, order_r)
    if subst_s is None:
        payload = [
            # a zero entry has no rows and is written as [["0"]]
            {"i": i, "coeffs_xs": [format_coeffs(row, e.s_degree + 1) for row in e.rows] or [["0"]]}
            for i, e in enumerate(table.entries)
        ]
    else:
        payload = [
            {"i": i, "coeffs": format_coeffs(bipoly_subst_s(e, s_val), 1)}
            for i, e in enumerate(table.entries)
        ]
    record = OutputRecord(
        "apoly", {"N": level, "r": order_r, "subst_s": subst_s}, payload
    )
    _emit(record, fmt, output, no_meta)


def _parse_fault(_ctx, _param, value):
    # the syntax only: SuiteConfig rules on the pair
    if value is None:
        return None
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError:
        raise click.BadParameter('expected "N,k" with integers N and k')


@cli.command()
@click.option(
    "--suite",
    "suites",
    multiple=True,
    type=click.Choice(ALL_SUITES),
    help="Suite(s) to run; repeatable. Default: all suites.",
)
@click.option("--N-max", "N_max", type=click.IntRange(min=1), default=None)
@click.option("--r-max", "r_max", type=click.IntRange(min=1), default=None)
@click.option("--n-max", "n_max", type=click.IntRange(min=0), default=None)
@click.option(
    "--mode",
    type=click.Choice(MODES),
    default=SuiteConfig.mode,
    show_default=True,
    help="Point strategy for the polynomial sums-of-products family.",
)
@click.option("--seed", type=int, default=SuiteConfig.seed, show_default=True)
@click.option("--sample-count", type=click.IntRange(min=1), default=SuiteConfig.sample_count, show_default=True)
@click.option(
    "--inject-fault",
    callback=_parse_fault,
    default=None,
    help='Self-test aid: "N,k" perturbs the stored number B[N,k] by +1 and must trip the suite.',
)
@_output_options("json")
def verify(suites, fmt, output, no_meta, **fields):
    """Certify identities over parameter ranges; exit 1 on any failed cell."""
    # every other option is named after the SuiteConfig field it sets; only the
    # construction is guarded, so a ValueError inside a check stays a crash
    try:
        config = SuiteConfig(suites=tuple(suites) or SuiteConfig.suites, **fields)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        reports = run_suite(config)
    except VacuousRun as exc:
        raise click.UsageError(str(exc))
    # the fields in order are the params keys; JSON writes their tuples as lists
    record = OutputRecord("verify", asdict(config), _report_payload(reports))
    _emit(record, fmt, output, no_meta)
    if any(rep.status == FAIL for rep in reports):
        raise SystemExit(1)


def main():
    cli()


if __name__ == "__main__":
    main()
