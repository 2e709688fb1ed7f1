"""Workload definitions and the output gate.

A workload is a list of CLI command lines that one timed pass runs, each in a
fresh ``python -m hyperbern.cli`` process, plus the checks its outputs must
pass.  The checks run outside the timed section; every mismatch fails the
operation (the command) it belongs to.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# sha256 of the --no-meta bytes of each fixed command.  The table commands are
# ROADMAP's byte-identical gate; the default verify output is pinned too,
# since its JSON payload is the other half of that gate.
PINNED_SHA256 = {
    ("numbers", "--N", "3", "--max-n", "400", "--no-meta"):
        "d9da4c76aaca2feab23efe1575c95b1bbdacac581d60c029446593bc53686f2c",
    ("polys", "--N", "3", "--r", "3", "--max-n", "150", "--no-meta"):
        "c5a8d41cbad4a6cee1e07383b048f989777fb21e1109ce1ad86c685e019a4e7f",
    ("apoly", "--N", "4", "--r", "8", "--no-meta"):
        "955720befb4cd9e37e0e9cffcb7ec29b632f3a6d5a4e996b450a6e051e5c0323",
    ("verify", "--no-meta"):
        "797dc2f84bb0a556a574af1a5fd65801b6573f011e0e50f443c42a2f645e71d2",
}


@dataclass(frozen=True)
class VerifyExpectation:
    """What a verify command must report: exact counts per status and cells."""

    exit_code: int
    statuses: dict
    cells_checked: int
    sample_seed: int | None = None
    sample_count: int | None = None


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    verify: VerifyExpectation | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


def build(name: str, seed: int) -> Workload:
    """The workload's commands for this seed (same seed, same commands)."""
    if name == "verify-default":
        # the desk certification has no seeded input; the seed only labels the run
        expect = VerifyExpectation(0, {"pass": 830, "skipped": 61}, 230_822)
        return Workload(name, (Command(("verify", "--no-meta"), expect),))
    if name == "tables-large":
        argvs = [a for a in PINNED_SHA256 if a[0] != "verify"]
        random.Random(seed).shuffle(argvs)
        return Workload(name, tuple(Command(a) for a in argvs))
    if name == "verify-sampled":
        argv = (
            "verify", "--suite", "sums", "--mode", "sample", "--N-max", "2",
            "--r-max", "6", "--n-max", "24", "--sample-count", "32",
            "--seed", str(seed), "--no-meta",
        )
        expect = VerifyExpectation(0, {"pass": 270, "skipped": 30}, 8_640, seed, 32)
        return Workload(name, (Command(argv, expect),))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-default", "tables-large", "verify-sampled")


# ---------------------------------------------------------------------------
# output gate
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """A checked command result: its problems, item count and report statuses."""

    problems: list
    items: int
    statuses: dict


class Gate:
    """Checks command results; the costly numbers relation runs once per output."""

    def __init__(self) -> None:
        self._relation_checked: dict[str, list[str]] = {}

    def check(self, cmd: Command, exit_code: int, out: bytes) -> Outcome:
        """Check one command's result and count its items.

        An item is one checked cell (sum of ``cells_checked``) for verify and
        one rational in the payload for the table commands.
        """
        problems = []
        digest = hashlib.sha256(out).hexdigest()
        pinned = PINNED_SHA256.get(cmd.argv)
        if pinned is not None and digest != pinned:
            problems.append("output bytes differ from the pinned sha256")
        if cmd.verify is not None:
            found, items, statuses = _check_verify(cmd.verify, exit_code, out)
            return Outcome(problems + found, items, statuses)
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        if cmd.argv[0] == "numbers":
            if digest not in self._relation_checked:
                level = int(cmd.argv[cmd.argv.index("--N") + 1])
                self._relation_checked[digest] = check_numbers_relation(level, out)
            problems += self._relation_checked[digest]
        return Outcome(problems, _count_rationals(cmd.argv[0], out), {})


def _check_verify(expect: VerifyExpectation, exit_code: int, out: bytes):
    problems = []
    if exit_code != expect.exit_code:
        problems.append(f"exit code {exit_code}, expected {expect.exit_code}")
    try:
        doc = json.loads(out)
        reports = doc["data"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unparsable verify output: {exc}"], 0, {}
    statuses: dict = {}
    for rep in reports:
        statuses[rep["status"]] = statuses.get(rep["status"], 0) + 1
    if statuses != expect.statuses:
        problems.append(f"report counts {statuses}, expected {expect.statuses}")
    cells = sum(rep["cells_checked"] for rep in reports)
    if cells != expect.cells_checked:
        problems.append(f"{cells} cells checked, expected {expect.cells_checked}")
    if expect.sample_seed is not None:
        for rep in reports:
            d = rep.get("details")
            if rep["status"] == "pass" and (
                d is None
                or d.get("seed") != expect.sample_seed
                or len(d.get("points", ())) != expect.sample_count
            ):
                problems.append(f"report {rep['params']} was not sampled as asked")
                break
    return problems, cells, statuses


def _count_rationals(kind: str, out: bytes) -> int:
    rows = list(csv.reader(io.StringIO(out.decode("utf-8"))))[1:]
    if kind == "polys":
        return sum(len(r) - 1 for r in rows)
    return len(rows)  # numbers: one value per row; apoly: one coefficient per row


def check_numbers_relation(level: int, out: bytes) -> list[str]:
    """Recompute the defining relation of a numbers table from its CSV.

    With c_k = N!/(N+k)! and b_j = B[N,j]/j!, the reciprocal-series relation
    is sum_{k=0..n} c_k b_{n-k} = [n = 0].  Multiplying row n by (N+n)!/N!
    keeps the weights integral.
    """
    lines = out.decode("utf-8").splitlines()
    if not lines or lines[0] != "n,value":
        return ["numbers output has no header"]
    rows = [ln.split(",") for ln in lines[1:]]
    try:
        if [int(r[0]) for r in rows] != list(range(len(rows))):
            return ["numbers output rows are not n = 0, 1, 2, ..."]
        b = [Fraction(r[1]) / math.factorial(j) for j, r in enumerate(rows)]
    except (ValueError, IndexError) as exc:
        return [f"malformed numbers row: {exc}"]
    for n in range(len(b)):
        # the weight of b_{n-k} is (N+n)!/(N+k)!, a product of n-k factors
        acc = Fraction(0)
        w = 1
        for k in range(n, -1, -1):
            acc += w * b[n - k]
            w *= level + k
        if acc != (1 if n == 0 else 0):
            return [f"defining relation fails at n = {n}"]
    return []
