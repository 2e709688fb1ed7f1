"""Self-tests of the benchmark: failure accounting, the output gate, and a
tiny-size smoke run of both modes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Command, Gate, VerifyExpectation, Workload  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# a healthy run of this cell range gives 2 passing reports of 11 cells each
RECURRENCE_ARGV = ("verify", "--suite", "recurrence", "--N-max", "1", "--r-max", "2", "--n-max", "10")
RECURRENCE_OK = VerifyExpectation(0, {"pass": 2}, 22)


def _one_command(bench: run.Bench, cmd: Command) -> tuple[run.Child, run.PassResult]:
    result = run.PassResult()
    return bench.command(cmd, bench.cli_argv(cmd.argv), result), result


def test_healthy_command_passes_the_gate(tmp_path):
    bench = run.Bench(tmp_path)
    proc, result = _one_command(bench, Command(RECURRENCE_ARGV + ("--no-meta",), RECURRENCE_OK))
    assert proc.exit_code == 0
    assert result.statuses == {"pass": 2} and result.items == 22
    assert (bench.attempted, bench.failed, bench.error_rate) == (1, 0, 0.0)


def test_injected_fault_counts_as_a_failed_operation(tmp_path):
    bench = run.Bench(tmp_path)
    argv = RECURRENCE_ARGV + ("--inject-fault", "1,2", "--no-meta")
    proc, result = _one_command(bench, Command(argv, RECURRENCE_OK))
    assert proc.exit_code == 1
    assert result.statuses == {"fail": 2}
    assert (bench.attempted, bench.failed) == (1, 1)
    assert bench.error_rate > 0


def test_gate_rejects_changed_table_bytes():
    argv = ("numbers", "--N", "3", "--max-n", "400", "--no-meta")
    outcome = Gate().check(Command(argv), 0, b"n,value\n0,1\n")
    assert any("sha256" in p for p in outcome.problems)


def test_numbers_relation_catches_a_wrong_value():
    good = b"n,value\n0,1\n1,-1/2\n2,1/6\n3,0\n4,-1/30\n"  # classical, level 1
    assert workloads.check_numbers_relation(1, good) == []
    bad = good.replace(b"2,1/6", b"2,1/7")
    assert workloads.check_numbers_relation(1, bad) == ["defining relation fails at n = 2"]
    assert workloads.check_numbers_relation(1, b"n,value\n0,x\n")[0].startswith("malformed")


def test_bare_benchmark_directory_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "tables-large", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


TINY = Workload(
    "tiny",
    (
        Command(("numbers", "--N", "2", "--max-n", "12", "--no-meta")),
        Command(RECURRENCE_ARGV + ("--no-meta",), RECURRENCE_OK),
    ),
)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_smoke_run_prints_every_metric_with_its_unit(
    trace, section, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(workloads, "build", lambda name, seed: TINY)
    monkeypatch.setattr(run, "SWEEP", [(m, fn, 2 if fn == "a_poly" else 6) for m, fn, _ in run.SWEEP])
    code = run.main(["--workload", "tables-large", "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC[section]]
    assert list(result["metrics"]) == names
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.startswith(f"{m['name']} = ") and ln.endswith(f" {m['unit']}") for ln in lines)
    assert any(ln.startswith("error_rate = 0.0 ratio") for ln in lines)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["identities.cells_checked"] == 22
        assert metrics["core.hb_higher_polys_recurrence.self_s"] > 0
        assert metrics["fractions.new_calls"] > 0
