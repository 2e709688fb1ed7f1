import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import hyperbern.cli as cli_module
from hyperbern.cli import (
    OutputRecord,
    cli,
    parse_csv,
    parse_json,
    render_csv,
    render_json,
)
from hyperbern.identities import SuiteConfig, VerifyReport, replay


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, list(args))


def rendered(render, record, **kwargs) -> str:
    out = io.StringIO()
    render(record, out, **kwargs)
    return out.getvalue()


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# --- numbers -------------------------------------------------------------------


def test_numbers_csv(runner):
    res = invoke(runner, "numbers", "--N", "1", "--max-n", "2", "--no-meta")
    assert res.exit_code == 0
    assert res.output == "n,value\n0,1\n1,-1/2\n2,1/6\n"


def test_numbers_level_two(runner):
    res = invoke(runner, "numbers", "--N", "2", "--max-n", "1", "--no-meta")
    assert res.output.splitlines()[1:] == ["0,1", "1,-1/3"]


def test_numbers_rejects_level_zero(runner):
    res = invoke(runner, "numbers", "--N", "0", "--max-n", "2")
    assert res.exit_code == 2


def test_numbers_json_schema(runner):
    res = invoke(runner, "numbers", "--N", "1", "--max-n", "2", "--format", "json")
    doc = json.loads(res.output)
    assert doc["schema"] == 1
    assert doc["kind"] == "numbers"
    assert "generated_at" in doc["meta"]
    assert doc["data"][2] == {"n": 2, "value": "1/6"}


# --- polys ---------------------------------------------------------------------


def test_polys_csv_rows(runner):
    res = invoke(runner, "polys", "--N", "1", "--r", "1", "--max-n", "2", "--no-meta")
    lines = res.output.splitlines()
    assert lines[0] == "n,c0,c1,c2"
    assert lines[1] == "0,1"  # the n = 0 row is the single coefficient 1
    assert lines[-1] == "2,1/6,-1,1"


def test_polys_order_two_index_zero_only(runner):
    res = invoke(runner, "polys", "--N", "2", "--r", "2", "--max-n", "0", "--no-meta")
    assert res.output.splitlines()[1:] == ["0,1"]


def test_polys_rejects_bad_r(runner):
    res = invoke(runner, "polys", "--N", "1", "--r", "0", "--max-n", "3")
    assert res.exit_code == 2


# --- apoly ---------------------------------------------------------------------


def test_apoly_base_case(runner):
    res = invoke(runner, "apoly", "--N", "3", "--r", "1", "--no-meta")
    assert res.output.splitlines() == ["i,x_pow,s_pow,value", "0,0,0,1"]


def test_apoly_substitution_matches_two_fold_table(runner):
    # s = 1 + N - n with N = 3, n = 1: entries are N - n = 2 and -(x - 1)
    res = invoke(runner, "apoly", "--N", "3", "--r", "2", "--subst-s", "3", "--no-meta")
    assert res.output.splitlines()[1:] == ["0,2", "1,1,-1"]


def test_apoly_substitution_rational_value(runner):
    res = invoke(runner, "apoly", "--N", "1", "--r", "2", "--subst-s", "-5/2", "--no-meta")
    assert res.output.splitlines()[1:] == ["0,-7/2", "1,1,-1"]


def test_apoly_rejects_malformed_substitution(runner):
    res = invoke(runner, "apoly", "--N", "1", "--r", "2", "--subst-s", "x+1")
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "args,digest",
    [
        (
            ("numbers", "--N", "3", "--max-n", "400"),
            "d9da4c76aaca2feab23efe1575c95b1bbdacac581d60c029446593bc53686f2c",
        ),
        (
            ("polys", "--N", "3", "--r", "3", "--max-n", "150"),
            "c5a8d41cbad4a6cee1e07383b048f989777fb21e1109ce1ad86c685e019a4e7f",
        ),
        (
            ("apoly", "--N", "4", "--r", "8"),
            "955720befb4cd9e37e0e9cffcb7ec29b632f3a6d5a4e996b450a6e051e5c0323",
        ),
        (
            ("apoly", "--N", "3", "--r", "6", "--subst-s", "-5/2"),
            "461649cad5c058f2351479de5e5b8fa9061ec74cc2c76d337197e379b7e46323",
        ),
    ],
    ids=["numbers-400", "polys-150", "apoly-8", "apoly-6-subst"],
)
def test_table_output_is_pinned(runner, args, digest):
    # the first three digests also gate the perfbench tables-large workload
    res = invoke(runner, *args, "--no-meta")
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode("utf-8")).hexdigest() == digest


# --- verify ---------------------------------------------------------------------


def test_verify_single_suite_cells(runner):
    res = invoke(
        runner,
        "verify",
        "--suite", "ode",
        "--N-max", "1",
        "--r-max", "1",
        "--n-max", "10",
        "--no-meta",
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    statuses = [row["status"] for row in doc["data"]]
    assert statuses.count("pass") == 10
    assert statuses.count("skipped") == 1  # the n = 0 cell


def test_verify_rejects_negative_range(runner):
    res = invoke(runner, "verify", "--n-max", "-1")
    assert res.exit_code == 2


def test_verify_rejects_unknown_suite(runner):
    res = invoke(runner, "verify", "--suite", "nonsense")
    assert res.exit_code == 2


def test_verify_fault_injection_exits_one(runner):
    res = invoke(
        runner,
        "verify",
        "--suite", "recurrence",
        "--N-max", "1",
        "--r-max", "1",
        "--n-max", "6",
        "--inject-fault", "1,2",
        "--no-meta",
    )
    assert res.exit_code == 1
    doc = json.loads(res.output)
    failed = [row for row in doc["data"] if row["status"] == "fail"]
    assert failed and failed[0]["counterexample"] is not None


def test_verify_json_params_rebuild_the_config_and_replay_each_failure(runner):
    # JSON writes the fault pair as a list; SuiteConfig and replay take it back
    res = invoke(
        runner,
        "verify",
        "--suite", "recurrence",
        "--N-max", "1",
        "--r-max", "1",
        "--n-max", "6",
        "--inject-fault", "1,2",
        "--no-meta",
    )
    assert res.exit_code == 1
    record = parse_json(res.output)
    assert record.params["inject_fault"] == [1, 2]
    config = SuiteConfig(suites=("recurrence",), N_max=1, r_max=1, n_max=6, inject_fault=(1, 2))
    assert SuiteConfig(**record.params) == config
    failed = [row for row in record.payload if row["status"] == "fail"]
    assert failed
    for row in failed:
        report = VerifyReport(
            row["identity"], row["params"], row["status"], row["cells_checked"],
            row["counterexample"], row["details"],
        )
        assert replay(report, fault=record.params["inject_fault"])


def test_verify_rejects_malformed_fault(runner):
    res = invoke(runner, "verify", "--inject-fault", "1;2")
    assert res.exit_code == 2
    res = invoke(runner, "verify", "--inject-fault", "1,1")
    assert res.exit_code == 2


@pytest.mark.parametrize("fault", ["1,2,3", "1", "0,2"])
def test_verify_fault_outside_suite_config_domain_is_a_usage_error(runner, fault):
    # the CLI splits "N,k"; SuiteConfig alone rules on the pair (for "1,1" see above)
    res = invoke(runner, "verify", "--suite", "kamano", "--inject-fault", fault, "--no-meta")
    assert res.exit_code == 2
    assert res.output.startswith("Usage:")


def test_verify_value_error_inside_a_check_is_not_a_usage_error(runner, monkeypatch):
    # only building the SuiteConfig is read as a usage error
    from hyperbern import identities

    def broken(*args, **kwargs):
        raise ValueError("broken check")

    monkeypatch.setattr(identities, "check_kamano", broken)
    res = invoke(runner, "verify", "--suite", "kamano", "--N-max", "1", "--no-meta")
    assert res.exit_code == 1
    assert isinstance(res.exception, ValueError) and str(res.exception) == "broken check"


def test_verify_help_shows_suite_config_defaults(runner):
    from hyperbern import SuiteConfig

    res = invoke(runner, "verify", "--help")
    assert res.exit_code == 0
    text = " ".join(res.output.split())  # help lines wrap at the terminal width
    assert f"[default: {SuiteConfig.mode}]" in text
    assert f"[default: {SuiteConfig.seed}]" in text
    assert f"[default: {SuiteConfig.sample_count}; x>=1]" in text
    assert (SuiteConfig.mode, SuiteConfig.seed, SuiteConfig.sample_count) == ("auto", 42, 64)


@pytest.mark.parametrize(
    "args",
    [
        ("--suite", "ode", "--N-max", "1", "--n-max", "3", "--inject-fault", "3,2"),
        ("--suite", "kamano", "--inject-fault", "1,2"),
        ("--suite", "ode", "--N-max", "1", "--r-max", "1", "--n-max", "3", "--inject-fault", "1,9"),
    ],
    ids=["level-outside-run", "no-injectable-suite", "index-past-every-cell"],
)
def test_verify_rejects_fault_no_cell_reads(runner, args):
    # a fault no cell reads would make the self-test pass vacuously
    res = invoke(runner, "verify", "--no-meta", *args)
    assert res.exit_code == 2
    assert "no cell" in res.output


@pytest.mark.parametrize(
    "args,suite,reason",
    [
        (("--suite", "genfun-ode", "--n-max", "1"), "genfun-ode", "requires order >= 2"),
        (("--suite", "two-three", "--n-max", "0"), "two-three", "requires n >= 1"),
        (("--suite", "logderiv", "--n-max", "0"), "logderiv", "requires order >= 1"),
        (("--suite", "kamano", "--suite", "genfun-ode", "--n-max", "1"), "genfun-ode",
         "requires order >= 2"),
    ],
    ids=["genfun-ode", "two-three", "logderiv", "one-of-two"],
)
def test_verify_rejects_suite_with_every_cell_skipped(runner, args, suite, reason):
    # a selected suite that checks nothing would pass quietly
    res = invoke(runner, "verify", "--no-meta", *args)
    assert res.exit_code == 2
    assert f"suite '{suite}'" in res.output
    assert reason in res.output


def test_verify_repeated_suite_runs_once(runner):
    once = invoke(runner, "verify", "--suite", "kamano", "--no-meta")
    twice = invoke(runner, "verify", "--suite", "kamano", "--suite", "kamano", "--no-meta")
    assert twice.exit_code == once.exit_code == 0
    assert twice.output == once.output


def test_verify_rejects_level_and_order_zero(runner):
    # level 0 and order 0 are out of domain: a run over them would check nothing
    assert invoke(runner, "verify", "--N-max", "0").exit_code == 2
    assert invoke(runner, "verify", "--suite", "kamano", "--r-max", "0").exit_code == 2


def test_verify_csv_and_json_same_content(runner):
    args = ["verify", "--suite", "kamano", "--N-max", "2", "--r-max", "2", "--n-max", "5", "--no-meta"]
    as_json = invoke(runner, *args, "--format", "json")
    as_csv = invoke(runner, *args, "--format", "csv")
    payload_json = parse_json(as_json.output).payload
    payload_csv = parse_csv(as_csv.output)
    assert payload_csv == payload_json


# sha256 of `verify --no-meta` output for fixed command lines: restructuring the
# suite driver must leave every byte of these reports, and the exit code, as is.
@pytest.mark.parametrize(
    "args,exit_code,digest",
    [
        (
            ("--N-max", "2", "--r-max", "3", "--n-max", "5"),
            0,
            "2a0ca548a733e1db26f304c6724210255be3ed806b8976a29125a4c9320b7147",
        ),
        (
            ("--N-max", "2", "--r-max", "3", "--n-max", "5", "--format", "csv"),
            0,
            "649e095a156d3d0595e348959b48a1921e01174b531756299735216a2b09bec0",
        ),
        (
            ("--suite", "sums", "--mode", "sample", "--N-max", "2", "--r-max", "4",
             "--n-max", "6", "--sample-count", "8", "--seed", "7"),
            0,
            "afdd1571d37d2fa05a78eb09f762b599fd05f046273eb6e9459f6a7c83cb614d",
        ),
        (
            ("--suite", "ode", "--suite", "recurrence", "--N-max", "2", "--r-max", "2",
             "--n-max", "8", "--inject-fault", "1,3"),
            1,
            "11b36ac4c691c7c14de513579a429c880fb3bed89e300ce916060ff4bed14e3a",
        ),
        (
            ("--suite", "sums", "--suite", "two-three", "--N-max", "2", "--r-max", "4",
             "--n-max", "6"),
            0,
            "04e149dd423b4df600dd03cbc0670d1c7fbe9a3592951a2af313a43f661eec2d",
        ),
    ],
    ids=["all-suites-json", "all-suites-csv", "sums-sample", "ode-recurrence-fault",
         "sums-two-three-r4"],
)
def test_verify_output_is_pinned(runner, args, exit_code, digest):
    res = invoke(runner, "verify", "--no-meta", *args)
    assert res.exit_code == exit_code
    assert hashlib.sha256(res.output.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "args,exit_code,digest",
    [
        (
            ("verify", "--suite", "ode", "--suite", "recurrence", "--N-max", "2", "--r-max", "2",
             "--n-max", "8", "--inject-fault", "1,3"),
            1,
            "11b36ac4c691c7c14de513579a429c880fb3bed89e300ce916060ff4bed14e3a",
        ),
        (
            ("numbers", "--N", "3", "--max-n", "400"),
            0,
            "d9da4c76aaca2feab23efe1575c95b1bbdacac581d60c029446593bc53686f2c",
        ),
    ],
    ids=["ode-recurrence-fault", "numbers-400"],
)
def test_real_stdout_bytes_are_pinned(args, exit_code, digest):
    # CliRunner swaps sys.stdout for a buffer of its own; a fresh interpreter
    # writes through the real stdout, as the console script does
    proc = subprocess.run(
        [sys.executable, "-m", "hyperbern.cli", *args, "--no-meta"],
        capture_output=True,
        env=_src_env(),
        timeout=120,
    )
    assert proc.returncode == exit_code, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_reader_closing_the_pipe_early_is_not_a_failure():
    # about 1.4 MB of JSON against a reader that stops after 10 bytes: the
    # writes past the 64 KiB pipe buffer meet a closed pipe
    args = ("polys", "--N", "3", "--r", "3", "--max-n", "150", "--format", "json", "--no-meta")
    with subprocess.Popen(
        [sys.executable, "-m", "hyperbern.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_src_env(),
    ) as proc:
        assert proc.stdout.read(10) == b'{\n  "schem'
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, stderr
    assert stderr == b""


# --- determinism and round trips ---------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ("numbers", "--N", "3", "--max-n", "12"),
        ("polys", "--N", "2", "--r", "3", "--max-n", "8"),
        ("apoly", "--N", "2", "--r", "4"),
        ("verify", "--suite", "sums", "--N-max", "2", "--r-max", "4", "--n-max", "6"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_is_byte_deterministic(runner, args, fmt):
    first = invoke(runner, *args, "--format", fmt, "--no-meta")
    second = invoke(runner, *args, "--format", fmt, "--no-meta")
    assert first.output == second.output


@pytest.mark.parametrize(
    "args,kind",
    [
        (("numbers", "--N", "2", "--max-n", "6"), "numbers"),
        (("polys", "--N", "1", "--r", "2", "--max-n", "5"), "polys"),
        (("apoly", "--N", "2", "--r", "3"), "apoly"),
    ],
)
def test_csv_json_content_identical(runner, args, kind):
    as_json = invoke(runner, *args, "--format", "json", "--no-meta")
    as_csv = invoke(runner, *args, "--format", "csv", "--no-meta")
    record = parse_json(as_json.output)
    assert parse_csv(as_csv.output) == record.payload


def test_apoly_subst_csv_round_trip(runner):
    res_json = invoke(runner, "apoly", "--N", "1", "--r", "3", "--subst-s", "1/3", "--format", "json")
    res_csv = invoke(runner, "apoly", "--N", "1", "--r", "3", "--subst-s", "1/3", "--format", "csv")
    record = parse_json(res_json.output)
    assert parse_csv(res_csv.output) == record.payload


def test_record_round_trip_all_kinds():
    records = [
        OutputRecord("numbers", {"N": 1, "max_n": 1}, [{"n": 0, "value": "1"}, {"n": 1, "value": "-1/2"}]),
        OutputRecord("polys", {"N": 1, "r": 1, "max_n": 1}, [{"n": 0, "coeffs": ["1"]}, {"n": 1, "coeffs": ["-1/2", "1"]}]),
        OutputRecord("apoly", {"N": 1, "r": 2, "subst_s": None}, [{"i": 0, "coeffs_xs": [["-1", "1"]]}, {"i": 1, "coeffs_xs": [["1"], ["-1"]]}]),
        OutputRecord(
            "verify",
            {"suites": ["ode"]},
            [
                {
                    "identity": "ode",
                    "params": {"N": 1, "r": 1, "n": 3},
                    "status": "pass",
                    "cells_checked": 1,
                    "counterexample": None,
                    "details": None,
                }
            ],
        ),
    ]
    for record in records:
        assert parse_json(rendered(render_json, record)) == record
        assert parse_json(rendered(render_json, record, with_meta=False)) == record
        assert parse_csv(rendered(render_csv, record)) == record.payload


def test_apoly_matrix_with_zero_entries_round_trips():
    # explicit zero cells, a zero entry and rows padded to a common width
    record = OutputRecord(
        "apoly",
        {"N": 1, "r": 3, "subst_s": None},
        [
            {"i": 0, "coeffs_xs": [["0"]]},
            {"i": 1, "coeffs_xs": [["1", "0"], ["0", "-1/2"]]},
            {"i": 2, "coeffs_xs": [["0", "0", "3"]]},
        ],
    )
    text = rendered(render_csv, record, with_meta=False)
    assert text.splitlines()[:2] == ["i,x_pow,s_pow,value", "0,0,0,0"]
    assert parse_csv(text) == record.payload


@pytest.mark.parametrize(
    "header", ["", "n", "n,values", "i,x_pow,value", "n,c1", "k,c0", "identity,status"]
)
def test_parse_csv_rejects_an_unknown_header(header):
    with pytest.raises(ValueError):
        parse_csv(header + "\n1,2\n")


def test_meta_header_toggle(runner):
    with_meta = invoke(runner, "numbers", "--N", "1", "--max-n", "1")
    without = invoke(runner, "numbers", "--N", "1", "--max-n", "1", "--no-meta")
    assert with_meta.output.startswith("# generated_at:")
    assert without.output.startswith("n,value")


def test_output_to_file(runner, tmp_path):
    target = tmp_path / "out.csv"
    res = invoke(
        runner, "numbers", "--N", "1", "--max-n", "2", "--no-meta", "--output", str(target)
    )
    assert res.exit_code == 0
    assert res.output == ""
    assert target.read_text() == "n,value\n0,1\n1,-1/2\n2,1/6\n"


# one command line per command, the last one with a failing cell
_OUTPUT_COMMANDS = [
    pytest.param(args, exit_code, id=args[0])
    for args, exit_code in [
        (("numbers", "--N", "2", "--max-n", "6"), 0),
        (("polys", "--N", "2", "--r", "3", "--max-n", "5", "--format", "json"), 0),
        (("apoly", "--N", "2", "--r", "3", "--subst-s", "-5/2"), 0),
        (("verify", "--suite", "recurrence", "--N-max", "1", "--r-max", "2", "--n-max", "4",
          "--inject-fault", "1,2"), 1),
    ]
]


@pytest.mark.parametrize("args,exit_code", _OUTPUT_COMMANDS)
def test_output_file_receives_the_bytes_stdout_gets(runner, tmp_path, args, exit_code):
    target = tmp_path / "out"
    to_stdout = invoke(runner, *args, "--no-meta")
    to_file = invoke(runner, *args, "--no-meta", "--output", str(target))
    assert (to_stdout.exit_code, to_file.exit_code) == (exit_code, exit_code)
    assert to_file.stdout_bytes == b""
    assert target.read_bytes() == to_stdout.stdout_bytes != b""


@pytest.mark.parametrize("args,exit_code", _OUTPUT_COMMANDS)
def test_output_path_that_cannot_be_opened_is_a_usage_error(
    runner, monkeypatch, tmp_path, args, exit_code
):
    # a usage error naming the path, raised while the options are parsed:
    # no table is built and no cell runs first
    computed = []
    for name in ("hb_numbers", "hb_higher_polys_series", "a_poly", "run_suite"):
        monkeypatch.setattr(cli_module, name, lambda *a, name=name: computed.append(name))
    target = tmp_path / "missing" / "out"
    res = invoke(runner, *args, "--no-meta", "--output", str(target))
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert f"'{target}'" in res.output
    assert computed == []
    assert not target.parent.exists()
