import argparse
import collections
import contextlib
import csv
import enum
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oadiag
from oadiag import experiments
from oadiag.cli import build_config, build_parser, main
from oadiag.experiments import (
    ConfigError,
    _json_text,
    format_scalar,
    parse_scalar,
    results_to_json,
    run_command,
)
from oadiag.diagonal import DiagonalTensor
from oadiag.numerics import BudgetError, LpParams


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scalar_literals_round_trip():
    for text, value in [("3", 3 + 0j), ("-2.5", -2.5 + 0j), ("1+2i", 1 + 2j),
                        ("0.5-1i", 0.5 - 1j), ("-1i", -1j)]:
        assert parse_scalar(text) == value
    z = 1.2345678901234567 - 0.25j
    assert parse_scalar(format_scalar(z)) == z
    with pytest.raises(ConfigError):
        parse_scalar("widget")


def test_pi_norm_stdout_json(capsys):
    code, out, _ = run(["pi-norm", "--k", "2", "--p", "4", "--coeffs", "1,1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["passed"] is True
    record = doc["records"][0]
    assert record["values"]["closed_form"] == pytest.approx(2.0 ** 0.5)
    # enough parameters to re-run the case in isolation
    assert record["parameters"]["k"] == 2
    assert record["parameters"]["p"] == 4.0
    assert record["parameters"]["coeffs"] == ["1.0", "1.0"]


def test_oa_norm_zero_polynomial_reported_cleanly(capsys):
    code, out, _ = run(["oa-norm", "--k", "2", "--p", "4", "--coeffs", "0,0"], capsys)
    assert code == 0
    doc = json.loads(out)
    record = doc["records"][0]
    assert record["parameters"]["witness_defined"] is False
    assert record["values"]["closed_form"] == 0.0


def test_exit_code_contract(tmp_path, capsys):
    ok = main(["verify-rademacher", "--k", "2", "--depth", "2",
               "--out", str(tmp_path / "ok.json")])
    assert ok == 0
    capsys.readouterr()

    failed, _, err = run(["sweep", "--trials", "1", "--n", "2", "--inject-failure",
                          "--out", str(tmp_path / "fail.json")], capsys)
    assert failed == 1
    assert "failed" in err

    bad_config, _, err = run(["pi-norm", "--k", "2", "--p", "0.5", "--coeffs", "1"], capsys)
    assert bad_config == 2
    assert "error" in err

    missing_coeffs, _, _ = run(["pi-norm", "--k", "2", "--p", "4"], capsys)
    assert missing_coeffs == 2

    budget, _, err = run(["pi-norm", "--k", "2", "--p", "4",
                          "--coeffs", ",".join(["1"] * 25)], capsys)
    assert budget == 3


@pytest.mark.parametrize("coeffs", ["nan,1", "1,-nan", "nan+1i,2", "inf,1", "1+infi"])
def test_non_finite_coefficients_are_a_config_error(coeffs, capsys):
    code, _, err = run(["oa-norm", "--k", "2", "--p", "4", "--coeffs=" + coeffs], capsys)
    assert code == 2
    assert err.startswith("error: ") and "coefficient" in err


def test_sweep_determinism_and_worker_independence(tmp_path):
    base = ["sweep", "--seed", "5", "--trials", "1", "--n", "2"]
    assert main(base + ["--out", str(tmp_path / "a.json")]) == 0
    assert main(base + ["--out", str(tmp_path / "b.json")]) == 0
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    assert a == b
    assert main(base + ["--workers", "3", "--out", str(tmp_path / "c.json")]) == 0
    doc_a = json.loads(a)
    doc_c = json.loads((tmp_path / "c.json").read_text())
    assert doc_a["records"] == doc_c["records"]
    indices = [r["case_index"] for r in doc_c["records"]]
    assert indices == sorted(indices)


@pytest.mark.parametrize("p", ["2.2", "5.3"])
def test_sweep_records_do_not_depend_on_the_trial_count(p, capsys):
    # a case's record depends on its index alone, however many trials share
    # its ascent batch
    records = {}
    for trials in (2, 5):
        code, out, _ = run(["sweep", "--k", "3", "--n", "8", "--p", p, "--trials", str(trials)],
                           capsys)
        assert code == 0
        records[trials] = [_json_text(record) for record in json.loads(out)["records"]]
    assert records[5][:2] == records[2]


@pytest.mark.parametrize("argv", [
    ["sweep", "--k", "3", "--n", "4", "--p", "2.2", "--trials", "5", "--seed", "9"],
    ["sweep", "--k", "3", "--n", "4", "--p", "5.3", "--trials", "5", "--seed", "9"],
    ["sweep", "--k", "2", "--n", "3", "--trials", "5", "--seed", "9"],
    # every trial out of the ascent's step budget: the first trial's error
    ["sweep", "--k", "3", "--n", "4", "--p", "3.0001", "--trials", "5"],
], ids=["sup", "certified", "two-groups", "budget"])
def test_sweep_ascent_batches_split_at_the_cap_without_moving_a_byte(argv, monkeypatch, capsys):
    batches = []

    def recording(polys, *args):
        batches.append(len(polys))
        return norms_numeric(polys, *args)

    norms_numeric = experiments._norms_numeric
    monkeypatch.setattr("oadiag.experiments._norms_numeric", recording)
    whole = run(argv, capsys)
    # the budget error ends the sweep in the first batch's first case
    budget = "3.0001" in argv
    groups = 2 if "--p" not in argv else 1
    assert whole[0] == (3 if budget else 0)
    assert batches == [5] * groups
    for cap, sizes in ((2, [2, 2, 1]), (1, [1] * 5)):
        batches.clear()
        monkeypatch.setattr("oadiag.experiments.SWEEP_ASCENT_BATCH", cap)
        assert run(argv, capsys) == whole
        assert batches == (sizes[:1] if budget else sizes * groups)


def test_a_group_out_of_budget_midway_fails_as_a_call_per_trial(monkeypatch, capsys):
    # under a cap of 500 ascent steps, trial 0 of this group is certified and
    # trial 1 is not: the batch raises trial 1's error, and the sweep exits 3
    # with it, as with one ascent call per trial
    monkeypatch.setattr("oadiag.oapoly.MAX_ASCENT_STEPS", 500)
    calls = []  # each call's batch size and the error it raised, if any

    def recording(polys, *args):
        try:
            batch = norms_numeric(polys, *args)
        except BudgetError as exc:
            calls.append((len(polys), str(exc)))
            raise
        calls.append((len(polys), None))
        return batch

    norms_numeric = experiments._norms_numeric
    monkeypatch.setattr("oadiag.experiments._norms_numeric", recording)
    argv = ["sweep", "--k", "3", "--n", "8", "--p", "3.05", "--trials", "6"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    error = err.removeprefix("error: ").rstrip("\n")
    assert calls == [(6, error)]
    calls.clear()
    monkeypatch.setattr("oadiag.experiments.SWEEP_ASCENT_BATCH", 1)
    assert run(argv, capsys) == (code, out, err)
    assert calls == [(1, None), (1, error)]


@pytest.mark.parametrize("flags, line", [
    (["--inject-failure"], "1 of 2 records failed: injected_failure"),
    (["--tol", "isometry=0"], "2 of 2 records failed: isometry"),
    (["--tol", "isometry=0", "--inject-failure"],
     "2 of 2 records failed: isometry, injected_failure"),
])
def test_exit_1_counts_the_failed_records_and_names_their_flags(flags, line, capsys):
    code, out, err = run(["sweep", "--k", "3", "--n", "8", "--p", "5", "--trials", "2"] + flags,
                         capsys)
    assert code == 1
    assert json.loads(out)["summary"]["passed"] is False
    assert err == line + "\n"


def main_in_fresh_process(argv, runs=1, script=None, module="oadiag.cli", **env):
    """Exit code and stdout of `python -m module argv` in a new interpreter,
    with the environment variables env added; runs > 1 calls main that many
    times in the one interpreter and returns the largest exit code.  A
    script, if given, runs in place of the module, with argv as its arguments."""
    src = str(Path(oadiag.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    program = ["-m", module] if runs == 1 else [
        "-c", "import sys; from oadiag.cli import main; "
              f"sys.exit(max(main(sys.argv[1:]) for _ in range({runs})))"]
    if script is not None:
        program = ["-c", script]
    done = subprocess.run([sys.executable] + program + argv, env=env, capture_output=True)
    return done.returncode, done.stdout.decode()


def sweep_at_blas_threads(threads):
    """stdout of `oadiag sweep --seed 7 --trials 2` in a fresh process whose
    OpenBLAS runs `threads` threads."""
    code, out = main_in_fresh_process(["sweep", "--seed", "7", "--trials", "2"],
                                      OPENBLAS_NUM_THREADS=str(threads))
    assert code == 0
    return out


def test_sweep_is_stable_across_blas_thread_counts():
    # A GEMM's roundoff may depend on how BLAS splits it between threads, so
    # only the reconstruction residues may differ between thread counts.
    outputs = {threads: [sweep_at_blas_threads(threads) for _ in range(2)] for threads in (1, 2)}
    for first, again in outputs.values():
        assert first == again
    one, two = (json.loads(outputs[threads][0]) for threads in (1, 2))
    assert one["config"] == two["config"] and one["summary"] == two["summary"]
    residues = {"reconstruction_offdiagonal", "reconstruction_diagonal"}
    for a, b in zip(one["records"], two["records"], strict=True):
        for field in ("parameters", "values", "passes", "passed"):
            assert a[field] == b[field]
        assert a["deviations"].keys() == b["deviations"].keys()
        for name, value in a["deviations"].items():
            if name in residues:
                assert max(value, b["deviations"][name]) <= 1e-13
            else:
                assert value == b["deviations"][name]


def test_sweep_reusing_cached_phase_expansions_matches_a_fresh_process():
    # The second run reads the phase expansions the first one cached.  Both
    # interpreters pin one BLAS thread, as the GEMM rounds by the thread
    # count, and this process may run another count than its environment names.
    argv = ["sweep", "--seed", "7", "--trials", "2"]
    code, once = main_in_fresh_process(argv, OPENBLAS_NUM_THREADS="1")
    assert code == 0
    assert main_in_fresh_process(argv, runs=2, OPENBLAS_NUM_THREADS="1") == (0, once * 2)


# runs oadiag.cli.main on its arguments and prints whether numpy.random is loaded
REPORT_NUMPY_RANDOM = """import contextlib, io, sys
from oadiag.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print('numpy.random' in sys.modules)
sys.exit(code)
"""
DUALITY_COEFFS = "--coeffs=" + ",".join(str(0.5 + i / 7) for i in range(19))


@pytest.mark.parametrize("argv, loaded", [
    (["pi-norm", "--k", "2", "--p", "4.5", DUALITY_COEFFS], False),
    (["oa-norm", "--k", "2", "--p", "4.5", DUALITY_COEFFS], False),
    (["oa-norm", "--k", "3", "--p", "5", "--coeffs=1,2-1i,3i", "--restarts", "4"], False),
    # restarts beyond the n basis vectors and the uniform start draw
    (["oa-norm", "--k", "3", "--p", "5", "--coeffs=1,2-1i,3i"], True),
], ids=["pi-norm", "oa-norm", "oa-norm-no-draws", "oa-norm-draws"])
def test_numpy_random_is_loaded_only_to_draw(argv, loaded):
    if main_in_fresh_process([], script="import sys, numpy; print('numpy.random' in sys.modules)",
                             OPENBLAS_NUM_THREADS="1")[1].strip() == "True":
        pytest.skip("this numpy imports numpy.random with numpy")
    code, out = main_in_fresh_process(argv, script=REPORT_NUMPY_RANDOM, OPENBLAS_NUM_THREADS="1")
    assert code == 0
    assert out.strip() == str(loaded)


def test_python_dash_m_oadiag_runs_the_cli():
    argv = ["pi-norm", "--k", "2", "--p", "4", "--coeffs", "1,1"]
    package = main_in_fresh_process(argv, module="oadiag")
    assert package[0] == 0 and json.loads(package[1])["summary"]["passed"]
    assert package == main_in_fresh_process(argv)


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    assert run(["pi-norm", "--k", "2", "--p", "4", "--coeffs", "1,1"], capsys)[0] == 0
    assert run(["oa-norm", "--k", "2", "--p", "4", "--coeffs", "1,2"], capsys)[0] == 0
    assert run(["pi-norm", "--k", "2", "--p", "0.5", "--coeffs", "1"], capsys)[0] == 2
    assert built.count("oadiag") == 1
    assert len(built) == 7  # the top parser and one per subcommand


def test_calls_sharing_the_parser_keep_no_state(capsys):
    # append (--tol) and store_true (--timing) values must not reach a later call
    flagged = ["oa-norm", "--k", "2", "--p", "4", "--coeffs", "3,4", "--tol", "isometry=0",
               "--timing"]
    plain = ["oa-norm", "--k", "2", "--p", "4", "--coeffs", "3,4"]

    def untimed(text):
        doc = json.loads(text)
        assert all(isinstance(r.pop("wall_time_ms"), float) for r in doc["records"])
        for record in doc["records"]:
            assert all(isinstance(ms, float) for ms in record.pop("timings_ms").values())
        return doc

    alone = {"flagged": main_in_fresh_process(flagged), "plain": main_in_fresh_process(plain)}
    assert alone["flagged"][0] == 1 and alone["plain"][0] == 0
    for _ in range(2):
        code, out, _ = run(flagged, capsys)
        assert code == alone["flagged"][0] and untimed(out) == untimed(alone["flagged"][1])
        assert run(plain, capsys)[:2] == alone["plain"]


def test_help_wraps_to_the_columns_of_each_call(monkeypatch, capsys):
    def help_lines(columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit) as exit_info:
            main(["pi-norm", "--help"])
        assert exit_info.value.code == 0
        return capsys.readouterr().out.splitlines()

    narrow, wide, narrow_again = help_lines(60), help_lines(200), help_lines(60)
    assert max(map(len, narrow)) <= 60 < max(map(len, wide))
    assert narrow_again == narrow


def outcome(argv, capsys):
    """(exit code, or SystemExit's code, stdout, stderr) of main(argv)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PI_NORM = ["pi-norm", "--k", "2", "--p", "4"]


@pytest.mark.parametrize("argv, columns", [
    (PI_NORM + ["--coeffs", "1,1"], 80),
    (PI_NORM + ["--coeffs", "1,1", "--bogus"], 80),
    (PI_NORM + ["--coef=1"], 80),  # ambiguous: --coeffs or --coeffs-file
    (PI_NORM + ["--coeffs-f", "missing.json"], 80),  # a unique abbreviation
    (["pi-norm", "--k"], 80),
    (["pi-norm", "--k", "x"], 80),
    (["--help"], 80),
    (["pi-norm", "--help"], 60),
    (["pi-norm", "--help"], 200),
    ([], 80),
    (["pi-norm-x", "--k", "2"], 80),
    (["--k", "2", "pi-norm"], 80),
    (PI_NORM + ["--coeffs", "-3,4"], 80),
], ids=["valid", "bogus-flag", "ambiguous", "abbreviation", "k-no-value", "k-not-int",
        "top-help", "help-60", "help-200", "no-args", "unknown-command", "option-first",
        "coeffs-rewrite"])
def test_direct_dispatch_matches_the_top_parser(argv, columns, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", str(columns))
    direct = outcome(argv, capsys)
    # with no subcommand parser to dispatch to, main parses with the top parser
    monkeypatch.setattr(build_parser(), "commands", {})
    assert outcome(argv, capsys) == direct


def test_a_command_is_parsed_by_its_own_parser(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the top parser parsed a command line")

    monkeypatch.setattr(build_parser(), "parse_args", refuse)
    monkeypatch.setattr(build_parser(), "parse_known_args", refuse)
    assert outcome(PI_NORM + ["--coeffs", "1,1"], capsys)[0] == 0
    code, out, err = outcome(PI_NORM + ["--coeffs", "1,1", "--bogus"], capsys)
    assert (code, out) == ("SystemExit(2)", "")
    assert err.endswith("oadiag: error: unrecognized arguments: --bogus\n")


def test_sweep_regime_routing(tmp_path):
    # p <= k grid runs the sup-norm regime and still passes
    assert main(["sweep", "--seed", "3", "--trials", "1", "--k", "3", "--p", "2",
                 "--n", "3", "--out", str(tmp_path / "low.json")]) == 0
    doc = json.loads((tmp_path / "low.json").read_text())
    assert doc["summary"]["passed"] is True
    assert all(r["parameters"]["p"] == 2.0 for r in doc["records"])


def test_csv_projection(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["pi-norm", "--k", "2", "--p", "4", "--coeffs", "3,4",
                 "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "value_closed_form" in header
    assert "pass_sandwich" in header


def test_csv_rows_match_the_json_records(capsys):
    argv = ["sweep", "--n", "2", "--trials", "2", "--inject-failure"]
    code, out, _ = run(argv, capsys)
    assert code == 1
    records = json.loads(out)["records"]
    code, out, _ = run(argv + ["--format", "csv"], capsys)
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(records) == 8
    for row, record in zip(rows, records):
        expected = {"command": "sweep", "case_index": str(record["case_index"]),
                    "parameters": json.dumps(record["parameters"], sort_keys=True),
                    "passed": str(record["passed"]), "wall_time_ms": ""}
        for prefix, group, fmt in (("value", "values", repr), ("deviation", "deviations", repr),
                                   ("pass", "passes", str)):
            expected.update({f"{prefix}_{key}": fmt(v) for key, v in record[group].items()})
        # a column that only another record carries is empty
        assert expected.keys() <= row.keys()
        assert row == {column: expected.get(column, "") for column in row}
    assert rows[0]["pass_injected_failure"] == "False" and rows[1]["pass_injected_failure"] == ""
    code, out, _ = run(argv + ["--format", "csv", "--timing"], capsys)
    assert all(float(row["wall_time_ms"]) >= 0.0 for row in csv.DictReader(io.StringIO(out)))


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "p": 4.0, "coeffs": ["1", "1"], "seed": 9}))
    code, out, _ = run(["pi-norm", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["config"]["p"] == 4.0

    # explicit flag wins over the file
    code, out, _ = run(["pi-norm", "--config", str(cfg), "--p", "6"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["p"] == 6.0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    code, _, err = run(["pi-norm", "--config", str(bad)], capsys)
    assert code == 2


@pytest.mark.parametrize("values", [{"k": "2", "p": 4, "coeffs": ["1"]},
                                    {"k": 2, "p": 4, "coeffs": ["1"], "tolerances": None}],
                         ids=["string_k", "null_tolerances"])
def test_config_file_value_of_wrong_type_is_a_config_error(values, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(values))
    code, out, err = run(["pi-norm", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: config key")


def test_config_file_p_past_the_float_range_is_a_config_error(tmp_path, capsys):
    # an integer p of 401 digits passed the p >= 1 check, and float(p) raised
    cfg = tmp_path / "c.json"
    cfg.write_text('{"k": 2, "p": 1' + "0" * 400 + ', "coeffs": ["1"]}')
    code, out, err = run(["pi-norm", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == "" and err == "error: p must satisfy 1 <= p < inf\n"


def test_coeffs_file(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps(["3", "4"]))
    code, out, _ = run(["oa-norm", "--k", "2", "--p", "4",
                        "--coeffs-file", str(coeffs)], capsys)
    assert code == 0
    assert json.loads(out)["records"][0]["values"]["closed_form"] == pytest.approx(5.0)


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("OADIAG_OUT_DIR", str(tmp_path))
    assert main(["pi-norm", "--k", "2", "--p", "4", "--coeffs", "1",
                 "--out", "nested/result.json"]) == 0
    assert (tmp_path / "nested" / "result.json").exists()


def test_tolerance_override_can_force_failure(tmp_path):
    # an impossible tolerance turns a passing check into exit code 1
    code = main(["oa-norm", "--k", "2", "--p", "4", "--coeffs", "3,4",
                 "--tol", "isometry=0", "--tol", "witness=0",
                 "--out", str(tmp_path / "t.json")])
    assert code == 1
    code = main(["oa-norm", "--k", "2", "--p", "4", "--coeffs", "3,4",
                 "--tol", "nonsense=1"])
    assert code == 2


def test_verify_rademacher_records(tmp_path):
    out = tmp_path / "vr.json"
    assert main(["verify-rademacher", "--k", "4", "--depth", "3",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["total"] == 3 ** 4
    mixed = next(r for r in doc["records"]
                 if r["parameters"]["levels"] == [1, 1, 2, 2])
    assert mixed["values"]["rule"] == 0.0
    assert mixed["values"]["bruteforce"] == 0.0


def test_zalduendo_command(tmp_path):
    out = tmp_path / "z.json"
    assert main(["zalduendo-check", "--k", "2", "--p", "4", "--n", "2",
                 "--trials", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for record in doc["records"]:
        assert record["passes"]["oracle_agreement"] is True
        assert record["passes"]["diagonal_bound"] is True
    assert main(["zalduendo-check", "--k", "2", "--p", "4", "--n", "5"]) == 2


@pytest.mark.parametrize("p, seed, code", [
    # the ascent is within 1e-4 of the proven bound on the first three, low on the last two
    ("4.187", "52202", 0), ("7.56", "839966", 0), ("6.099", "38455", 0),
    ("6.155", "370120", 1), ("6.321", "552830", 1),
])
def test_zalduendo_judges_the_ascent_by_the_enclosure(p, seed, code, capsys):
    exit_code, out, _ = run(["zalduendo-check", "--k", "3", "--n", "3", "--trials", "1",
                             "--p", p, "--seed", seed], capsys)
    assert exit_code == code
    record = json.loads(out)["records"][0]
    values = record["values"]
    assert values["ascent_estimate"] <= values["sup_upper"]
    assert values["sup_upper"] - values["grid_estimate"] <= 1e-5 * values["grid_estimate"]
    assert record["passes"] == {"oracle_agreement": code == 0, "diagonal_bound": True}


# zalduendo-check's (ascent_estimate, grid_estimate, sup_upper) per record,
# as float.hex: on the first six (p, seed) pairs of the zalduendo benchmark
# pool at k = n = 3, then on the five trials of --k 2 --p 3 --n 2
ZALDUENDO_PINS = [
    (["--k", "3", "--n", "3", "--trials", "1", "--p", "6.021", "--seed", "300965"],
     [("0x1.f32ad92332135p+1", "0x1.f32ad92332135p+1", "0x1.f32c1f501f869p+1")]),
    (["--k", "3", "--n", "3", "--trials", "1", "--p", "6.234", "--seed", "198490"],
     [("0x1.f7b5aad1734cdp+1", "0x1.f7b5aad1734cdp+1", "0x1.f7b6efea4ae4fp+1")]),
    (["--k", "3", "--n", "3", "--trials", "1", "--p", "6.792", "--seed", "745557"],
     [("0x1.35a9f334d26b6p+3", "0x1.35a9f334d26b6p+3", "0x1.35aab841f6968p+3")]),
    (["--k", "3", "--n", "3", "--trials", "1", "--p", "5.221", "--seed", "189804"],
     [("0x1.6873a2099dde6p+2", "0x1.6873a2099dde6p+2", "0x1.68748e2314c8ap+2")]),
    (["--k", "3", "--n", "3", "--trials", "1", "--p", "5.773", "--seed", "589095"],
     [("0x1.dba5570d21d20p+1", "0x1.dba5570d21d20p+1", "0x1.dba688e5aff05p+1")]),
    (["--k", "3", "--n", "3", "--trials", "1", "--p", "4.823", "--seed", "305058"],
     [("0x1.1c1dbcf7d6045p+2", "0x1.1c1dbcf7d6045p+2", "0x1.1c1e713d4d8b5p+2")]),
    (["--k", "2", "--p", "3", "--n", "2", "--trials", "5"],
     [("0x1.dcd6f9410c63ap-2", "0x1.dcd6f9410c63ap-2", "0x1.dcd713ec71973p-2"),
      ("0x1.d6447f7a1c84ap+0", "0x1.d6447f7a1c84ap+0", "0x1.d645064113959p+0"),
      ("0x1.27cf562370de9p+0", "0x1.27cf562370de9p+0", "0x1.27cf970177e55p+0"),
      ("0x1.0fd3242f7b08cp+0", "0x1.0fd3242f7b08cp+0", "0x1.0fd349784c1d8p+0"),
      ("0x1.5169e5eb284dcp-1", "0x1.5169e5eb284dcp-1", "0x1.516a09e5dd72bp-1")]),
]


@pytest.mark.parametrize("argv, pins", ZALDUENDO_PINS)
def test_zalduendo_check_is_bitwise_pinned(argv, pins, capsys):
    code, out, err = run(["zalduendo-check"] + argv, capsys)
    assert code == 0, err
    got = [tuple(record["values"][name].hex()
                 for name in ("ascent_estimate", "grid_estimate", "sup_upper"))
           for record in json.loads(out)["records"]]
    assert got == pins


# pi-norm's closed form, upper bound, lower bound and sandwich deviation as
# float.hex: real and complex, both regimes, scales 1e-300 to 1e300, k to 10^6
PI_SANDWICH_PINS = [
    (["--k", "2", "--p", "4", "--coeffs=3,-4"],
     ("0x1.4000000000000p+2", "0x1.4000000000000p+2", "0x1.4000000000000p+2", "0x0.0p+0")),
    (["--k", "3", "--p", "7.3", "--coeffs=0.8-1.1i,-0.35+0.2i,1.7i,-0.9,0.05+0.6i"],
     ("0x1.1b873df3e4743p+1", "0x1.1b873df3e4744p+1", "0x1.1b873df3e4743p+1",
      "0x1.ce49f9c5697d4p-53")),
    (["--k", "3", "--p", "2", "--coeffs=1,2-1i,3i"],
     ("0x1.8f1bbcdcbfa54p+2", "0x1.8f1bbcdcbfa54p+2", "0x1.8f1bbcdcbfa54p+2", "0x0.0p+0")),
    (["--k", "2", "--p", "4.5", "--coeffs=1e300,-2.5e299,7e299"],
     ("0x1.c8b726e14f750p+996", "0x1.c8b726e14f750p+996", "0x1.c8b726e14f750p+996", "0x0.0p+0")),
    (["--k", "2", "--p", "2", "--coeffs=1e300,-3e299i"],
     ("0x1.f0f1b7d9a327ep+996", "0x1.f0f1b7d9a327ep+996", "0x1.f0f1b7d9a327ep+996", "0x0.0p+0")),
    (["--k", "3", "--p", "5", "--coeffs=1e-300+2e-300i,-3e-301,4e-300i"],
     ("0x1.a24580b4c0078p-995", "0x1.a24580b4c0077p-995", "0x1.a24580b4c0075p-995",
      "0x1.d60c7be7cc111p-52")),
    (["--k", "4", "--p", "3", "--coeffs=1e-300,-2e-300+1e-301i"],
     ("0x1.016050d9a09bep-995", "0x1.016050d9a09bep-995", "0x1.016050d9a09bep-995", "0x0.0p+0")),
    (["--k", "2", "--p", "1e20", "--coeffs=1+2i,0.5-1i,3i"],
     ("0x1.8000000000000p+1", "0x1.8000000000000p+1", "0x1.8000000000000p+1", "0x0.0p+0")),
    (["--k", "1000000", "--p", "2000000", "--coeffs=1"],
     ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0")),
    (["--k", "1000000", "--p", "3000000.5", "--coeffs=0.3-0.4i"],
     ("0x1.0000000000000p-1", "0x1.ffffffff8fb47p-2", "0x1.0000000000000p-1",
      "0x1.c12e400000000p-35")),
    (["--k", "1000000", "--p", "2", "--coeffs=1,-2,3i"],
     ("0x1.8000000000000p+2", "0x1.8000000000000p+2", "0x1.8000000000000p+2", "0x0.0p+0")),
]


@pytest.mark.parametrize("argv, pins", PI_SANDWICH_PINS)
def test_pi_sandwich_is_bitwise_pinned(argv, pins, capsys):
    code, out, err = run(["pi-norm"] + argv, capsys)
    assert code == 0, err
    record = json.loads(out)["records"][0]
    got = tuple(record["values"][name].hex()
                for name in ("closed_form", "upper_bound", "lower_bound"))
    assert got + (record["deviations"]["sandwich"].hex(),) == pins


def test_pi_sandwich_validates_one_tensor(monkeypatch):
    # the sandwich validates its unit-scale tensor once; both bounds scale
    # its coefficient array without building another
    u = DiagonalTensor([3.0, -1.5 + 2j, 0.25, 1e-3j], LpParams(5.0, 2))
    validated = []
    validate = DiagonalTensor.__post_init__

    def counting(self):
        validated.append(self)
        validate(self)

    monkeypatch.setattr(DiagonalTensor, "__post_init__", counting)
    experiments._pi_sandwich(experiments.ExperimentConfig("pi-norm"), u)
    assert len(validated) == 1


def test_pi_and_oa_norm_format_parse_and_phase_each_coefficient_once(monkeypatch, capsys):
    # the config echo and the record share one literal per coefficient, and
    # each phase loop makes one pass over the coefficients
    coeffs = ["1.5", "-2-0.5i", "0", "3i", "-0.0+1i", "1e-320", "-4"]
    n = len(coeffs)
    calls = {}

    def count(module, name, size=lambda args: 1):
        original = getattr(module, name)

        def counting(*args):
            calls.setdefault(name, []).append(size(args))
            return original(*args)

        monkeypatch.setattr(module, name, counting)

    count(experiments, "format_scalar")
    count(oadiag.cli, "parse_scalar")
    count(oadiag.diagonal, "_phases", lambda args: len(args[0]))
    count(oadiag.oapoly, "_phase_roots", lambda args: len(args[0]))
    for command, loop in (("pi-norm", "_phases"), ("oa-norm", "_phase_roots")):
        calls.clear()
        code, out, err = run([command, "--k", "2", "--p", "4", "--coeffs=" + ",".join(coeffs)],
                             capsys)
        assert code == 0, err
        assert calls == {"parse_scalar": [1] * n, "format_scalar": [1] * n, loop: [n]}
        doc = json.loads(out)
        assert doc["config"]["coeffs"] == doc["records"][0]["parameters"]["coeffs"]


def test_coefficient_literals_keep_the_sign_of_zero(capsys):
    # -0.0 and 0.0 compare and hash equal but format apart, across calls and
    # after the coefficients change in place
    for command, first, second in (("pi-norm", "0.0,1", "-0.0,1"),
                                   ("oa-norm", "0.0+1i,2", "-0.0+1i,2")):
        for coeffs in (first, second, first):
            code, out, err = run([command, "--k", "2", "--p", "4", "--coeffs=" + coeffs], capsys)
            assert code == 0, err
            doc = json.loads(out)
            expected = [format_scalar(parse_scalar(c)) for c in coeffs.split(",")]
            assert doc["config"]["coeffs"] == doc["records"][0]["parameters"]["coeffs"] == expected
    cfg = experiments.ExperimentConfig("pi-norm", coeffs=[0.0, 1 + 0j])
    assert cfg.coeff_literals() == ["0.0", "1.0"]
    cfg.coeffs[0] = -0.0
    assert cfg.coeff_literals() == ["-0.0", "1.0"]
    cfg.coeffs = [0.0, 1 + 0j]
    assert cfg.to_dict()["coeffs"] == ["0.0", "1.0"]


def test_zalduendo_box_budget_exits_3(monkeypatch, capsys):
    monkeypatch.setattr("oadiag.oapoly.MAX_ENCLOSURE_BOXES", 50)
    code, out, err = run(["zalduendo-check", "--k", "3", "--n", "3", "--p", "4.187",
                          "--trials", "1", "--seed", "52202"], capsys)
    assert code == 3 and out == ""
    assert "box budget" in err and "cap is 50" in err


def test_additivity_command(tmp_path):
    out = tmp_path / "a.json"
    assert main(["additivity-test", "--k", "3", "--p", "4", "--n", "4",
                 "--trials", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["total"] == 4
    assert all(r["passes"]["additivity_agreement"] for r in doc["records"])


def test_additivity_at_the_float_range(capsys):
    code, out, err = run(["additivity-test", "--k", "2", "--p", "4", "--coeffs=1e308,1e308"],
                         capsys)
    assert code == 0, err
    record = strict_json(out)["records"][0]
    assert record["passed"] is True
    assert 0.0 <= record["values"]["behavioral_defect"] < 1e308


@st.composite
def additivity_cases(draw):
    """k in 2..4, p in both regimes, up to five coefficients of magnitude 1e-3
    to 1e3 or 0, real or complex, divided by the largest modulus, and a
    scale 10^e with e in [-300, 308], half the time in [305, 308]."""
    k = draw(st.sampled_from([2, 3, 4]))
    p = k + draw(st.one_of(st.floats(1e-3, 4.0), st.floats(1.0 - k, 0.0)))
    magnitudes = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
    parts = draw(st.lists(st.tuples(magnitudes, magnitudes), min_size=1, max_size=5))
    real = draw(st.booleans())
    mantissas = [complex(re, 0.0 if real else im) for re, im in parts]
    top = max(abs(m) for m in mantissas) or 1.0
    exponent = draw(st.one_of(st.floats(-300.0, 308.0), st.floats(305.0, 308.0)))
    return k, p, [m / top for m in mantissas], 10.0 ** exponent


@settings(max_examples=100, deadline=None)
@given(additivity_cases())
def test_additivity_is_scale_safe(case):
    """Exit 0 with strict JSON, or exit 2 when a coefficient or the defect
    leaves the float range; never a traceback or exit 1."""
    k, p, mantissas, scale = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["additivity-test", "--k", str(k), "--p", repr(p),
                     "--coeffs=" + ",".join(format_scalar(scale * m) for m in mantissas)])
    assert code in (0, 2), err.getvalue()
    if code == 0:
        assert strict_json(out.getvalue())["summary"]["passed"] is True
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


# four records from each multi-record command
SMALL_SHAPES = {
    "verify-rademacher": ["--k", "2", "--depth", "2"],
    "pi-norm": ["--k", "2", "--p", "4", "--coeffs", "1,2"],
    "oa-norm": ["--k", "2", "--p", "4", "--coeffs", "1,2"],
    "additivity-test": ["--k", "2", "--p", "4", "--n", "2", "--trials", "4"],
    "zalduendo-check": ["--k", "2", "--p", "4", "--n", "2", "--trials", "4"],
    "sweep": ["--k", "2", "--p", "4", "--n", "2", "--trials", "4"],
}


@pytest.mark.parametrize("command", sorted(SMALL_SHAPES))
def test_timing_flag_breaks_byte_identity_only_when_used(command, tmp_path):
    base = [command] + SMALL_SHAPES[command]
    assert main(base + ["--out", str(tmp_path / "plain.json")]) == 0
    plain = json.loads((tmp_path / "plain.json").read_text())["records"]
    assert plain and all(r["wall_time_ms"] is None for r in plain)
    assert main(base + ["--timing", "--out", str(tmp_path / "timed.json")]) == 0
    timed = json.loads((tmp_path / "timed.json").read_text())["records"]
    assert all(isinstance(r.pop("wall_time_ms"), float) for r in timed)
    # stage timings come only with --timing
    assert all("timings_ms" not in r for r in plain)
    for record in timed:
        assert all(isinstance(ms, float) for ms in record.pop("timings_ms", {}).values())
    for record in plain:
        del record["wall_time_ms"]
    assert timed == plain


@pytest.mark.parametrize("timing", [[], ["--timing"]], ids=["untimed", "timed"])
@pytest.mark.parametrize("command", sorted(SMALL_SHAPES))
def test_json_document_is_what_json_dumps_writes(command, timing):
    cfg = build_config(build_parser().parse_args([command] + SMALL_SHAPES[command] + timing))
    records, summary = run_command(cfg)
    doc = {"config": cfg.to_dict(), "records": records, "summary": summary}
    assert results_to_json(cfg, records, summary) == json.dumps(doc, indent=2,
                                                                allow_nan=False) + "\n"


@pytest.mark.parametrize("timing", [[], ["--timing"]], ids=["untimed", "timed"])
@pytest.mark.parametrize("command", sorted(SMALL_SHAPES))
def test_json_document_never_reaches_json_dumps(command, timing, monkeypatch):
    # every value a command writes is of json's own exact types, so the
    # writer formats it in place; a numpy scalar leaking into a record would
    # go to json.dumps, which raises here
    cfg = build_config(build_parser().parse_args([command] + SMALL_SHAPES[command] + timing))
    records, summary = run_command(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError(f"json.dumps reached with {args[0]!r}")

    monkeypatch.setattr(json, "dumps", refuse)
    assert results_to_json(cfg, records, summary).endswith("\n}\n")


class Items(list):
    pass


def test_json_writer_matches_json_dumps_on_a_crafted_tree():
    tree = {
        "empty": {}, "": [], "nested": [[1, [2.5, [], {}]], [[[]]]], "tuple": (1, ("a", None)),
        "constants": [None, True, False],
        "numbers": [-0.0, 5e-324, 1e308, 2 ** 70, -(2 ** 70), 0, np.float64(0.1)],
        "strings": ['say "hi"', "back\\slash", "\x00\t\n\x1f\x7f", "caf\u00e9 \u2211 \U0001d11e"],
        "keys \"quoted\" \u00fc": {"deeper": {"deepest": [{"a": 1}, {}]}},
        # subclasses, non-str keys and numpy scalars, two and three containers deep
        "two deep": [collections.OrderedDict([("b", [1, {}]), ("a", 2.5)]), Items([0.5, Items()]),
                     {3: [1, {"x": None}], "y": Items([{}])}, np.float64(-0.0)],
        "three deep": {"in": [collections.OrderedDict([(1, "one"), ("two", [2, []])]),
                              Items([np.float64(1e-300), {2.5: Items([1])}]),
                              {None: {"z": [True]}}, np.float64(7.0)]},
    }
    assert _json_text(tree) == json.dumps(tree, indent=2, allow_nan=False)
    # json's conversions of int, float, bool and None keys
    keys = {1: "int", 2.5: "float", False: "bool", None: "none", -0.0: "negative zero"}
    assert _json_text(keys) == json.dumps(keys, indent=2, allow_nan=False)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


def test_json_writer_matches_json_dumps_across_calls_and_key_types():
    # str keys that read like json's other key texts, then the keys json
    # writes as those texts, then both again in the reverse order: a type or
    # key cache in the writer must not carry one call's text to the next
    texts = {"1": 0, "true": 1, "null": 2, "-0.0": 3}
    scalars = {1: 0, True: 1, None: 2, -0.0: 3}
    subclasses = {Level.HIGH: Level.LOW, Label("1"): Label("caf\u00e9"), Level.LOW: [Label("x")],
                  np.float64(-0.0): np.float64(2.5), "values": [Level.HIGH, Label("y"), 0.0]}
    # keys and values that compare equal and are written apart
    equals = [0, 0.0, -0.0, False, 1, True, 1.0, Level.LOW, np.float64(1.0)]
    singles = [{key: key} for key in equals]
    for tree in (texts, scalars, subclasses, singles, equals, equals[::-1], singles[::-1],
                 subclasses, scalars, texts):
        assert _json_text(tree) == json.dumps(tree, indent=2, allow_nan=False)
        assert _json_text([tree]) == json.dumps([tree], indent=2, allow_nan=False)


@pytest.mark.parametrize("bad, error", [
    (math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
    (np.float64("nan"), ValueError), (np.int64(1), TypeError), (np.bool_(True), TypeError),
    ({1}, TypeError),
], ids=["nan", "inf", "-inf", "np-nan", "np-int64", "np-bool", "set"])
def test_json_writer_rejects_what_json_dumps_rejects(bad, error):
    trees = [{"value": bad}, {"list": [1, [bad]]}, {"tuple": ("a", bad)}]
    if not isinstance(bad, set):  # a set cannot be a key
        trees.append({bad: 1})
    for tree in trees:
        with pytest.raises(error):
            json.dumps(tree, indent=2, allow_nan=False)
        with pytest.raises(error):
            _json_text(tree)


def test_zalduendo_times_the_ascent_and_the_enclosure(capsys):
    argv = ["zalduendo-check"] + SMALL_SHAPES["zalduendo-check"] + ["--timing"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    for record in json.loads(out)["records"]:
        stages = record["timings_ms"]
        assert list(stages) == ["ascent", "enclosure"]
        assert all(0.0 <= ms <= record["wall_time_ms"] for ms in stages.values())
    code, out, _ = run(argv + ["--format", "csv"], capsys)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert all(float(row["timing_ascent_ms"]) >= 0.0 and float(row["timing_enclosure_ms"]) >= 0.0
               for row in rows)
    code, out, _ = run(argv[:-1] + ["--format", "csv"], capsys)
    assert "timing_" not in out


STAGES = {"pi-norm": ["pi_sandwich"], "oa-norm": ["oa_isometry"],
          "additivity-test": ["additivity"],
          "sweep": ["reconstruction", "pi_sandwich", "oa_isometry", "additivity"]}


@pytest.mark.parametrize("command", sorted(STAGES))
def test_commands_time_their_stages(command, capsys):
    argv = [command] + SMALL_SHAPES[command] + ["--timing"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    records = json.loads(out)["records"]
    for record in records:
        stages = record["timings_ms"]
        assert list(stages) == STAGES[command]
        assert all(ms >= 0.0 for ms in stages.values())
        assert sum(stages.values()) <= record["wall_time_ms"]
    code, out, _ = run(argv + ["--format", "csv"], capsys)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(records)
    assert all(float(row[f"timing_{name}_ms"]) >= 0.0
               for row in rows for name in STAGES[command])
    code, out, _ = run(argv[:-1], capsys)
    assert all("timings_ms" not in record for record in json.loads(out)["records"])
    code, out, _ = run(argv[:-1] + ["--format", "csv"], capsys)
    assert "timing_" not in out


SANDWICH = (["sandwich"], ["sandwich"])
ISOMETRY = (["isometry", "witness"], ["isometry", "witness"])
ADDITIVITY = (["additivity_offdiagonal", "additivity_behavioral"],
              ["additivity_structural", "additivity_behavioral", "additivity_agreement"])
RECONSTRUCTION = (["reconstruction_offdiagonal", "reconstruction_diagonal"],) * 2
SWEEP_VOCABULARY = tuple(sum(group, []) for group in
                         zip(RECONSTRUCTION, SANDWICH, ISOMETRY, ADDITIVITY))
# (deviation keys, pass keys) of a record, in order, per command and regime
VOCABULARY = [
    (["verify-rademacher", "--k", "3", "--depth", "2"],
     (["rule_vs_expected", "bruteforce_vs_rule"],) * 2),
    (["pi-norm", "--k", "2", "--p", "4", "--coeffs", "1,2-1i"], SANDWICH),
    (["pi-norm", "--k", "3", "--p", "2", "--coeffs", "1,2-1i"], SANDWICH),
    (["oa-norm", "--k", "2", "--p", "4", "--coeffs", "1,2-1i"], ISOMETRY),
    (["oa-norm", "--k", "3", "--p", "2", "--coeffs", "1,2-1i"], ISOMETRY),
    (["additivity-test", "--k", "2", "--p", "4", "--n", "3", "--trials", "2"], ADDITIVITY),
    (["additivity-test", "--k", "3", "--p", "2", "--coeffs", "1,2-1i"], ADDITIVITY),
    (["zalduendo-check", "--k", "2", "--p", "3", "--n", "2", "--trials", "2"],
     (["oracle_agreement", "diagonal_excess"], ["oracle_agreement", "diagonal_bound"])),
    (["sweep", "--k", "2", "--p", "4", "--n", "2", "--trials", "2"], SWEEP_VOCABULARY),
    (["sweep", "--k", "3", "--p", "2", "--n", "2", "--trials", "2"], SWEEP_VOCABULARY),
    (["sweep", "--k", "2", "--p", "4", "--n", "2", "--trials", "1", "--inject-failure"],
     tuple(keys + ["injected_failure"] for keys in SWEEP_VOCABULARY)),
]
# pass flags of the four identity commands that no tolerance names
UNTOLERATED_FLAGS = {"reconstruction_offdiagonal", "reconstruction_diagonal",
                     "additivity_agreement", "injected_failure"}


def _regime(argv):
    """The regime a command line asks for: k_below_p or p_below_k, or none
    for a command that takes no p."""
    if "--p" not in argv:
        return argv[0]
    k, p = int(argv[argv.index("--k") + 1]), float(argv[argv.index("--p") + 1])
    injected = "-injected_failure" if "--inject-failure" in argv else ""
    return f"{argv[0]}-{'k_below_p' if k < p else 'p_below_k'}{injected}"


@pytest.mark.parametrize("argv, vocabulary", VOCABULARY,
                         ids=[_regime(argv) for argv, _ in VOCABULARY])
def test_record_vocabulary(argv, vocabulary, capsys):
    code, out, err = run(argv, capsys)
    assert code == (1 if "--inject-failure" in argv else 0), err
    for record in json.loads(out)["records"]:
        assert (list(record["deviations"]), list(record["passes"])) == tuple(vocabulary)
        if argv[0] not in ("verify-rademacher", "zalduendo-check"):
            assert set(record["passes"]) <= set(experiments.DEFAULT_TOLERANCES) | UNTOLERATED_FLAGS


# runs sweep on its arguments, then pi-norm, oa-norm and additivity-test on
# each sweep record's inputs as sweep derives them, and prints every document
REPLAY_SWEEP = """import contextlib, io, json, sys
from oadiag.cli import main

def document(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return json.loads(out.getvalue())

sweep = document(sys.argv[1:])
config, replays = sweep["config"], []
for record in sweep["records"]:
    params = record["parameters"]
    inputs = ["--k", str(params["k"]), "--p", repr(params["p"]),
              "--coeffs=" + ",".join(params["coeffs"])]
    seed = str(config["seed"] + record["case_index"])
    restarts = str(min(config["restarts"], params["n"] + 4))
    iters = str(min(config["iters"], 250))
    replays.append([document(["pi-norm"] + inputs),
                    document(["oa-norm"] + inputs + ["--restarts", restarts, "--iters", iters,
                                                     "--seed", seed]),
                    document(["additivity-test"] + inputs + ["--seed", seed])])
print(json.dumps([sweep, replays]))
"""


@pytest.mark.parametrize("argv", [
    ["sweep", "--k", "3", "--n", "4", "--p", "5", "--trials", "3", "--seed", "2"],
    ["sweep", "--k", "2", "--n", "8", "--p", "1.5", "--trials", "3", "--seed", "4"],
    ["sweep", "--seed", "7", "--trials", "2"],
], ids=["k_below_p", "p_below_k", "default"])
def test_single_identity_commands_judge_as_sweep_does(argv):
    # The in-process replay runs in a fresh interpreter with one BLAS thread,
    # as this process may run another thread count than its environment names.
    code, out = main_in_fresh_process(argv, script=REPLAY_SWEEP, OPENBLAS_NUM_THREADS="1")
    assert code == 0
    sweep, replays = json.loads(out)
    for record, documents in zip(sweep["records"], replays, strict=True):
        names = set()
        for doc in documents:
            (single,) = doc["records"]
            for field in ("deviations", "passes"):
                assert {name: repr(value) for name, value in single[field].items()} == \
                    {name: repr(record[field][name]) for name in single[field]}
            names.update(single["deviations"], single["passes"])
        assert names | set(RECONSTRUCTION[0]) == set(record["deviations"]) | set(record["passes"])


# runs oadiag.cli.main on its arguments and prints whether numpy.ma is loaded
REPORT_NUMPY_MA = REPORT_NUMPY_RANDOM.replace("'numpy.random'", "'numpy.ma'")


@pytest.mark.parametrize("command", sorted(SMALL_SHAPES))
def test_no_command_imports_numpy_ma(command):
    # numpy.ma (np.unique imports it, for one) adds about 1 MB to a process
    if main_in_fresh_process([], script="import sys, numpy; print('numpy.ma' in sys.modules)",
                             OPENBLAS_NUM_THREADS="1")[1].strip() == "True":
        pytest.skip("this numpy imports numpy.ma with numpy")
    code, out = main_in_fresh_process([command] + SMALL_SHAPES[command], script=REPORT_NUMPY_MA,
                                      OPENBLAS_NUM_THREADS="1")
    assert code == 0
    assert out.strip() == "False"


@pytest.mark.parametrize("command", ["verify-rademacher", "additivity-test",
                                     "zalduendo-check", "sweep"])
def test_case_cap_applies_to_every_multi_record_command(command, monkeypatch, capsys):
    monkeypatch.setattr("oadiag.experiments.MAX_CASES", 3)
    code, out, err = run([command] + SMALL_SHAPES[command], capsys)
    assert code == 3
    assert out == "" and "case budget exceeded: 4 cases asked for, cap is 3" in err


@pytest.mark.parametrize("coeffs, echoed", [("-3,4", ["-3.0", "4.0"]),
                                            ("-1+2i,4", ["-1.0+2.0i", "4.0"])], ids=["real", "complex"])
def test_coeffs_with_leading_minus_as_separate_value(coeffs, echoed, capsys):
    code, out, _ = run(["oa-norm", "--k", "2", "--p", "4", "--coeffs", coeffs], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["coeffs"] == echoed
    assert doc["records"][0]["parameters"]["coeffs"] == echoed


@pytest.mark.parametrize("argv", [["--k", "2", "--p", "2.001", "--coeffs=3,4,1"],
                                  ["--k", "2", "--p", "4", "--coeffs=1e-300,2e-300"],
                                  ["--k", "2", "--p", "4", "--coeffs=1e300,2e300"]],
                         ids=["p_near_k", "tiny", "huge"])
def test_oa_norm_powers_do_not_overflow(argv, capsys):
    code, out, _ = run(["oa-norm"] + argv, capsys)
    assert code == 0
    assert json.loads(out)["summary"]["passed"] is True


def oa_norm_record(k, p, coeffs):
    """Exit code and record of oa-norm through main(); no traceback, config or budget exit.

    Captures output itself: Hypothesis runs many examples per test call, so
    the capsys fixture of run() would be shared between them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["oa-norm", "--k", str(k), "--p", repr(p),
                     "--coeffs=" + ",".join(repr(c) for c in coeffs)])
    assert code in (0, 1), err.getvalue()
    return code, json.loads(out.getvalue())["records"][0]


@st.composite
def oa_norm_cases(draw):
    """k, p from 1 up to k + 4 (p - k down to 1e-3), up to six coefficients of
    magnitude 1e-3 to 1e3 or 0, and a scale 10^e with e in [-300, 300]."""
    k = draw(st.sampled_from([2, 3, 4]))
    p = k + draw(st.one_of(st.floats(1e-3, 4.0), st.floats(1.0 - k, 0.0)))
    magnitudes = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
    mantissas = draw(st.lists(magnitudes, min_size=1, max_size=6))
    return k, p, mantissas, 10.0 ** draw(st.floats(-300.0, 300.0))


@settings(max_examples=100, deadline=None)
@given(oa_norm_cases())
def test_oa_norm_is_scale_safe(case):
    k, p, mantissas, scale = case
    code, record = oa_norm_record(k, p, [scale * m for m in mantissas])
    assert record["passes"]["witness"]
    assert code == 0


def test_oa_norm_just_above_p_equals_k_with_a_near_tie(capsys):
    code, out, _ = run(["oa-norm", "--k", "4", "--p", "4.004637015270084",
                        "--coeffs=0.22295439916751023,0.08004666185987808,"
                        "-0.3311162613007965,0.33190656698647625"], capsys)
    assert code == 0
    assert json.loads(out)["summary"]["passed"] is True


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("gap", [1e-3, 3e-3, 1e-2])
@pytest.mark.parametrize("one_minus_r", [1e-4, 1e-2])
def test_oa_norm_near_tie_scan_just_above_p_equals_k(k, gap, one_minus_r, capsys):
    code, out, err = run(["oa-norm", "--k", str(k), "--p", repr(k + gap),
                          f"--coeffs=1,{1 - one_minus_r!r}"], capsys)
    assert code == 0, err


NEAR_TIE_AT_THE_END = ",".join(["0.9999"] * 24 + ["1"])


@pytest.mark.parametrize("argv", [
    ["--k", "2", "--p", "2", "--coeffs=0.9999,1", "--restarts", "2"],
    ["--k", "2", "--p", "2", f"--coeffs={NEAR_TIE_AT_THE_END}"],
    ["--k", "2", "--p", "1.99", f"--coeffs={NEAR_TIE_AT_THE_END}"],
    ["--k", "3", "--p", "3", f"--coeffs={NEAR_TIE_AT_THE_END}"],
])
def test_oa_norm_at_p_at_most_k_starts_from_every_basis_vector(argv, capsys):
    # the norm max|c_i| is reached only at the last basis vector, which the
    # ascent from the other starts does not find
    code, out, err = run(["oa-norm", *argv], capsys)
    assert code == 0, err


def test_oa_norm_past_the_ascent_budget_exits_3(capsys):
    # the second-order reach sqrt(8e-9 * 1e-3 / 10^18) lies below the floor
    code, out, err = run(["oa-norm", "--k", "1000000", "--p", repr(10 ** 6 + 1e-3),
                          "--coeffs=1,0.5"], capsys)
    assert code == 3
    assert out == "" and "roundoff floor" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oa_norm_holds_across_the_large_degree_regimes():
    """oa-norm on a seeded grid, k from 10^2 to 10^6 and p - k in {0.5, 1,
    k/2, 2k}, real and complex coefficients, n up to 30: each run passes, or
    exits 3 on the step budget, where r = (k-1)/(p-1) lies within about 1e-4
    of 1.  None fails a check, and none exits on the roundoff floor."""
    rng = np.random.default_rng(27)
    codes = []
    for k in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        for gap in (0.5, 1.0, k / 2, 2.0 * k):
            for real in (True, False):
                n = int(rng.integers(2, 31))
                c = rng.standard_normal(n) + (0 if real else 1j * rng.standard_normal(n))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["oa-norm", "--k", str(k), "--p", repr(k + gap),
                                 "--coeffs=" + ",".join(format_scalar(z) for z in c)])
                case = f"k={k} p-k={gap} n={n} real={real}: {err.getvalue()}"
                if code == 3:
                    assert err.getvalue().startswith(
                        "error: certified norm ascent step budget exceeded: "), case
                else:
                    assert code == 0, case
                codes.append(code)
    assert codes.count(0) >= len(codes) // 2


@pytest.mark.parametrize("argv, patch, message", [
    (["pi-norm", "--k", "2", "--p", "4", "--coeffs=" + ",".join(["1"] * 25)], None,
     "piece budget exceeded: 33554432 pieces asked for, cap is 1000000"),
    (["sweep", "--k", "6", "--n", "7", "--trials", "1"], None,
     "dense expansion entry budget exceeded: 117649 entries asked for, cap is 100000"),
    (["additivity-test", "--k", "2", "--p", "4", "--n", "2000", "--trials", "1"], None,
     "dense form entry budget exceeded: 4000000 entries asked for, cap is 1000000"),
    (["sweep", "--trials", "20001"], None,
     "case budget exceeded: 240012 cases asked for, cap is 20000"),
    # from the uniform start alone, 1 + ceil(log((reach - 64u) / delta_1) / log r)
    # with delta_1 = log 2 / (p-1), r = (k-1)/(p-1) and the second-order reach
    # sqrt(8 L (p-k) / (k (k-1)^2)), L = -log(1 - 1e-9)
    (["oa-norm", "--k", "4", "--p", "4.0002", "--coeffs", "1,0.5", "--restarts", "3"], None,
     "certified norm ascent step budget exceeded: 208615 steps asked for, cap is 200000"),
    (["zalduendo-check", "--k", "3", "--n", "3", "--p", "4.187", "--trials", "1",
      "--seed", "52202"], ("oadiag.oapoly.MAX_ENCLOSURE_BOXES", 50),
     "sup-norm enclosure box budget exceeded: 180 boxes asked for, cap is 50"),
    # numpy indexes at most 63 axes at once, and holds at most 64
    (["sweep", "--k", "64", "--n", "1", "--trials", "1"], None,
     "dense tensor degree budget exceeded: 64 axes asked for, cap is 63"),
    (["additivity-test", "--k", "65", "--p", "80", "--n", "1", "--trials", "1"], None,
     "dense tensor degree budget exceeded: 65 axes asked for, cap is 63"),
    # caps patched down, so no test allocates a large start array
    (["zalduendo-check", "--k", "3", "--p", "4", "--n", "3", "--trials", "1",
      "--restarts", "13"], ("oadiag.oapoly.MAX_START_ENTRIES", 116),
     "ascent start budget exceeded: 117 entries asked for, cap is 116"),
    (["oa-norm", "--k", "3", "--p", "5", "--coeffs=1,2", "--restarts", "14"],
     ("oadiag.oapoly.MAX_START_ENTRIES", 21),
     "ascent start budget exceeded: 22 entries asked for, cap is 21"),
    # amounts past 30 digits are named by their power of ten; Python refuses
    # str() on an int of more than 4300 digits
    (["verify-rademacher", "--k", "60000", "--depth", "2"], None,
     "case budget exceeded: about 10^18062 cases asked for, cap is 20000"),
    (["pi-norm", "--k", "1000000", "--p", "3000000", "--coeffs=" + ",".join(["1"] * 800)], None,
     "piece budget exceeded: about 10^4800 pieces asked for, cap is 1000000"),
    (["verify-rademacher", "--k", "5000", "--depth", "7"], None,
     "case budget exceeded: about 10^4225 cases asked for, cap is 20000"),
], ids=["pieces", "expansion_entries", "form_entries", "cases", "ascent_steps",
        "enclosure_boxes", "expansion_degree", "form_degree", "ascent_starts",
        "norm_starts", "huge_cases", "huge_pieces", "many_digit_cases"])
def test_every_budget_exit_names_the_budget_the_amount_and_the_cap(argv, patch, message,
                                                                    monkeypatch, capsys):
    if patch:
        monkeypatch.setattr(*patch)
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n" and len(err) < 200


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code", [
    (["sweep", "--k", "1"], 2),
    *[(["oa-norm", "--k", k, "--p", p, "--coeffs", "1,2"], 0)
      for k in ("2", "3") for p in ("300", "1e4", "1e6")],
    # the dual coefficients' power p/k - 1 would take a modulus rounded to
    # 1 + 2u past the float range
    (["sweep", "--k", "3", "--n", "2", "--p", "1e19", "--trials", "2"], 0),
    # the upper bound's table of p-th powers of slot moduli, one of which
    # may round to 1 + 2u, went to 0 or past the float range
    (["pi-norm", "--k", "2", "--p", "1e20", "--coeffs=1+2i,0.5-1i,3i"], 0),
    (["pi-norm", "--k", "3", "--p", "1e20", "--coeffs=1+2i,0.5-1i,3i"], 0),
    (["sweep", "--k", "2", "--n", "4", "--p", "1e19", "--trials", "2"], 0),
    # a subnormal max|a|, whose reciprocal overflows
    (["pi-norm", "--k", "2", "--p", "4", "--coeffs=3e-310,1e-311"], 0),
    (["pi-norm", "--k", "3", "--p", "5", "--coeffs=3e-310+1e-310i,-2e-311,4e-309i"], 0),
    # the lower bound's scaled top modulus rounds to 1 - u, whose power
    # p/k - 1 underflowed to 0
    *[(["pi-norm", "--k", "2", "--p", p, "--coeffs=1e-300,3e-301i"], 0)
      for p in ("1.4e19", "1e20", "1e300")],
    # an infinite p passed the p >= 1 check, and LpParams raised
    *[([command, "--k", "2", "--p", p, *rest], 2)
      for p in ("inf", "1e400")
      for command, *rest in (["pi-norm", "--coeffs=1"], ["oa-norm", "--coeffs=1"],
                             ["sweep", "--n", "2", "--trials", "1"])],
    # numpy's seeding raised on a negative seed
    (["sweep", "--trials", "1", "--n", "2", "--seed", "-5"], 2),
    (["oa-norm", "--k", "2", "--p", "4", "--coeffs=1,2", "--seed", "-1"], 2),
    # an infinite tolerance passed validation, and the config echo raised
    *[(["sweep", "--k", "2", "--n", "2", "--trials", "1", "--tol", "sandwich=" + tol], 2)
      for tol in ("inf", "1e400")],
    # the largest degree whose dense arrays numpy can index
    (["sweep", "--k", "63", "--n", "1", "--trials", "1"], 0),
    (["additivity-test", "--k", "63", "--p", "80", "--n", "1", "--trials", "1"], 0),
    # six distinct primes, each one pass of the root-of-unity reduction
    (["verify-rademacher", "--k", "30030", "--depth", "1"], 0),
    # --out names a directory, or a path under a regular file
    (["oa-norm", "--k", "2", "--p", "4", "--coeffs=1,2", "--out", "{tmp}"], 2),
    (["oa-norm", "--k", "2", "--p", "4", "--coeffs=1,2", "--out", "{tmp}/file/x.json"], 2),
    # at k = 1 the first step raises w to the power 1/(p-1), about 174, so
    # the ratios new / T spread past the float range: an infinite distance
    (["oa-norm", "--k", "1", "--p", "1.0057357804240359", "--coeffs=-0.4657974410208914,"
      "-0.2295294234240296,-0.5508898683653337,0.37056283104006493,-0.8405743903054123,"
      "0.9444625384149606,0.015331917608330376,-0.725449409051104", "--restarts", "15",
      "--seed", "7"], 0),
    # a subnormal max|c|: each c_i x_i^k of the witness rounds to 0, and the
    # value comes from the ratios |c_i| / max|c|
    (["oa-norm", "--k", "2", "--p", "4", "--coeffs=" + ",".join(["5e-324"] * 10)], 0),
    # a finite norm near the float maximum, whose witness value overflowed
    # when max|c| multiplied its power sum before the division, and a
    # subnormal max|c|, where that product lost bits
    *[(["oa-norm", "--k", k, "--p", p, f"--coeffs={c},{c}"], 0)
      for k, p, c in (("2", "4", "1e308"), ("3", "5", "1e308"), ("4", "4.004637015270084", "1e308"),
                      ("4", "4.004637015270084", "1.7e308"))],
    (["oa-norm", "--k", "40", "--p", "121", "--coeffs=1e-320,7.307e-321"], 0),
    # a modulus past the float range, which has no dual polynomial
    (["pi-norm", "--k", "2", "--p", "4", "--coeffs=1.7e308+1.7e308i"], 2),
    # an ascent row 10 ulps above its exact bound 1, times max|c|
    (["oa-norm", "--k", "40", "--p", "40", "--coeffs=1.7976931348623157e308,"
      "6.582873183140682e307,1.7976931348623157e308,1.7976931348623157e308"], 2),
    # subnormal complex coefficients, whose moduli and phases were rounded
    # to the subnormal grid before the sandwich was judged
    (["pi-norm", "--k", "4", "--p", "1", "--coeffs=3.97e-321+3.656e-321i"], 0),
    (["pi-norm", "--k", "3", "--p", "3", "--coeffs=1.482e-323+1.482e-323i,9.881e-323+8.893e-323i"],
     0),
    (["pi-norm", "--k", "3", "--p", "4.5", "--coeffs=2.124e-322+1.927e-322i,1.186e-322+1.087e-322i,"
      "7.905e-323+6.917e-323i,3.953e-323+3.458e-323i"], 0),
])
def test_edge_inputs_keep_the_exit_code_contract(argv, code, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    exit_code, out, err = run(argv, capsys)
    assert exit_code == code, err
    assert (out == "") == (code == 2)
    if "--out" in argv:
        assert err.startswith(f"error: cannot write output file {argv[-1]}: ")
        assert err.count("\n") == 1
    if code == 2 and "e308" in argv[-1]:
        side = "projective" if argv[0] == "pi-norm" else "polynomial"
        assert err == f"error: the {side} norm of these coefficients exceeds the float range\n"


def near_float_max_argvs(count, seed=0):
    """Seeded pi-norm, oa-norm and additivity-test argument lists whose
    coefficients are near the float maximum, in both regimes and near p = k."""
    rng = np.random.default_rng(seed)
    argvs = []
    for i in range(count):
        k = int(rng.choice([2, 3, 4, 5, 40]))
        p = float(k * rng.choice([0.5, 1.0, 1.5, 2.0, 1.0011596]))
        top = rng.choice([1e308, 1.7e308, 1.7976931348623157e308])
        mags = top * rng.choice([1.0, 0.37], size=int(rng.integers(1, 5)))
        coeffs = [repr(float(m)) for m in mags * rng.choice([-1.0, 1.0], size=len(mags))]
        if rng.random() < 0.3:
            coeffs = [f"{c}+{c.lstrip('-')}i" for c in coeffs]
        command = ("pi-norm", "oa-norm", "additivity-test")[i % 3]
        argvs.append([command, "--k", str(k), "--p", repr(p), "--coeffs=" + ",".join(coeffs)])
    return argvs


def outside_the_contract(argvs, capsys):
    """The runs that neither exit 0, nor 2 for a norm past the float range,
    nor 3 out of budget; a run that raises fails the calling test."""
    runs = [(argv, *run(argv, capsys)) for argv in argvs]
    return [(argv, code, err) for argv, code, _, err in runs if code not in (0, 2, 3)]


def test_near_float_max_inputs_end_in_a_contract_exit_code(capsys):
    assert not outside_the_contract(near_float_max_argvs(150), capsys)


def subnormal_argvs(count, seed=0):
    """Seeded pi-norm, oa-norm and additivity-test argument lists whose
    coefficients lie between 5e-324 and 1e-300, real or complex, in both
    regimes and near p = k."""
    rng = np.random.default_rng(seed)
    argvs = []
    for i in range(count):
        k = int(rng.choice([2, 3, 4, 5, 40]))
        p = max(1.0, float(k * rng.choice([0.25, 0.5, 1.0, 1.5, 2.0, 1.0011596])))
        mags = 10.0 ** rng.uniform(-323.5, -300.0, size=int(rng.integers(1, 5)))
        re, im = mags * rng.uniform(-1.0, 1.0, size=(2, len(mags)))
        coeffs = [repr(float(x)) for x in re]
        if rng.random() < 0.6:
            coeffs = [f"{c}{float(y):+}i" for c, y in zip(coeffs, im)]
        command = ("pi-norm", "oa-norm", "additivity-test")[i % 3]
        argvs.append([command, "--k", str(k), "--p", repr(p), "--coeffs=" + ",".join(coeffs)])
    return argvs


def test_subnormal_inputs_end_in_a_contract_exit_code(capsys):
    # float error alone may fail no check
    assert not outside_the_contract(subnormal_argvs(400), capsys)


class FullStream(io.StringIO):
    """A text stream on a full device: `write` or `flush`, as named, raises ENOSPC."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_failing_stdout_is_a_config_error(failing, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FullStream(failing))
    code = main(["pi-norm", "--k", "2", "--p", "4", "--coeffs", "1,1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: cannot write to standard output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_on_a_full_device_exits_2_without_a_traceback(unbuffered):
    # buffered, the failed flush keeps its bytes and the flush at exit retries them
    src = str(Path(oadiag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "oadiag", "pi-norm", "--k", "2", "--p", "4",
                               "--coeffs", "1,1"], env=env, stdout=full, stderr=subprocess.PIPE)
    assert done.returncode == 2
    assert done.stderr.decode().splitlines() == [
        "error: cannot write to standard output: [Errno 28] No space left on device"]


def strict_json(text):
    """The document parsed as standard JSON: NaN and Infinity are rejected."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("coeffs", ["1e300,2e300", "1e-300,2e-300", "-1e300,2e300i", "1e-320,3"])
def test_pi_norm_is_scale_safe_at_the_float_range(coeffs, capsys):
    code, out, err = run(["pi-norm", "--k", "2", "--p", "4", "--coeffs=" + coeffs], capsys)
    assert code == 0, err
    values = strict_json(out)["records"][0]["values"]
    assert 0.0 < values["lower_bound"] <= values["closed_form"] * (1 + 1e-15)
    assert values["closed_form"] <= values["upper_bound"] * (1 + 1e-15)


def test_pi_norm_sandwich_holds_at_many_slots(capsys):
    # 2000 slots: step values whose moduli drift from 1 with the digit would
    # put the upper bound about k^2 roundoffs off the closed form
    code, out, err = run(["pi-norm", "--k", "2000", "--p", "2001", "--coeffs=3"], capsys)
    assert code == 0, err
    assert strict_json(out)["summary"]["passed"] is True


@pytest.mark.parametrize("argv", [["pi-norm", "--k", "2", "--p", "2", "--coeffs=1e308,1e308"],
                                  ["pi-norm", "--k", "2", "--p", "4", "--coeffs=1.7e308,1.7e308"],
                                  ["oa-norm", "--k", "2", "--p", "3", "--coeffs=1.7e308,1.7e308"]],
                         ids=["l1", "lp_over_k", "oa_norm"])
def test_norm_beyond_the_float_range_is_a_config_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and err.startswith("error: ") and "float range" in err


@st.composite
def pi_norm_cases(draw):
    """k in 2..4, p in both regimes, up to five coefficients of magnitude 1e-3
    to 1e3 or 0, real or complex, and a scale 10^e with e in [-300, 300]."""
    k = draw(st.sampled_from([2, 3, 4]))
    p = k + draw(st.one_of(st.floats(1e-3, 4.0), st.floats(1.0 - k, 0.0)))
    magnitudes = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
    parts = draw(st.lists(st.tuples(magnitudes, magnitudes), min_size=1, max_size=5))
    real = draw(st.booleans())
    mantissas = [complex(re, 0.0 if real else im) for re, im in parts]
    return k, p, mantissas, 10.0 ** draw(st.floats(-300.0, 300.0))


@settings(max_examples=100, deadline=None)
@given(pi_norm_cases())
def test_pi_norm_is_scale_safe(case):
    k, p, mantissas, scale = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["pi-norm", "--k", str(k), "--p", repr(p),
                     "--coeffs=" + ",".join(format_scalar(scale * m) for m in mantissas)])
    assert code == 0, err.getvalue()
    assert strict_json(out.getvalue())["summary"]["passed"] is True
