import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oadiag
from oadiag.cli import build_parser, main
from oadiag.experiments import parse_scalar, format_scalar, ConfigError


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


def main_in_fresh_process(argv, runs=1, **env):
    """Exit code and stdout of `oadiag argv` in a new interpreter, with the
    environment variables env added; runs > 1 calls main that many times in
    the one interpreter and returns the largest exit code."""
    src = str(Path(oadiag.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    program = ["-m", "oadiag.cli"] if runs == 1 else [
        "-c", "import sys; from oadiag.cli import main; "
              f"sys.exit(max(main(sys.argv[1:]) for _ in range({runs})))"]
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
    assert "pass_sandwich_violation" in header


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
    assert all(r["passes"]["checks_agree"] for r in doc["records"])


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
    for record in plain:
        del record["wall_time_ms"]
    assert timed == plain


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
    assert record["passes"]["witness_vs_closed"]
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


def test_oa_norm_past_the_ascent_budget_exits_3(capsys):
    code, out, err = run(["oa-norm", "--k", "4", "--p", repr(4 + 1e-12), "--coeffs=1,0.5"], capsys)
    assert code == 3
    assert out == "" and "roundoff floor" in err


@pytest.mark.parametrize("argv, patch, message", [
    (["pi-norm", "--k", "2", "--p", "4", "--coeffs=" + ",".join(["1"] * 25)], None,
     "piece budget exceeded: 33554432 pieces asked for, cap is 1000000"),
    (["sweep", "--k", "6", "--n", "7", "--trials", "1"], None,
     "dense expansion entry budget exceeded: 117649 entries asked for, cap is 100000"),
    (["additivity-test", "--k", "2", "--p", "4", "--n", "2000", "--trials", "1"], None,
     "dense form entry budget exceeded: 4000000 entries asked for, cap is 1000000"),
    (["sweep", "--trials", "20001"], None,
     "case budget exceeded: 240012 cases asked for, cap is 20000"),
    (["oa-norm", "--k", "4", "--p", "4.0002", "--coeffs", "1,0.5"], None,
     "certified norm ascent step budget exceeded: 462262 steps asked for, cap is 200000"),
    (["zalduendo-check", "--k", "3", "--n", "3", "--p", "4.187", "--trials", "1",
      "--seed", "52202"], ("oadiag.oapoly.MAX_ENCLOSURE_BOXES", 50),
     "sup-norm enclosure box budget exceeded: 126 boxes asked for, cap is 50"),
], ids=["pieces", "expansion_entries", "form_entries", "cases", "ascent_steps",
        "enclosure_boxes"])
def test_every_budget_exit_names_the_budget_the_amount_and_the_cap(argv, patch, message,
                                                                    monkeypatch, capsys):
    if patch:
        monkeypatch.setattr(*patch)
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code", [
    (["sweep", "--k", "1"], 2),
    *[(["oa-norm", "--k", k, "--p", p, "--coeffs", "1,2"], 0)
      for k in ("2", "3") for p in ("300", "1e4", "1e6")],
    # the dual coefficients' power p/k - 1 would take a modulus rounded to
    # 1 + 2u past the float range
    (["sweep", "--k", "3", "--n", "2", "--p", "1e19", "--trials", "2"], 0),
])
def test_edge_inputs_keep_the_exit_code_contract(argv, code, capsys):
    exit_code, out, err = run(argv, capsys)
    assert exit_code == code, err
    assert (out == "") == (code == 2)


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
