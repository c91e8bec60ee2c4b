import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from oadiag.cli import main
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


def test_additivity_command(tmp_path):
    out = tmp_path / "a.json"
    assert main(["additivity-test", "--k", "3", "--p", "4", "--n", "4",
                 "--trials", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["total"] == 4
    assert all(r["passes"]["checks_agree"] for r in doc["records"])


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
    assert out == "" and "4 cases exceed the cap of 3" in err


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
    if code != 0:
        # The ascent converges slowly when p is just above k and the two
        # largest |c_i| nearly tie; that failure must not depend on the scale.
        unit_code, unit = oa_norm_record(k, p, mantissas)
        assert unit_code == 1
        assert record["deviations"]["numeric_vs_closed"] == \
            pytest.approx(unit["deviations"]["numeric_vs_closed"], rel=1e-6)
