"""Tests of the benchmark's reference code and checker.

    python -m pytest -q benchmark/test_benchmark.py
"""

import copy
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oadiag.cli  # noqa: E402
import reference  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from worker import Tally, run_op  # noqa: E402


def test_reference_norms_hand_values():
    assert verify.lq([3, -4], 2.0) == 5.0
    assert verify.lq([3, -4], math.inf) == 4.0
    # k < p: l_{p/k} and l_{p/(p-k)}, both l_2 at p = 4, k = 2
    assert verify.pi_norm([3, -4], 4.0, 2) == 5.0
    assert verify.oa_norm([3, -4], 4.0, 2) == 5.0
    # p <= k: l_1 for the tensor, l_inf for the polynomial
    assert verify.pi_norm([3, -4j, 1], 2.0, 3) == 8.0
    assert verify.oa_norm([3, -4j, 1], 2.0, 3) == 4.0
    assert verify.parse_coeff("1.5-2.0i") == 1.5 - 2.0j


def test_symmetrized_diagonal_equals_raw_diagonal():
    raw = np.random.default_rng(3).standard_normal((4, 4, 4))
    sym = verify.symmetrize(raw)
    idx = np.arange(4)
    np.testing.assert_allclose(sym[idx, idx, idx], raw[idx, idx, idx], rtol=1e-15)
    np.testing.assert_allclose(sym, np.transpose(sym, (1, 2, 0)), rtol=0, atol=1e-14)


def _first_op(workload):
    return workloads.make_rounds(workload, seed=0, count=1)[0][0]


def _run(op):
    seconds, texts, error = run_op(oadiag.cli.main, op)
    assert error is None, error
    return [json.loads(t) for t in texts]


@pytest.fixture(scope="module")
def outputs():
    return {w: (_first_op(w), _run(_first_op(w))) for w in verify.CHECKS}


def test_inputs_repeat_for_a_seed():
    for w in verify.CHECKS:
        assert workloads.make_rounds(w, 5, 3) == workloads.make_rounds(w, 5, 3)
        assert workloads.make_rounds(w, 5, 3) != workloads.make_rounds(w, 6, 3)


def test_checker_accepts_program_output(outputs):
    for w, (op, docs) in outputs.items():
        assert verify.CHECKS[w](op, docs) == [], w


def _corrupt(outputs, workload, edit):
    op, docs = outputs[workload]
    docs = copy.deepcopy(docs)
    edit(docs)
    return verify.CHECKS[workload](op, docs)


def test_checker_flags_upper_bound_below_closed_form(outputs):
    def sweep(docs):
        v = docs[0]["records"][1]["values"]
        v["pi_upper_bound"] = v["pi_closed_form"] * (1 - 1e-6)

    def duality(docs):
        v = docs[0]["records"][0]["values"]
        v["upper_bound"] = v["closed_form"] * 0.5

    assert any("upper bound" in p for p in _corrupt(outputs, "sweep", sweep))
    assert any("upper bound" in p for p in _corrupt(outputs, "duality", duality))


def test_checker_flags_ascent_above_closed_form(outputs):
    def sweep(docs):
        v = docs[0]["records"][0]["values"]
        v["oa_numeric"] = v["oa_closed_form"] * (1 + 1e-9)

    def duality(docs):
        v = docs[1]["records"][0]["values"]
        v["numeric_estimate"] = v["closed_form"] * (1 + 1e-9)

    assert any("above closed" in p for p in _corrupt(outputs, "sweep", sweep))
    assert any("above closed" in p for p in _corrupt(outputs, "duality", duality))


def test_checker_flags_diagonal_norm_above_estimate(outputs):
    def zalduendo(docs):
        v = docs[0]["records"][0]["values"]
        v["diagonal_norm"] = max(v["ascent_estimate"], v["grid_estimate"]) + 1e-3

    assert any("above estimate" in p for p in _corrupt(outputs, "zalduendo", zalduendo))


def test_checker_flags_estimate_below_sampled_value(outputs):
    def zalduendo(docs):
        v = docs[0]["records"][0]["values"]
        v["ascent_estimate"] = v["grid_estimate"] = 1e-3

    assert any("below |phi" in p for p in _corrupt(outputs, "zalduendo", zalduendo))


def test_checker_flags_record_that_did_not_pass(outputs):
    def sweep(docs):
        docs[0]["records"][0]["passed"] = False

    assert any("passed is not true" in p for p in _corrupt(outputs, "sweep", sweep))


@pytest.mark.parametrize("main, fragment", [
    (lambda argv: (_ for _ in ()).throw(ValueError("boom")), "ValueError: boom"),
    (lambda argv: oadiag.cli.main(["pi-norm", "--k"]), "SystemExit(2)"),
    (lambda argv: 1, "exit code 1"),
])
def test_failed_ops_are_counted_not_raised(main, fragment):
    tally = Tally()
    tally.run_round(verify.check_sweep, SimpleNamespace(main=main), [_first_op("sweep")] * 2)
    assert (tally.failed, tally.wrong, tally.records, len(tally.op_ms)) == (2, 0, 0, 2)
    assert len(tally.ref_ms) == 2 and min(tally.ref_ms) > 0
    assert fragment in tally.problems[0]["problems"][0]


def test_wrong_output_is_counted_as_failed_and_wrong(outputs):
    op, docs = outputs["duality"]
    texts = [json.dumps(d) for d in docs]
    texts[0] = texts[0].replace('"passed": true', '"passed": false', 1)
    answers = iter(texts)

    def main(argv):
        print(next(answers), end="")
        return 0

    tally = Tally()
    tally.run_round(verify.check_duality, SimpleNamespace(main=main), [op])
    assert (tally.failed, tally.wrong, tally.records) == (1, 1, 0)


def test_reference_kernel_scales_times_to_its_nominal_speed():
    assert reference.kernel() == sum(i * i for i in range(reference.ITERATIONS))
    # Work measured while the kernel ran twice as slow as nominal counts half.
    assert reference.scale(0.5, 2 * reference.REF_MS) == 0.25
    assert reference.scale(0.5, reference.REF_MS) == 0.5
    assert reference.median_ms(3) > 0
