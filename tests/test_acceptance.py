"""Acceptance suite: every check the library promises, at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s`) and
then asserts, so a failing criterion is both visible and red.
"""

import itertools
import json
import time

import numpy as np

from oadiag.cli import main
from oadiag.diagonal import (
    DiagonalTensor,
    averaging_decomposition,
    dense_expansion,
    pi_lower_bound,
    pi_norm_closed_form,
    pi_upper_bound,
)
from oadiag.numerics import LpParams, lq_norm
from oadiag.oapoly import (
    MultilinearForm,
    OrthAddPolynomial,
    diagonal_of_multilinear,
    evaluate,
    extend_diagonal_functional,
    is_orthogonally_additive,
    multilinear_norm_ascent,
    multilinear_norm_grid,
    norm_closed_form,
    norm_numeric,
    norm_witness,
)
from oadiag.rademacher import integrate_product, integrate_product_bruteforce


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_product_integral_exactness():
    start = time.perf_counter()
    checked = 0
    ok = True
    for k in (2, 3, 4, 5):
        for levels in itertools.product(range(1, 5), repeat=k):
            rule = integrate_product(levels, k)
            brute = integrate_product_bruteforce(levels, k)
            expected = 1 if len(set(levels)) == 1 else 0
            if not (rule == brute == expected):
                ok = False
            checked += 1
    elapsed = time.perf_counter() - start
    report("criterion 1 (product-integral exactness)", ok,
           f"{checked} level tuples, exact integer agreement, {elapsed:.1f}s")


def test_criterion_2_averaging_reconstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_off = 0.0
    worst_diag = 0.0
    for case in range(200):
        n = int(rng.integers(1, 6))
        k = int(rng.choice([2, 3]))
        p = float(rng.choice([k + 0.5, k + 1.0, 2.0 * k, 1.0, float(k)]))
        a = rng.standard_normal(n)
        if case % 2 == 1:
            a = a + 1j * rng.standard_normal(n)
        u = DiagonalTensor(a, LpParams(p, k))
        tensor = dense_expansion(averaging_decomposition(u))
        idx = np.arange(n)
        diag = tensor[tuple([idx] * k)].copy()
        tensor[tuple([idx] * k)] = 0.0
        scale = float(np.sum(np.abs(a)))
        worst_off = max(worst_off, float(np.max(np.abs(tensor))) / scale)
        worst_diag = max(worst_diag,
                         float(np.max(np.abs(diag - u.coeffs)))
                         / float(np.max(np.abs(a))))
    elapsed = time.perf_counter() - start
    ok = worst_off <= 1e-12 and worst_diag <= 1e-12
    report("criterion 2 (rank-one reconstruction)", ok,
           f"200 cases, worst off-diagonal {worst_off:.2e}, "
           f"worst diagonal {worst_diag:.2e}, {elapsed:.1f}s")


def test_criterion_3_projective_norm_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    grid = [(k, p) for k in (2, 3, 4) for p in (k + 0.5, k + 1.0, 2.0 * k)]
    worst = 0.0
    sandwich_ok = True
    for case in range(500):
        k, p = grid[case % len(grid)]
        n = int(rng.integers(1, 9))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = DiagonalTensor(a, LpParams(p, k))
        lo, cf, up = pi_lower_bound(u), pi_norm_closed_form(u), pi_upper_bound(u)
        worst = max(worst, abs(lo - cf) / cf, abs(up - cf) / cf)
        if lo > cf * (1 + 1e-10) or cf > up * (1 + 1e-10):
            sandwich_ok = False

    l1_exact = True
    l1_upper_worst = 0.0
    for case in range(150):
        k = int(rng.choice([2, 3, 4]))
        p = float(rng.choice([1.0, (1.0 + k) / 2.0, float(k)]))
        n = int(rng.integers(1, 9))
        a = rng.standard_normal(n)
        u = DiagonalTensor(a, LpParams(p, k))
        cf = pi_norm_closed_form(u)
        if pi_lower_bound(u) != cf:
            l1_exact = False
        l1_upper_worst = max(l1_upper_worst, abs(pi_upper_bound(u) - cf) / cf)
    elapsed = time.perf_counter() - start
    ok = sandwich_ok and worst <= 1e-10 and l1_exact and l1_upper_worst <= 1e-12
    report("criterion 3 (projective-norm sandwich)", ok,
           f"500 cases k<p (worst rel dev {worst:.2e}), 150 cases p<=k "
           f"(lower exact: {l1_exact}, upper dev {l1_upper_worst:.2e}), {elapsed:.1f}s")


def test_criterion_4_polynomial_norm_isometry():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    grid = [(k, p) for k in (2, 3, 4) for p in (k + 0.5, k + 1.0, 2.0 * k)]
    worst_numeric = 0.0
    worst_witness = 0.0
    for case in range(500):
        k, p = grid[case % len(grid)]
        n = int(rng.integers(1, 9))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        poly = OrthAddPolynomial(c, LpParams(p, k))
        closed = norm_closed_form(poly)
        numeric = norm_numeric(poly, restarts=20, iters=500, seed=case)
        _, attained = norm_witness(poly)
        worst_numeric = max(worst_numeric, abs(numeric - closed) / closed)
        worst_witness = max(worst_witness, abs(attained - closed) / closed)

    sup_excess = 0.0
    for case in range(12):
        k = int(rng.choice([2, 3, 4]))
        p = float(rng.choice([1.0, (1.0 + k) / 2.0, float(k)]))
        n = int(rng.integers(2, 9))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        top = float(np.max(np.abs(c)))
        xs = rng.standard_normal((10 ** 4, n)) + 1j * rng.standard_normal((10 ** 4, n))
        xs /= np.sum(np.abs(xs) ** p, axis=1, keepdims=True) ** (1.0 / p)
        values = np.abs(np.sum(c * xs ** k, axis=1))
        sup_excess = max(sup_excess, float(np.max(values)) - top)
    elapsed = time.perf_counter() - start
    ok = worst_numeric <= 1e-6 and worst_witness <= 1e-12 and sup_excess <= 1e-12
    report("criterion 4 (polynomial-norm isometry)", ok,
           f"500 cases (ascent dev {worst_numeric:.2e}, witness dev "
           f"{worst_witness:.2e}), sup-regime excess {sup_excess:.2e} over "
           f"12x10^4 unit vectors, {elapsed:.1f}s")


def test_criterion_5_orthogonal_additivity():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst_rel = 0.0
    agreement = True
    for case in range(1000):
        n = int(rng.integers(2, 7))
        k = int(rng.choice([2, 3, 4]))
        p = float(rng.choice([k + 1.0, 2.0 * k, 1.0, float(k)]))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        poly = OrthAddPolynomial(c, LpParams(p, k))
        cut = int(rng.integers(1, n))
        perm = rng.permutation(n)
        x = np.zeros(n, dtype=complex)
        y = np.zeros(n, dtype=complex)
        x[perm[:cut]] = rng.standard_normal(cut) + 1j * rng.standard_normal(cut)
        y[perm[cut:]] = rng.standard_normal(n - cut) + 1j * rng.standard_normal(n - cut)
        px, py, pxy = evaluate(poly, x), evaluate(poly, y), evaluate(poly, x + y)
        defect = abs(pxy - px - py)
        worst_rel = max(worst_rel, defect / (abs(px) + abs(py) + 1.0))

        if case % 10 == 0:
            form = extend_diagonal_functional(c, poly.params)
            if case % 20 == 10:
                # corrupt one symmetric off-diagonal pair; both checks must flip
                raw = np.array(form.coeffs)
                raw[tuple([0] * (k - 1) + [1])] = 1.0
                form = MultilinearForm(raw, poly.params).symmetrize()
                expected = False
            else:
                expected = True
            rep = is_orthogonally_additive(form, seed=case)
            if not (rep.checks_agree and rep.structural_ok == expected):
                agreement = False
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-10 and agreement
    report("criterion 5 (orthogonal additivity)", ok,
           f"1000 disjoint pairs, worst defect ratio {worst_rel:.2e}, "
           f"structural/behavioral agree: {agreement}, {elapsed:.1f}s")


def test_criterion_6_diagonal_extension_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    round_trip_exact = True
    worst_norm_dev = 0.0
    for case in range(200):
        n = int(rng.integers(1, 7))
        k = int(rng.choice([2, 3, 4]))
        p = float(rng.choice([k + 0.5, 2.0 * k, 1.0, float(k)]))
        c = rng.standard_normal(n)
        if case % 2 == 1:
            c = c + 1j * rng.standard_normal(n)
        params = LpParams(p, k)
        form = extend_diagonal_functional(c, params)
        d, diag_norm = diagonal_of_multilinear(form)
        if not np.array_equal(d, np.asarray(c, dtype=complex)):
            round_trip_exact = False
        dual_norm = lq_norm(c, params.dual_exponent)
        if dual_norm > 0:
            # the induced polynomial, evaluated through the dense form at the
            # norm witness, must attain the dual sequence norm
            witness, _ = norm_witness(OrthAddPolynomial(c, params))
            attained = abs(form.apply([witness] * k))
            worst_norm_dev = max(worst_norm_dev,
                                 abs(attained - dual_norm) / dual_norm)
            worst_norm_dev = max(worst_norm_dev,
                                 abs(diag_norm - dual_norm) / dual_norm)
    elapsed = time.perf_counter() - start
    ok = round_trip_exact and worst_norm_dev <= 1e-10
    report("criterion 6 (diagonal extension round trip)", ok,
           f"200 sequences, round trip exact: {round_trip_exact}, "
           f"worst norm deviation {worst_norm_dev:.2e}, {elapsed:.1f}s")


def test_criterion_7_diagonal_extraction_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    worst_agreement = 0.0
    worst_excess = 0.0
    for case in range(100):
        n = int(rng.choice([2, 3]))
        k = int(rng.choice([2, 3]))
        p = float(rng.choice([k + 0.7, k + 1.0, 2.0 * k]))
        raw = rng.standard_normal((n,) * k)
        form = MultilinearForm(raw.astype(complex), LpParams(p, k)).symmetrize()
        ascent = multilinear_norm_ascent(form, restarts=20, iters=60, seed=case)
        lower, upper = multilinear_norm_grid(form)
        _, diag_norm = diagonal_of_multilinear(form)
        worst_agreement = max(worst_agreement,
                              abs(ascent - upper) / max(1.0, ascent))
        worst_excess = max(worst_excess, diag_norm - max(ascent, lower))
    elapsed = time.perf_counter() - start
    ok = worst_agreement <= 1e-4 and worst_excess <= 1e-6
    report("criterion 7 (diagonal extraction bound)", ok,
           f"100 symmetric forms, ascent against the enclosure's upper bound "
           f"{worst_agreement:.2e}, "
           f"diagonal excess {worst_excess:.2e}, {elapsed:.1f}s")


def test_criterion_8_cli_determinism_and_exit_codes(tmp_path):
    start = time.perf_counter()
    base = ["sweep", "--seed", "42", "--trials", "2"]
    assert main(base + ["--out", str(tmp_path / "one.json")]) == 0
    assert main(base + ["--out", str(tmp_path / "two.json")]) == 0
    identical = (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    codes = (
        main(["pi-norm", "--k", "2", "--p", "4", "--coeffs", "1,1",
              "--out", str(tmp_path / "ok.json")]),
        main(["sweep", "--trials", "1", "--n", "2", "--inject-failure",
              "--out", str(tmp_path / "fail.json")]),
        main(["pi-norm", "--k", "0", "--p", "4", "--coeffs", "1"]),
        main(["pi-norm", "--k", "2", "--p", "4", "--coeffs", ",".join(["1"] * 30)]),
    )
    doc = json.loads((tmp_path / "one.json").read_text())
    records_ok = doc["summary"]["passed"] and doc["summary"]["total"] == 24
    elapsed = time.perf_counter() - start
    ok = identical and codes == (0, 1, 2, 3) and records_ok
    report("criterion 8 (CLI determinism and exit codes)", ok,
           f"byte-identical: {identical}, exit codes {codes} (want (0,1,2,3)), "
           f"{elapsed:.1f}s")
