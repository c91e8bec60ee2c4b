import math
import time

import numpy as np
import pytest

from oadiag.numerics import BudgetError, LpParams, holder_conjugate, lq_norm, phase
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
    _MIRROR_ASYMMETRY,
    _Boxes,
    _CORNERS,
    _ascent,
    _ascent_starts,
    _disjoint_pairs,
    _distinct,
    _tuple_bounds,
)

P42 = LpParams(4.0, 2)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_evaluate_examples():
    assert evaluate(OrthAddPolynomial([1, 0], P42), [0, 5]) == 0
    assert evaluate(OrthAddPolynomial([1, 1], P42), [1, 1]) == 2
    assert evaluate(OrthAddPolynomial([2, -1], LpParams(6.0, 3)), [1, 2]) == -6


def test_evaluate_matches_dense_extension_pairing():
    c = np.array([2.0, -1.0])
    params = LpParams(6.0, 3)
    poly = OrthAddPolynomial(c, params)
    form = extend_diagonal_functional(c, params)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert evaluate(poly, x) == pytest.approx(form.apply([x] * 3), rel=1e-12)


def test_evaluate_validation():
    poly = OrthAddPolynomial([1, 2], P42)
    with pytest.raises(ValueError):
        evaluate(poly, [1.0])
    with pytest.raises(ValueError):
        evaluate(poly, [1.0, float("nan")])


# ---------------------------------------------------------------------------
# Norms and witnesses
# ---------------------------------------------------------------------------

def test_norm_closed_form_examples():
    for p, k in [(4.0, 2), (2.0, 2), (6.0, 3)]:
        assert norm_closed_form(OrthAddPolynomial([1, 0, 0], LpParams(p, k))) == 1.0
    assert norm_closed_form(OrthAddPolynomial([3, 4], P42)) == pytest.approx(5.0, rel=1e-15)
    assert norm_closed_form(OrthAddPolynomial([3, 4], LpParams(2.0, 2))) == 4.0


def test_norm_witness_examples():
    x, value = norm_witness(OrthAddPolynomial([1, 0], P42))
    assert np.allclose(x, [1, 0])
    assert value == pytest.approx(1.0, rel=1e-14)

    x, value = norm_witness(OrthAddPolynomial([3, 4], P42))
    expected = np.array([math.sqrt(3.0), math.sqrt(4.0)])
    expected /= lq_norm(expected, 4.0)
    assert np.allclose(x, expected, atol=1e-14)
    assert value == pytest.approx(5.0, rel=1e-12)

    x, value = norm_witness(OrthAddPolynomial([1, 1], LpParams(2.0, 3)))
    assert np.allclose(x, [1, 0])  # tie broken to the lowest index
    assert value == 1.0


def test_norm_witness_unit_sphere_and_attainment():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        k = int(rng.choice([1, 2, 3, 4]))
        p = float(rng.choice([k + 0.5, k + 1.0, 2.0 * k, 1.0, float(k)]))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        poly = OrthAddPolynomial(c, LpParams(p, k))
        x, value = norm_witness(poly)
        assert lq_norm(x, p) == pytest.approx(1.0, rel=1e-12)
        assert value == pytest.approx(norm_closed_form(poly), rel=1e-12)


def test_witness_phase_alignment_makes_terms_nonnegative():
    rng = np.random.default_rng(12)
    c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    poly = OrthAddPolynomial(c, LpParams(5.0, 3))
    x, _ = norm_witness(poly)
    terms = poly.coeffs * x ** 3
    assert np.all(terms.real >= -1e-13)
    assert np.all(np.abs(terms.imag) <= 1e-13)


def test_norm_witness_zero_polynomial():
    with pytest.raises(ValueError):
        norm_witness(OrthAddPolynomial([0, 0], P42))


def test_witness_argmax_is_scale_invariant():
    c = np.array([1.0, 3.0, 3.0, 2.0])
    poly = OrthAddPolynomial(c, LpParams(2.0, 3))
    scaled = OrthAddPolynomial(2.0 * c, LpParams(2.0, 3))
    x1, _ = norm_witness(poly)
    x2, _ = norm_witness(scaled)
    assert np.array_equal(x1, x2)
    assert x1[1] == 1.0  # first of the tied maxima


def test_norm_numeric_examples():
    assert norm_numeric(OrthAddPolynomial([1.0], P42)) == pytest.approx(1.0, rel=1e-12)
    assert norm_numeric(OrthAddPolynomial([3, 4], P42)) == pytest.approx(5.0, rel=1e-6)
    got = norm_numeric(OrthAddPolynomial([1, 1, 1], LpParams(6.0, 2)))
    assert got == pytest.approx(3.0 ** (2.0 / 3.0), rel=1e-6)


def test_norm_numeric_matches_closed_form_across_regimes():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        k = int(rng.choice([1, 2, 3, 4]))
        p = float(rng.choice([k + 0.5, 2.0 * k, 1.0, float(k)]))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        poly = OrthAddPolynomial(c, LpParams(p, k))
        assert norm_numeric(poly, seed=7) == \
            pytest.approx(norm_closed_form(poly), rel=1e-6)


def test_norm_numeric_is_deterministic_and_a_lower_bound():
    poly = OrthAddPolynomial(np.array([1.0, -2.0, 0.5]), LpParams(3.5, 2))
    a = norm_numeric(poly, restarts=5, iters=80, seed=123)
    b = norm_numeric(poly, restarts=5, iters=80, seed=123)
    assert a == b
    assert a <= norm_closed_form(poly) * (1 + 1e-12)


def test_norm_numeric_zero_polynomial():
    assert norm_numeric(OrthAddPolynomial([0.0, 0.0], P42)) == 0.0


def fixed_iters_rows(poly, restarts, iters, seed):
    """norm_numeric before the certificate, which ran every iterated start
    for all `iters` steps in both regimes: max|c|, and the final value of
    each iterated start followed by the exact value w_i of each basis start."""
    w = np.abs(poly.coeffs)
    n = poly.dim
    top = float(np.max(w))
    w = w / top
    p, k = poly.params.p, poly.params.k
    rng = np.random.default_rng(seed)
    rows = [np.full(n, 1.0)]
    while len(rows) < restarts - n:
        rows.append(rng.random(n) + 1e-3)
    T = np.stack(rows)
    largest = np.max(T, axis=1, keepdims=True)
    T /= largest * np.sum((T / largest) ** p, axis=1, keepdims=True) ** (1.0 / p)
    if p == 1.0:
        for _ in range(iters):
            grad = w * T ** (k - 1)
            T = np.zeros_like(T)
            T[np.arange(T.shape[0]), np.argmax(grad, axis=1)] = 1.0
    else:
        exponent = 1.0 / (p - 1.0)
        for _ in range(iters):
            grad = w * T ** (k - 1)
            candidate = grad ** exponent
            norms = np.sum(candidate ** p, axis=1, keepdims=True) ** (1.0 / p)
            ok = norms[:, 0] > 0
            T[ok] = candidate[ok] / norms[ok]
    return top, np.concatenate([np.sum(w * T ** k, axis=1), w])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sup_regime_matches_the_fixed_iters_loop_bitwise(k):
    rng = np.random.default_rng(40 + k)
    real = rng.standard_normal(7)
    real_tie = real.copy()
    real_tie[5] = -real[np.argmax(np.abs(real))]
    complex_values = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    complex_tie = complex_values.copy()
    complex_tie[2] = np.conj(complex_values[np.argmax(np.abs(complex_values))])
    stopped_early = 0
    for p in (1.0, 1.5, float(k)):
        for c in (real, real_tie, complex_values, complex_tie, [0.0, 2.0, 0.0]):
            poly = OrthAddPolynomial(c, LpParams(p, k))
            for restarts, iters, seed in ((20, 500, 0), (12, 250, 11), (5, 80, 3), (3, 1, 2)):
                top, expected = fixed_iters_rows(poly, restarts, iters, seed)
                assert norm_numeric(poly, restarts, iters, seed) == top * float(np.max(expected))
                starts = _ascent_starts(len(c), p, restarts, seed)
                values, steps = _ascent(np.abs(poly.coeffs) / top, k, p, starts, iters)
                assert np.array_equal(values, expected[:-len(c)]), (p, c, iters)
                stopped_early += int(np.sum(steps < iters))
    assert stopped_early > 0
    if k == 3:
        # random rows 12 and 13 of this complex form settle into last-ulp
        # 2-cycles at p = 1.5; they stop early at either parity of iters
        rng = np.random.default_rng(2)
        poly = OrthAddPolynomial(rng.standard_normal(6) + 1j * rng.standard_normal(6),
                                 LpParams(1.5, 3))
        for iters in (500, 501):
            top, expected = fixed_iters_rows(poly, 20, iters, 0)
            assert norm_numeric(poly, 20, iters, 0) == top * float(np.max(expected))
            values, steps = _ascent(np.abs(poly.coeffs) / top, 3, 1.5,
                                    _ascent_starts(6, 1.5, 20, 0), iters)
            assert np.array_equal(values, expected[:-6])
            assert np.all(steps < iters)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("gap", [1e-3, 1e-2, 0.5, "k"])
def test_certified_ascent_is_honest(k, gap):
    p = k + (k if gap == "k" else gap)
    rng = np.random.default_rng(k)
    poly = OrthAddPolynomial(rng.standard_normal(5), LpParams(p, k))
    closed = norm_closed_form(poly)
    assert closed * (1 - 1e-9) <= norm_numeric(poly, seed=k) <= closed * (1 + 1e-12)
    # on a complex form, every full-support start certifies the norm on its own
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    closed = norm_closed_form(OrthAddPolynomial(c, LpParams(p, k)))
    starts = _ascent_starts(4, p, 20, k)
    values, _ = _ascent(np.abs(c) / np.max(np.abs(c)), k, p, starts, 500)
    full = np.all(starts > 0, axis=1)
    assert np.all(closed * (1 - 1e-9) <= values[full] * np.max(np.abs(c)))
    assert np.all(values * np.max(np.abs(c)) <= closed * (1 + 1e-12))


def second_order_reach(k, p):
    """The step distance at which 1 - exp(-k (k-1)^2 delta^2 / (8 (p-k)))
    meets the 1e-9 target."""
    return math.sqrt(-8 * math.log1p(-1e-9) * (p - k) / (k * (k - 1) ** 2))


def test_certificate_out_of_reach_is_a_budget_error():
    # the target distance lies below the roundoff floor of a step, 64u:
    # sqrt(8e-9 * 1e-3 / 10^18) is about 2.8e-15
    k, p = 10 ** 6, 10 ** 6 + 1e-3
    assert second_order_reach(k, p) <= 64 * 2.0 ** -53
    with pytest.raises(BudgetError, match="roundoff floor"):
        norm_numeric(OrthAddPolynomial([1.0, 0.5], LpParams(p, k)))
    # reachable, but the count derived at the first check exceeds the cap:
    # from the uniform start alone (restarts=1) delta_1 = log 2 / (p-1), and
    # delta_m shrinks by r per step to the reach less the floor
    k, p = 4, 4 + 2e-4
    r = (k - 1) / (p - 1)
    reach = second_order_reach(k, p) - 64 * 2.0 ** -53
    asked = 1 + math.ceil(math.log(reach / (math.log(2) / (p - 1))) / math.log(r))
    assert asked > 200000
    with pytest.raises(BudgetError, match=f"step budget exceeded: {asked} steps asked for, "
                                          f"cap is 200000"):
        norm_numeric(OrthAddPolynomial([1.0, 0.5], LpParams(p, k)), restarts=1)
    # past p - k = 1e-12 at k = 4 the count is far past the cap, not the floor
    with pytest.raises(BudgetError, match=r"step budget exceeded: \d{14} steps asked for"):
        norm_numeric(OrthAddPolynomial([1.0, 0.5], LpParams(4 + 1e-12, 4)))
    # a single nonzero coefficient needs no contraction: every row is exact
    assert norm_numeric(OrthAddPolynomial([0.0, 2.0, 0.0], LpParams(4 + 1e-12, 4))) == 2.0


@pytest.mark.parametrize("k, p", [(2, 2.0), (2, 1.99), (3, 3.0), (3, 1.5)])
def test_every_basis_value_enters_exactly(k, p):
    # for p <= k the norm max|c_i| is reached only at a basis vector, a fixed
    # point of the update: each one is a start at its exact value, even when
    # `restarts` leaves no room for it, and none is iterated
    n = 25
    for restarts in (1, 2, 20, 40):
        assert _ascent_starts(n, p, restarts, 0).shape == (max(restarts - n, 1), n)
        for i in (0, 12, n - 1):
            c = np.full(n, 2.9997 + 0j)
            c[i] = 3j
            poly = OrthAddPolynomial(c, LpParams(p, k))
            assert norm_numeric(poly, restarts=restarts) == norm_closed_form(poly) == 3.0


@pytest.mark.parametrize("k, p", [(2, 2.5), (2, 7.9), (3, 3.5), (4, 4.004637015270084)])
def test_uniform_row_stops_where_the_contraction_predicts(k, p):
    # From the uniform start t_1 is w^(1/(p-1)) normalized, so
    # delta_m = r^(m-1) log(max w / min w) / (p-1); the row stops at the first
    # m with 1 - exp(-k (k-1)^2 delta_m^2 / (8 (p-k))) <= 1e-9.
    w = np.array([1.0, 0.3, 0.7, 0.05])
    r = (k - 1) / (p - 1)
    first = math.log(1 / 0.05) / (p - 1)
    reach = second_order_reach(k, p)
    expected = 1 + math.ceil(math.log(reach / first) / math.log(r))
    values, steps = _ascent(w, k, p, _ascent_starts(4, p, 1, 0), 500)
    assert steps[0] == expected


def test_linearity_and_norm_homogeneity():
    rng = np.random.default_rng(14)
    c = rng.standard_normal(6)
    d = rng.standard_normal(6)
    params = LpParams(5.0, 2)
    x = rng.standard_normal(6)
    combo = OrthAddPolynomial(2.0 * c - 3.0 * d, params)
    direct = 2.0 * evaluate(OrthAddPolynomial(c, params), x) \
        - 3.0 * evaluate(OrthAddPolynomial(d, params), x)
    assert evaluate(combo, x) == pytest.approx(direct, rel=1e-12)
    assert norm_closed_form(OrthAddPolynomial(2.0 * c, params)) == \
        pytest.approx(2.0 * norm_closed_form(OrthAddPolynomial(c, params)), rel=1e-14)


def test_sup_norm_regime_k_at_least_p_on_random_ball():
    rng = np.random.default_rng(15)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for p, k in [(2.0, 2), (2.0, 3), (1.0, 2)]:
        poly = OrthAddPolynomial(c, LpParams(p, k))
        top = float(np.max(np.abs(c)))
        xs = rng.standard_normal((2000, 6)) + 1j * rng.standard_normal((2000, 6))
        xs /= (np.sum(np.abs(xs) ** p, axis=1, keepdims=True)) ** (1.0 / p)
        values = np.abs(np.sum(poly.coeffs * xs ** k, axis=1))
        assert np.max(values) <= top + 1e-12


# ---------------------------------------------------------------------------
# Diagonal extension and additivity
# ---------------------------------------------------------------------------

def test_extend_diagonal_examples():
    form = extend_diagonal_functional([1.0], P42)
    assert form.coeffs.shape == (1, 1)
    assert form.coeffs[0, 0] == 1.0

    form = extend_diagonal_functional([1.0, 2.0], P42)
    assert form.coeffs[0, 0] == 1.0 and form.coeffs[1, 1] == 2.0
    assert form.coeffs[0, 1] == 0.0 and form.coeffs[1, 0] == 0.0

    params = LpParams(6.0, 3)
    form = extend_diagonal_functional([1.0, 1.0], params)
    poly = OrthAddPolynomial(form.diagonal(), params)
    assert norm_closed_form(poly) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert norm_numeric(poly) == pytest.approx(math.sqrt(2.0), rel=1e-6)


def test_extend_diagonal_budget():
    with pytest.raises(BudgetError):
        extend_diagonal_functional(np.ones(200), LpParams(6.0, 3))


def test_round_trip_diagonal_extension_is_identity():
    rng = np.random.default_rng(16)
    for _ in range(25):
        n = int(rng.integers(0, 7))
        k = int(rng.choice([2, 3, 4]))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        params = LpParams(2.0 * k, k)
        d, _ = diagonal_of_multilinear(extend_diagonal_functional(c, params))
        assert np.array_equal(d, c)


def test_additivity_examples():
    report = is_orthogonally_additive(extend_diagonal_functional([1.0, 1.0], P42))
    assert report.structural_ok and report.behavioral_ok

    coeffs = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    report = is_orthogonally_additive(MultilinearForm(coeffs, P42))
    assert not report.structural_ok
    assert report.worst_offdiagonal_index == (0, 1)
    assert not report.behavioral_ok
    assert report.checks_agree

    # behavioral defect realized at x = e_1, y = e_2: P(x+y) = 2 vs P(x)+P(y) = 0
    form = MultilinearForm(coeffs, P42)
    x = np.array([1.0, 0.0], dtype=complex)
    y = np.array([0.0, 1.0], dtype=complex)
    assert form.apply([x + y] * 2) == pytest.approx(2.0)
    assert form.apply([x] * 2) + form.apply([y] * 2) == pytest.approx(0.0)


def test_additivity_on_any_diagonal_extension():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.choice([2, 3]))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        report = is_orthogonally_additive(extend_diagonal_functional(c, LpParams(5.0, k)))
        assert report.structural_ok and report.checks_agree


def test_additivity_symmetrizes_first():
    # asymmetric coefficients whose symmetrization is diagonal
    for coeffs in ([[1, 2], [-2, 1]], [[1, 1], [-1, 2]]):
        form = MultilinearForm(coeffs, P42)
        report = is_orthogonally_additive(form)
        assert report.structural_ok
        assert report.checks_agree
        assert report == is_orthogonally_additive(form.symmetrize())


def draw_pairs(seed, n, samples):
    """The behavioral check's draws, in its order: the row permutations, the
    cuts, then 2n standard normals per row."""
    rng = np.random.default_rng(seed)
    perms = rng.permuted(np.tile(np.arange(n), (samples, 1)), axis=1)
    cuts = rng.integers(1, n, size=(samples, 1))
    return perms, cuts[:, 0], rng.standard_normal((samples, 2 * n))


def per_sample_behavioral(form, tol, samples, seed):
    """Worst defect, pass flag and largest |P| of the behavioral check, with
    one apply call per point and the same draws as is_orthogonally_additive."""
    sym = form.symmetrize()
    n, k = sym.dim, sym.degree
    worst, ok, size = 0.0, True, 0.0
    for perm, cut, z in zip(*draw_pairs(seed, n, samples)):
        x = np.zeros(n, dtype=complex)
        y = np.zeros(n, dtype=complex)
        x[perm[:cut]] = z[:cut] + 1j * z[cut:2 * cut]
        y[perm[cut:]] = z[2 * cut:n + cut] + 1j * z[n + cut:]
        px, py, pxy = (sym.apply([v] * k) for v in (x, y, x + y))
        defect = abs(pxy - px - py)
        worst = max(worst, defect)
        ok = ok and defect <= tol * (abs(px) + abs(py) + 1.0)
        size = max(size, abs(px), abs(py), abs(pxy))
    return worst, ok, size


@pytest.mark.parametrize("samples", [0, 1, 32])
def test_batched_additivity_matches_per_sample_apply(samples):
    rng = np.random.default_rng(20)
    for trial in range(24):
        n = int(rng.integers(2, 6))
        k = int(rng.choice([2, 3, 4]))
        params = LpParams(5.0, k)
        if trial % 2:
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            form = extend_diagonal_functional(c, params)
        else:  # off-diagonal coefficients: not additive, and not yet symmetric
            form = MultilinearForm(rng.standard_normal((n,) * k).astype(complex), params)
        report = is_orthogonally_additive(form, samples=samples, seed=trial)
        worst, ok, size = per_sample_behavioral(form, 1e-10, samples, trial)
        assert report.behavioral_ok == ok
        assert report.worst_behavioral_defect == pytest.approx(worst, rel=1e-12,
                                                               abs=1e-14 * (1.0 + size))
        if samples == 0:
            assert report.worst_behavioral_defect == 0.0 and report.behavioral_ok
        elif trial % 2 == 0:
            assert not report.behavioral_ok


@pytest.mark.parametrize("n", [2, 3, 5, 8, 19])
@pytest.mark.parametrize("samples", [0, 1, 32])
def test_disjoint_pairs_match_the_per_row_loop(n, samples):
    for seed in range(24):
        perms, cuts, normals = draw_pairs(seed, n, samples)
        xs = np.zeros((samples, n), dtype=complex)
        ys = np.zeros((samples, n), dtype=complex)
        for row, (perm, cut, z) in enumerate(zip(perms, cuts, normals)):
            assert sorted(perm) == list(range(n)) and 1 <= cut < n
            xs[row, perm[:cut]] = z[:cut] + 1j * z[cut:2 * cut]
            ys[row, perm[cut:]] = z[2 * cut:n + cut] + 1j * z[n + cut:]
        got_xs, got_ys = _disjoint_pairs(np.random.default_rng(seed), n, samples)
        assert got_xs.shape == got_ys.shape == (samples, n)
        assert got_xs.tobytes() == xs.tobytes()
        assert got_ys.tobytes() == ys.tobytes()


# is_orthogonally_additive(form, seed=k * n) on the forms below, as
# (worst_behavioral_defect.hex(), behavioral_ok): a change to the draws of
# the behavioral check moves these
ADDITIVITY_PINS = {
    "full_k2_n5": ("0x1.0f2368db34301p+5", False),
    "full_k3_n5": ("0x1.a6c8aecc1ab4fp+6", False),
    "full_k3_n8": ("0x1.ba9ce3583b4ddp+7", False),
    "diagonal_k2_n5": ("0x1.07e0f66afed07p-49", True),
    "diagonal_k3_n8": ("0x1.01fe03f61bad0p-47", True),
    "diagonal_k4_n3": ("0x1.c557400c55c88p-47", True),
}


def test_behavioral_check_keeps_its_seeded_stream():
    rng = np.random.default_rng(23)
    forms = {}
    for k, n in ((2, 5), (3, 5), (3, 8)):
        c = rng.standard_normal((n,) * k) + 1j * rng.standard_normal((n,) * k)
        forms[f"full_k{k}_n{n}"] = (MultilinearForm(c, LpParams(5.0, k)), k * n)
    for k, n in ((2, 5), (3, 8), (4, 3)):
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        forms[f"diagonal_k{k}_n{n}"] = (extend_diagonal_functional(d, LpParams(5.0, k)), k * n)
    for name, (form, seed) in forms.items():
        report = is_orthogonally_additive(form, seed=seed)
        got = (report.worst_behavioral_defect.hex(), report.behavioral_ok)
        assert got == ADDITIVITY_PINS[name], name


def test_additivity_makes_no_apply_calls(monkeypatch):
    def no_apply(*args):
        raise AssertionError("MultilinearForm.apply was called")

    monkeypatch.setattr(MultilinearForm, "apply", no_apply)
    for coeffs in ([[1.0, 0.0], [0.0, 2.0]], [[0.0, 1.0], [1.0, 0.0]]):
        is_orthogonally_additive(MultilinearForm(np.array(coeffs, dtype=complex), P42))


def test_disjoint_support_additivity_of_polynomials():
    rng = np.random.default_rng(18)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        k = int(rng.choice([2, 3, 4]))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        poly = OrthAddPolynomial(c, LpParams(3.0, k))
        cut = int(rng.integers(1, n))
        perm = rng.permutation(n)
        x = np.zeros(n, dtype=complex)
        y = np.zeros(n, dtype=complex)
        x[perm[:cut]] = rng.standard_normal(cut) + 1j * rng.standard_normal(cut)
        y[perm[cut:]] = rng.standard_normal(n - cut) + 1j * rng.standard_normal(n - cut)
        px, py, pxy = evaluate(poly, x), evaluate(poly, y), evaluate(poly, x + y)
        assert abs(pxy - px - py) <= 1e-10 * (abs(px) + abs(py) + 1.0)


# ---------------------------------------------------------------------------
# Multilinear forms: structure, diagonal extraction, norm oracles
# ---------------------------------------------------------------------------

def test_multilinear_form_validation():
    with pytest.raises(ValueError):
        MultilinearForm(np.zeros((2, 3)), P42)
    with pytest.raises(ValueError):
        MultilinearForm(np.zeros((2, 2, 2)), P42)
    form = MultilinearForm(np.eye(2, dtype=complex), P42)
    with pytest.raises(ValueError):
        form.apply([np.ones(2)])
    with pytest.raises(ValueError):
        form.apply([np.ones(3), np.ones(3)])


def test_symmetrize_and_is_symmetric():
    coeffs = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    form = MultilinearForm(coeffs, P42)
    assert not form.is_symmetric()
    sym = form.symmetrize()
    assert sym.is_symmetric()
    assert sym.coeffs[0, 1] == pytest.approx(0.5)
    rng = np.random.default_rng(21)
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    # symmetrization preserves the induced polynomial
    assert sym.apply([x, x]) == pytest.approx(form.apply([x, x]), rel=1e-14)
    assert sym.apply([x, y]) == pytest.approx(0.5 * (form.apply([x, y]) + form.apply([y, x])),
                                              rel=1e-14)
    assert sym.symmetrize() is sym


def test_is_symmetric_needs_every_order_of_the_slots():
    # integer coefficients, so every sum below is exact
    c = np.random.default_rng(28).integers(-9, 10, (3, 3, 3)).astype(float)
    params = LpParams(5.0, 3)
    swapped = MultilinearForm(c + c.swapaxes(0, 1), params)
    shift = lambda a: np.moveaxis(a, 0, -1)
    shifted = MultilinearForm(c + shift(c) + shift(shift(c)), params)
    assert np.array_equal(swapped.coeffs, swapped.coeffs.swapaxes(0, 1))
    assert np.array_equal(shifted.coeffs, shift(shifted.coeffs))
    assert not swapped.is_symmetric() and not shifted.is_symmetric()
    for form in (swapped, shifted):
        sym = form.symmetrize()
        assert sym is not form and sym.is_symmetric()


def test_symmetry_of_a_high_degree_diagonal_extension_is_quick():
    # 63! slot orders: only the two generating permutations are compared
    form = extend_diagonal_functional([2.0], LpParams(80.0, 63))
    start = time.perf_counter()
    assert form.is_symmetric()
    assert form.symmetrize() is form
    assert time.perf_counter() - start < 1.0


def test_diagonal_of_multilinear_examples():
    form = extend_diagonal_functional([1.0, 1.0], P42)
    d, norm = diagonal_of_multilinear(form)
    assert np.allclose(d, [1, 1])
    assert norm == pytest.approx(math.sqrt(2.0), rel=1e-14)

    zero_diag = MultilinearForm(np.array([[0, 1], [1, 0]], dtype=complex), P42)
    d, norm = diagonal_of_multilinear(zero_diag)
    assert np.allclose(d, 0) and norm == 0.0

    # in the p <= k regime the norm is the sup of |diagonal|
    form_inf = extend_diagonal_functional([3.0, -4.0], LpParams(2.0, 2))
    _, norm_inf = diagonal_of_multilinear(form_inf)
    assert norm_inf == 4.0


def test_diagonal_norm_bounded_by_estimated_form_norm():
    rng = np.random.default_rng(22)
    for _ in range(10):
        raw = rng.standard_normal((2, 2))
        form = MultilinearForm(raw.astype(complex), P42).symmetrize()
        ascent = multilinear_norm_ascent(form, restarts=12, iters=50, seed=5)
        lower, upper = multilinear_norm_grid(form)
        _, diag_norm = diagonal_of_multilinear(form)
        assert abs(ascent - upper) <= 1e-4 * max(1.0, ascent)
        assert diag_norm <= max(ascent, lower) + 1e-6


def test_ascent_known_bilinear_norm():
    # identity bilinear form on l_2: norm 1
    form = MultilinearForm(np.eye(3, dtype=complex), LpParams(2.0, 2))
    assert multilinear_norm_ascent(form, restarts=4, iters=40, seed=0) == \
        pytest.approx(1.0, rel=1e-10)
    # singular values rule the l_2 -> l_2 case
    a = np.array([[3.0, 0.0], [0.0, 1.0]])
    form = MultilinearForm(a.astype(complex), LpParams(2.0, 2))
    assert multilinear_norm_ascent(form, restarts=4, iters=40, seed=0) == \
        pytest.approx(3.0, rel=1e-10)


def test_grid_rejects_unsupported_inputs():
    with pytest.raises(ValueError, match="n, k in"):
        multilinear_norm_grid(MultilinearForm(np.zeros((4, 4), dtype=complex), P42))
    with pytest.raises(ValueError, match="n, k in"):
        multilinear_norm_grid(MultilinearForm(np.zeros((2,) * 4, dtype=complex), LpParams(5.0, 4)))
    with pytest.raises(ValueError, match="real forms"):
        multilinear_norm_grid(
            MultilinearForm(1j * np.ones((2, 2)), P42))
    for incumbent in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="incumbent"):
            multilinear_norm_grid(MultilinearForm(np.ones((2, 2)), P42), incumbent=incumbent)


def grid_pin_cases():
    """Seeded symmetric forms for (n, k) in {2, 3}^2, p in both regimes
    (p = 1 closes the last slot with q = inf), plus the form of
    zalduendo-check --k 3 --n 3 --p 4.187 --seed 52202."""
    rng = np.random.default_rng(24)
    cases = []
    for n in (2, 3):
        for k in (2, 3):
            for p in (1.0, 1.5, float(k), k + 0.7, 2.0 * k):
                cases.append((rng.standard_normal((n,) * k), LpParams(p, k)))
    cases.append((np.random.default_rng([52202, 0]).standard_normal((3, 3, 3)),
                  LpParams(4.187, 3)))
    return cases


# multilinear_norm_grid of the zooming grid it replaced, on grid_pin_cases()
OLD_GRID_VALUES = [
    1.3507473233305594, 1.28173052618736, 1.586235928759548, 1.2754370362570002,
    1.2038537763303923, 2.0944736512196815, 1.7314532373247624, 1.9311133196126022,
    1.0425249108308277, 4.9630698209464805, 0.9638483851375168, 1.6467234404742133,
    2.226942533674491, 1.8627411568829064, 2.322132617026898, 2.8017277977663135,
    1.3973880597827246, 2.3928541573452615, 4.699539995083878, 7.358374589596413,
    4.8691384943381,
]


def test_enclosure_bounds_the_ascent_and_the_old_grid():
    for (raw, params), grid in zip(grid_pin_cases(), OLD_GRID_VALUES, strict=True):
        form = MultilinearForm(raw.astype(complex), params).symmetrize()
        lower, upper = multilinear_norm_grid(form)
        ascent = multilinear_norm_ascent(form, restarts=20, iters=60, seed=0)
        assert max(ascent, grid) <= upper, (raw.shape, params)
        assert (upper - lower) / lower <= 1e-5, (raw.shape, params)


def test_enclosure_of_known_bilinear_norms():
    # The identity's N is 1 everywhere, so the whole sphere is refined: about
    # 277,000 open tuples in the last round, hundreds of chunks and a large
    # box table.  Both enclosures are pinned as float.hex.
    cases = ((np.eye(3), 1.0, ("0x1.0000000000000p+0", "0x1.0000a7bf40507p+0")),
             (np.diag([3.0, 1.0]), 3.0, ("0x1.8000000000000p+1", "0x1.8000bfffd1802p+1")))
    for a, norm, pin in cases:
        form = MultilinearForm(a.astype(complex), LpParams(2.0, 2))
        lower, upper = multilinear_norm_grid(form)
        assert lower <= norm <= upper
        assert upper - lower <= 1e-5 * lower
        assert (lower.hex(), upper.hex()) == pin


def test_enclosure_searches_every_face_pair_of_a_non_symmetric_form():
    # The maximum of this form needs slot boxes on faces f1 > f2, which the
    # enclosure skips only for coefficients symmetric in the two box slots.
    raw = np.random.default_rng([2, 7]).standard_normal((3, 3, 3))
    form = MultilinearForm(raw.astype(complex), LpParams(5.0, 3))
    lower, upper = multilinear_norm_grid(form)
    assert multilinear_norm_ascent(form, restarts=20, iters=60, seed=0) <= upper
    assert (upper - lower) / lower <= 1e-5


def test_enclosure_of_the_zero_form():
    form = MultilinearForm(np.zeros((3, 3, 3), dtype=complex), LpParams(4.0, 3))
    assert multilinear_norm_grid(form) == (0.0, 0.0)


def test_enclosure_box_budget(monkeypatch):
    form = MultilinearForm(np.random.default_rng(3).standard_normal((3, 3, 3)).astype(complex),
                           LpParams(4.5, 3)).symmetrize()
    monkeypatch.setattr("oadiag.oapoly.MAX_ENCLOSURE_BOXES", 100)
    with pytest.raises(BudgetError, match=r"box budget .*: \d+ boxes asked for, cap is 100"):
        multilinear_norm_grid(form)


def enclosure_pin_forms():
    """grid_pin_cases() as symmetric forms, then non-symmetric forms at
    (n, k) = (2, 2), (3, 2), (2, 3), (3, 3), each at p = 1 and p = k + 0.5."""
    forms = [MultilinearForm(raw.astype(complex), params).symmetrize()
             for raw, params in grid_pin_cases()]
    rng = np.random.default_rng(25)
    for n, k in ((2, 2), (3, 2), (2, 3), (3, 3)):
        for p in (1.0, k + 0.5):
            forms.append(MultilinearForm(rng.standard_normal((n,) * k).astype(complex),
                                         LpParams(p, k)))
    return forms


# multilinear_norm_grid(form) on enclosure_pin_forms(), as float.hex, recorded
# when every box tuple was bounded from its own boxes' coordinates: the box
# table gathers the same numbers and must not move a bit.  Entries 6, 8, 9
# and 16-20, symmetric forms at k = 3, were re-recorded when the mirror rule
# left out mirrored box tuples; the others did not move.
ENCLOSURE_PINS = [
    ("0x1.59ca939add422p+0", "0x1.59ca939ade9bfp+0"),
    ("0x1.481f5d7250815p+0", "0x1.481fe39f4ad06p+0"),
    ("0x1.961359ca92352p+0", "0x1.961441a590993p+0"),
    ("0x1.4682fbf2a09e8p+0", "0x1.468345613fb30p+0"),
    ("0x1.342fc22b2b1dfp+0", "0x1.3430608fbf043p+0"),
    ("0x1.0c17b66d293f4p+1", "0x1.0c17b66d2a4b5p+1"),
    ("0x1.bb40776731544p+0", "0x1.bb419079d7a0fp+0"),
    ("0x1.ee5d714775ed1p+0", "0x1.ee5d7ee51b06ep+0"),
    ("0x1.0ae2e8959272bp+0", "0x1.0ae37f41d1ab0p+0"),
    ("0x1.3da2e8059929fp+2", "0x1.3da34b79ec439p+2"),
    ("0x1.ed7d8918efa3ep-1", "0x1.ed7d8918f1916p-1"),
    ("0x1.a58f98af08181p+0", "0x1.a5900f6536bd5p+0"),
    ("0x1.1d0c6f732cb96p+1", "0x1.1d0d2369dc8a5p+1"),
    ("0x1.dcdc6254b0bdfp+0", "0x1.dcdd3846a39a3p+0"),
    ("0x1.293ba113261c3p+1", "0x1.293bf4e82ca16p+1"),
    ("0x1.669f0437d9a75p+1", "0x1.669f0437db0dfp+1"),
    ("0x1.65bb2f0d809bfp+0", "0x1.65bc186d3286cp+0"),
    ("0x1.3248fcbd25a1ap+1", "0x1.3249af1a35429p+1"),
    ("0x1.2cd738bc43578p+2", "0x1.2cd7fd25562dbp+2"),
    ("0x1.d6ef9aeef9746p+2", "0x1.d6f0ceaee9602p+2"),
    ("0x1.3bde2d59a1f72p+2", "0x1.3bdefc2ce3ab1p+2"),
    ("0x1.236687ae4b3a1p+1", "0x1.236687ae4c5d7p+1"),
    ("0x1.775500065bb8ep+0", "0x1.7755bff285c42p+0"),
    ("0x1.1d5bcb37ec062p+1", "0x1.1d5bcb37ed238p+1"),
    ("0x1.4779e26d063d2p+0", "0x1.477aaf5be506dp+0"),
    ("0x1.f8006604f5630p+0", "0x1.f8006604f75b0p+0"),
    ("0x1.4273a441ef49ep+1", "0x1.4273f23842b60p+1"),
    ("0x1.0e597917b752fp+1", "0x1.0e597917b8615p+1"),
    ("0x1.7105f6259ad90p+2", "0x1.7106dfcc11d06p+2"),
]


@pytest.mark.parametrize("chunk", [None, 7])
def test_enclosure_is_bitwise_pinned(chunk, monkeypatch):
    if chunk is not None:
        # many chunk borders, so the box-id gathers cross them
        monkeypatch.setattr("oadiag.oapoly._ENCLOSURE_CHUNK", chunk)
    got = [tuple(v.hex() for v in multilinear_norm_grid(form)) for form in enclosure_pin_forms()]
    assert got == ENCLOSURE_PINS


def test_enclosure_splits_the_faces_before_bounding(monkeypatch):
    whole = []

    def recording(coeffs, boxes, ids, *rest):
        # a box of width 2 is a whole face
        whole.append(int(np.count_nonzero((boxes.width[ids] == 2.0).all(axis=0))))
        return _tuple_bounds(coeffs, boxes, ids, *rest)

    monkeypatch.setattr("oadiag.oapoly._tuple_bounds", recording)
    for form in enclosure_pin_forms():
        multilinear_norm_grid(form)
    # the pre-split splits the one widest box of each face tuple (both boxes
    # of a twin), so no tuple of whole faces is bounded; at k = 3 a split
    # tuple keeps its other face until a later round splits it
    assert whole and max(whole) == 0


@pytest.mark.parametrize("ids", [
    np.zeros(0, dtype=np.int64),
    np.zeros((2, 0), dtype=np.int64),
    np.array([5]),
    np.array([7, 7, 7, 7]),
    np.array([[3, 1, 3], [7, 1, 0]]),
    np.array([900_000, 12, 450_000, 12, 899_999]),
    np.random.default_rng(28).integers(40, 5000, size=(2, 700)),
])
def test_distinct_is_unique_with_inverse(ids):
    distinct, inverse = _distinct(ids)
    expected, expected_inverse = np.unique(ids, return_inverse=True)
    assert distinct.dtype == expected.dtype and np.array_equal(distinct, expected)
    assert inverse.shape == ids.shape
    assert np.array_equal(inverse.reshape(-1), expected_inverse.reshape(-1))
    assert np.array_equal(distinct[inverse], ids)


def concatenated_split(table, parents):
    """_Boxes.split as a table rebuilt by concatenation: (face, lo, hi,
    width) with the children of parents appended, and their ids."""
    face, lo, hi, width = table
    n = lo.shape[0]
    corners = np.take(_CORNERS[n], face[parents], axis=-1)
    plo, phi = lo[:, None, parents], hi[:, None, parents]
    mid = (plo + phi) / 2
    table = (np.concatenate([face, np.tile(face[parents], corners.shape[1])]),
             np.concatenate([lo, np.where(corners, mid, plo).reshape(n, -1)], axis=1),
             np.concatenate([hi, np.where(corners, phi, mid).reshape(n, -1)], axis=1),
             np.concatenate([width, np.tile(width[parents] / 2, corners.shape[1])]))
    return table, np.arange(face.size, table[0].size).reshape(corners.shape[1], -1)


@pytest.mark.parametrize("n", [2, 3])
def test_growable_box_table_matches_concatenation(n):
    rng = np.random.default_rng(29)
    boxes = _Boxes(n)
    table = (boxes.face.copy(), boxes.lo.copy(), boxes.hi.copy(), boxes.width.copy())
    spare = False
    for _ in range(12):
        parents = np.unique(rng.integers(0, boxes.size, size=rng.integers(0, 40)))
        children = boxes.split(parents)
        table, expected = concatenated_split(table, parents)
        assert np.array_equal(children, expected)
        size = boxes.size
        assert size == table[0].size
        spare |= boxes.width.size > size
        for got, want in zip((boxes.face[:size], boxes.lo[:, :size], boxes.hi[:, :size],
                              boxes.width[:size]), table):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    assert spare  # some split left spare columns for the next


def sampled_sup(form, points, rng):
    """The largest |phi(x_1, ..., x_k)| over seeded random unit l_p vectors."""
    n, k, p = form.dim, form.degree, form.params.p
    xs = rng.standard_normal((points, k, n))
    xs /= (np.abs(xs) ** p).sum(axis=-1, keepdims=True) ** (1.0 / p)
    letters = "abc"[:k]
    spec = ",".join([letters] + ["z" + c for c in letters]) + "->z"
    return float(np.max(np.abs(np.einsum(spec, form.coeffs.real, *(xs[:, j] for j in range(k))))))


def test_enclosure_with_the_ascent_as_incumbent():
    rng = np.random.default_rng(26)
    cases = grid_pin_cases() + [(rng.standard_normal((3, 3, 3)), LpParams(p, 3))
                                for p in (3.3, 4.5, 6.0, 8.5)]
    for raw, params in cases:
        form = MultilinearForm(raw.astype(complex), params).symmetrize()
        ascent = multilinear_norm_ascent(form, restarts=20, iters=60, seed=0)
        lower, upper = multilinear_norm_grid(form, incumbent=ascent)
        plain_lower, plain_upper = multilinear_norm_grid(form)
        assert ascent <= lower <= plain_upper, (raw.shape, params)
        assert plain_lower <= upper, (raw.shape, params)
        assert sampled_sup(form, 2000, rng) <= upper, (raw.shape, params)
        assert (upper - lower) / lower <= 1e-5, (raw.shape, params)


def test_enclosure_of_a_non_symmetric_form_bounds_the_ascent():
    # c[a, b, :] != c[b, a, :]: a mirror would skip the cone of the
    # maximizer and prove an upper bound below the ascent
    form = MultilinearForm(np.random.default_rng(16).standard_normal((3, 3, 3)),
                           LpParams(5.0, 3))
    lower, upper = multilinear_norm_grid(form)
    assert multilinear_norm_ascent(form, restarts=20, iters=60, seed=0) <= upper
    assert (upper - lower) / lower <= 1e-5


def test_mirror_agrees_with_the_full_tree(monkeypatch):
    counts = []

    def counting(coeffs, boxes, ids, *rest):
        counts[-1] += ids.shape[1]
        return _tuple_bounds(coeffs, boxes, ids, *rest)

    def enclose(form):
        counts.append(0)
        return multilinear_norm_grid(form), counts[-1]

    monkeypatch.setattr("oadiag.oapoly._tuple_bounds", counting)
    rng = np.random.default_rng(27)
    forms = enclosure_pin_forms() + [
        MultilinearForm(rng.standard_normal((3, 3, 3)).astype(complex), LpParams(p, 3)).symmetrize()
        for p in (3.4, 4.6, 6.2, 9.0)]
    for form in forms:
        (lower, upper), tuples = enclose(form)
        with monkeypatch.context() as off:
            # no coefficients pass the symmetry test: the full tree
            off.setattr("oadiag.oapoly._MIRROR_ASYMMETRY", -1.0)
            (full_lower, full_upper), full_tuples = enclose(form)
        shape = (form.dim, form.degree, form.params.p)
        assert lower <= full_upper and full_lower <= upper, shape
        sampled = sampled_sup(form, 2000, rng)
        assert sampled <= upper and sampled <= full_upper, shape
        c = form.coeffs.real
        asymmetry = np.max(np.abs(c - c.swapaxes(0, 1)))
        if form.degree == 3 and asymmetry <= _MIRROR_ASYMMETRY * np.max(np.abs(c)):
            assert tuples < full_tuples, shape
        else:
            assert (lower, upper, tuples) == (full_lower, full_upper, full_tuples), shape


def per_restart_ascent(form, restarts, iters, seed):
    """The ascent one restart at a time through the checked apply and
    partial_gradient: the best value, each restart's sweep count and value,
    and how many slot updates met a zero gradient."""
    n, k, p = form.dim, form.degree, form.params.p
    real_form = bool(np.all(form.coeffs.imag == 0))
    rng = np.random.default_rng(seed)
    steps, values, zero_gradients = [], [], 0
    for restart in range(restarts):
        if restart == 0:
            xs = [np.full(n, 1.0, dtype=complex) for _ in range(k)]
        else:
            xs = []
            for _ in range(k):
                v = rng.standard_normal(n)
                if not real_form:
                    v = v + 1j * rng.standard_normal(n)
                xs.append(v.astype(complex))
        xs = [x / lq_norm(x, p) for x in xs]
        previous, stalled, step = -1.0, 0, 0
        for step in range(1, iters + 1):
            for j in range(k):
                grad = form.partial_gradient(xs, j)
                mags = np.abs(grad)
                if not np.any(mags > 0):
                    zero_gradients += 1
                    continue
                if p == 1.0:
                    i = int(np.argmax(mags))
                    xs[j] = np.zeros_like(grad)
                    xs[j][i] = np.conj(phase(grad[i]))
                else:
                    q = holder_conjugate(p)
                    unit_phases = np.where(mags > 0, np.conj(grad) / np.where(mags > 0, mags, 1.0),
                                           0.0)
                    xs[j] = unit_phases * (mags / lq_norm(grad, q)) ** (q - 1.0)
            value = abs(form.apply(xs))
            if value - previous <= 1e-14 * max(1.0, value):
                stalled += 1
                if stalled >= 3:
                    break
            else:
                stalled = 0
            previous = value
        steps.append(step)
        values.append(abs(form.apply(xs)))
    return max(values), steps, values, zero_gradients


# multilinear_norm_ascent(form, restarts, iters, seed=7) on the cases below,
# the forms symmetrized, as float.hex: the batched ascent must not move a bit
ASCENT_PINS = {
    "real": "0x1.9af962a3e66b6p+1",
    "complex": "0x1.bfd7bd079fb8dp+2",
    "p_is_1": "0x1.907a324e6349cp+0",
    "p_below_k": "0x1.3205860b12877p+1",
    "zero_gradient": "0x1.428a2f98d728bp+1",
    "one_restart": "0x1.e019495372e72p+0",
    "real_two_sweeps": "0x1.9af7f02d6d608p+1",
    "complex_two_sweeps": "0x1.36804d25d219ap+2",
}


def test_batched_ascent_matches_per_restart_loop():
    rng = np.random.default_rng(25)
    real = rng.standard_normal((3, 3, 3))
    cases = {
        "real": (real, LpParams(4.0, 3), 20, 60),
        "complex": (real + 1j * rng.standard_normal((3, 3, 3)), LpParams(4.0, 3), 20, 60),
        "p_is_1": (rng.standard_normal((3, 3, 3)), LpParams(1.0, 3), 12, 40),
        "p_below_k": (rng.standard_normal((4, 4)), LpParams(1.5, 2), 12, 200),
        # the all-ones start is in the kernel: restart 0 meets zero gradients
        "zero_gradient": (np.array([[1.0, -1.0], [-1.0, 1.0]]), LpParams(3.0, 2), 6, 60),
        "one_restart": (real, LpParams(6.0, 3), 1, 5),
        # two sweeps end far from convergence, so the value depends on the starts
        "real_two_sweeps": (real, LpParams(4.0, 3), 8, 2),
        "complex_two_sweeps": (real + 1j * real[::-1], LpParams(4.0, 3), 8, 2),
    }
    seen_steps = set()
    for name, (coeffs, params, restarts, iters) in cases.items():
        form = MultilinearForm(np.asarray(coeffs, dtype=complex), params).symmetrize()
        expected, steps, values, zero_gradients = per_restart_ascent(form, restarts, iters, 7)
        got = multilinear_norm_ascent(form, restarts=restarts, iters=iters, seed=7)
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0), name
        assert got.hex() == ASCENT_PINS[name], name
        if name == "zero_gradient":
            assert zero_gradients > 0 and values[0] == 0.0 and expected > 0.0
        seen_steps.update(steps)
        if name in ("real", "complex"):
            assert len(set(steps)) > 1, name  # restarts stall at different sweeps
    assert max(seen_steps) > 5


def test_ascent_makes_no_checked_calls(monkeypatch):
    def refuse(*args):
        raise AssertionError("a checked MultilinearForm method was called")

    form = MultilinearForm(np.random.default_rng(26).standard_normal((3, 3, 3)).astype(complex),
                           LpParams(4.0, 3)).symmetrize()
    monkeypatch.setattr(MultilinearForm, "apply", refuse)
    monkeypatch.setattr(MultilinearForm, "partial_gradient", refuse)
    assert multilinear_norm_ascent(form, restarts=5, iters=10, seed=1) > 0.0


def test_ascent_is_deterministic():
    rng = np.random.default_rng(23)
    form = MultilinearForm(rng.standard_normal((3, 3, 3)).astype(complex),
                           LpParams(4.0, 3)).symmetrize()
    a = multilinear_norm_ascent(form, restarts=6, iters=30, seed=9)
    b = multilinear_norm_ascent(form, restarts=6, iters=30, seed=9)
    assert a == b


def test_degree_one_polynomial_is_a_functional():
    # k = 1 degenerates to the dual norm of l_p
    c = np.array([3.0, -4.0])
    poly = OrthAddPolynomial(c, LpParams(2.0, 1))
    assert norm_closed_form(poly) == pytest.approx(5.0, rel=1e-14)
    x, value = norm_witness(poly)
    assert value == pytest.approx(5.0, rel=1e-12)
    assert norm_numeric(poly) == pytest.approx(5.0, rel=1e-8)
