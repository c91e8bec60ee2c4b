import math

import numpy as np
import pytest

from oadiag.diagonal import (
    DiagonalTensor,
    DualDiagonalForm,
    averaging_decomposition,
    build_dual_form,
    dense_expansion,
    pair,
    pi_lower_bound,
    pi_norm_closed_form,
    pi_upper_bound,
    _slot_coefficients,
)
from oadiag.numerics import BudgetError, LpParams, lq_norm


def reconstruction_defects(a, params, symmetric):
    """Max off-diagonal magnitude and max diagonal error of the expansion."""
    u = DiagonalTensor(a, params)
    n = u.dim
    tensor = dense_expansion(averaging_decomposition(u, symmetric=symmetric))
    idx = np.arange(n)
    diag = tensor[tuple([idx] * params.k)].copy()
    tensor[tuple([idx] * params.k)] = 0.0
    return float(np.max(np.abs(tensor))) if n else 0.0, \
        float(np.max(np.abs(diag - u.coeffs))) if n else 0.0


# ---------------------------------------------------------------------------
# Averaging decomposition
# ---------------------------------------------------------------------------

def test_single_coefficient_decomposition():
    u = DiagonalTensor([1.0], LpParams(4.0, 2))
    slots = averaging_decomposition(u)
    assert slots.shape == (2, 2, 1)  # pieces, slots, coordinates
    signs = sorted(round(s.real) for s in slots[:, 0, 0])
    assert signs == [-1, 1]
    for piece in slots:
        assert np.allclose(piece[0], piece[1])
    tensor = dense_expansion(slots)
    # every piece carries weight 1/2
    weighted = sum(0.5 * np.multiply.outer(piece[0], piece[1]) for piece in slots)
    assert np.array_equal(tensor, weighted)
    assert abs(tensor[0, 0] - 1.0) < 1e-15


def test_two_coefficient_cancellation_is_exact_scale():
    u = DiagonalTensor([1.0, 1.0], LpParams(4.0, 2))
    slots = averaging_decomposition(u)
    assert slots.shape[0] == 4
    tensor = dense_expansion(slots)
    assert abs(tensor[0, 1]) < 1e-15
    assert abs(tensor[1, 0]) < 1e-15
    assert tensor[0, 0] == pytest.approx(1.0, rel=1e-14)
    assert tensor[1, 1] == pytest.approx(1.0, rel=1e-14)


def test_degree_three_decomposition_matches_signed_diagonal():
    a = np.array([1.0, -1.0])
    u = DiagonalTensor(a, LpParams(4.0, 3))
    assert averaging_decomposition(u).shape == (9, 3, 2)
    off, diag = reconstruction_defects(a, LpParams(4.0, 3), symmetric=True)
    assert off <= 1e-12 * np.sum(np.abs(a))
    assert diag <= 1e-12


def test_symmetric_variant_has_equal_slots():
    u = DiagonalTensor([2.0, -3.0, 1.5], LpParams(5.0, 3))
    for piece in averaging_decomposition(u, symmetric=True):
        for slot in piece[1:]:
            assert np.array_equal(slot, piece[0])


def test_asymmetric_variant_concentrates_phase_in_first_slot():
    u = DiagonalTensor([-2.0, 3.0], LpParams(5.0, 3))
    first = averaging_decomposition(u, symmetric=False)[0]
    # slot 0 carries the sign of -2, the remaining slots the plain modulus root
    assert first[0][0].real < 0
    assert first[1][0].real > 0
    assert np.array_equal(first[1], first[2])


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("complex_coeffs", [False, True])
def test_reconstruction_seeded(symmetric, complex_coeffs):
    rng = np.random.default_rng(202)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        k = int(rng.choice([2, 3]))
        p = float(rng.choice([k + 0.5, k + 1.0, 2.0 * k, 1.0, float(k)]))
        a = rng.standard_normal(n)
        if complex_coeffs:
            a = a + 1j * rng.standard_normal(n)
        off, diag = reconstruction_defects(a, LpParams(p, k), symmetric)
        scale = float(np.sum(np.abs(a)))
        assert off <= 1e-12 * scale
        assert diag <= 1e-12 * max(np.max(np.abs(a)), 1e-300)


@pytest.mark.parametrize("n", [10, 11])
def test_reconstruction_stays_within_tolerance_at_many_pieces(n):
    # 3^10 and 3^11 pieces: adding them one after another drifted past 1e-12.
    # The coefficients are case 1 of `oadiag sweep --k 3 --p 6 --n N --trials 2`.
    rng = np.random.default_rng([0, 1])
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    off, diag = reconstruction_defects(a, LpParams(6.0, 3), symmetric=True)
    assert off / np.sum(np.abs(a)) <= 1e-12
    assert diag / np.max(np.abs(a)) <= 1e-12


def test_dense_expansion_single_coordinate_any_degree():
    u = DiagonalTensor([-2.0], LpParams(70.0, 60))
    tensor = dense_expansion(averaging_decomposition(u))
    assert tensor.shape == (1,) * 60
    assert abs(tensor.reshape(-1)[0] + 2.0) < 1e-12


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 60])
def test_decomposition_equals_complex_powers_bitwise(k, symmetric):
    # slot m, j, i = c[j, i] * exp(2 pi i / k) ** (level-(i+1) base-k digit of m)
    rng = np.random.default_rng([83, k])
    n = 1 if k > 7 else 4
    u = DiagonalTensor(rng.standard_normal(n) + 1j * rng.standard_normal(n), LpParams(k + 1.0, k))
    c = _slot_coefficients(u, symmetric)
    m = np.arange(k ** n, dtype=np.int64)[:, None]
    divisors = np.array([k ** (n - i) for i in range(1, n + 1)], dtype=np.int64)
    expected = c[None, :, :] * (np.exp(2j * np.pi / k) ** ((m // divisors) % k))[:, None, :]
    assert np.array_equal(averaging_decomposition(u, symmetric=symmetric), expected)


def test_decomposition_budget():
    u = DiagonalTensor(np.ones(25), LpParams(4.0, 2))
    with pytest.raises(BudgetError):
        averaging_decomposition(u)
    with pytest.raises(BudgetError):
        pi_upper_bound(u)


def test_dense_expansion_budget():
    with pytest.raises(BudgetError):
        dense_expansion(np.zeros((0, 4, 50), dtype=complex))


# ---------------------------------------------------------------------------
# Closed form and bounds
# ---------------------------------------------------------------------------

def test_closed_form_examples():
    for p, k in [(4.0, 2), (2.0, 2), (6.0, 3), (3.5, 3)]:
        assert pi_norm_closed_form(DiagonalTensor([1.0], LpParams(p, k))) == 1.0
    assert pi_norm_closed_form(DiagonalTensor([1, 1], LpParams(4.0, 2))) == \
        pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert pi_norm_closed_form(DiagonalTensor([1, 1], LpParams(2.0, 2))) == 2.0


def test_upper_bound_examples():
    assert pi_upper_bound(DiagonalTensor([1.0], LpParams(4.0, 2))) == \
        pytest.approx(1.0, rel=1e-14)
    u = DiagonalTensor([1, 1], LpParams(4.0, 2))
    assert pi_upper_bound(u) == pytest.approx(pi_norm_closed_form(u), rel=1e-12)
    u2 = DiagonalTensor([2, 1], LpParams(6.0, 2))
    assert pi_upper_bound(u2) == pytest.approx(9.0 ** (1.0 / 3.0), rel=1e-12)


def bruteforce_upper_bound(u, symmetric):
    """Max over the pieces of the product of the slots' l_p norms."""
    slots = averaging_decomposition(u, symmetric=symmetric)
    norms = np.sum(np.abs(slots) ** u.params.p, axis=2) ** (1.0 / u.params.p)
    return float(np.max(np.prod(norms, axis=1)))


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_upper_bound_matches_bruteforce_over_pieces(k, symmetric):
    rng = np.random.default_rng([84, k])
    # n = 8 at k = 5 is left out: its 390,625 pieces take 250 MB as one array
    for n in range(1, 9 if k < 5 else 8):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for p in (k + 0.5, 2.0 * k):
            u = DiagonalTensor(a, LpParams(p, k))
            assert pi_upper_bound(u, symmetric=symmetric) == \
                pytest.approx(bruteforce_upper_bound(u, symmetric), rel=1e-14, abs=0)


@pytest.mark.parametrize("largest", ["first", "last"])
@pytest.mark.parametrize("k, n", [(2, 13), (3, 8), (4, 7), (5, 6)])
def test_upper_bound_visits_every_piece(k, n, largest, monkeypatch):
    # Step values of unequal moduli make the pieces' products differ: the
    # first or the last piece (digits all 0 or all k-1) gives the largest, so
    # a piece the chunked walk over k^n > _CHUNK pieces skips would show.
    moduli = np.arange(k, 0, -1.0) if largest == "first" else np.arange(1.0, k + 1)
    monkeypatch.setattr("oadiag.diagonal._step_values",
                        lambda k: moduli * np.exp(2j * np.pi / k) ** np.arange(k))
    rng = np.random.default_rng([86, k])
    u = DiagonalTensor(rng.standard_normal(n) + 1j * rng.standard_normal(n), LpParams(k + 0.5, k))
    assert pi_upper_bound(u) == pytest.approx(bruteforce_upper_bound(u, True), rel=1e-14, abs=0)


@pytest.mark.parametrize("symmetric", [True, False])
def test_upper_bound_at_the_largest_piece_count(symmetric):
    # 2^19 pieces, the largest k = 2 enumeration under MAX_PIECES
    rng = np.random.default_rng(85)
    u = DiagonalTensor(rng.standard_normal(19) + 1j * rng.standard_normal(19), LpParams(5.0, 2))
    assert pi_upper_bound(u, symmetric=symmetric) == \
        pytest.approx(pi_norm_closed_form(u), rel=1e-12, abs=0)


def test_dual_form_examples():
    b = build_dual_form(DiagonalTensor([1, 1], LpParams(4.0, 2))).b
    assert np.allclose(b, [1, 1])
    b = build_dual_form(DiagonalTensor([4, 0], LpParams(4.0, 2))).b
    assert np.allclose(b, [4, 0])
    b = build_dual_form(DiagonalTensor([-1, 1], LpParams(2.0, 2))).b
    assert np.allclose(b, [-1, 1])


def test_lower_bound_examples():
    assert pi_lower_bound(DiagonalTensor([1.0], LpParams(4.0, 2))) == \
        pytest.approx(1.0, rel=1e-14)
    assert pi_lower_bound(DiagonalTensor([1, 1], LpParams(4.0, 2))) == \
        pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert pi_lower_bound(DiagonalTensor([3, 4], LpParams(2.0, 2))) == 7.0


def test_pair_examples():
    prm = LpParams(4.0, 2)
    u = DiagonalTensor([1, 1], prm)
    assert pair(u, DualDiagonalForm(np.array([1, 1]), prm)) == 2
    assert pair(DiagonalTensor([1, 0], prm), DualDiagonalForm(np.array([0, 1]), prm)) == 0
    assert pair(DiagonalTensor([2, -1], prm), DualDiagonalForm(np.array([1, 1]), prm)) == 1


def test_pair_dimension_mismatch():
    prm = LpParams(4.0, 2)
    with pytest.raises(ValueError):
        pair(DiagonalTensor([1, 2], prm), DualDiagonalForm(np.array([1]), prm))


def test_sandwich_seeded():
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        k = int(rng.choice([2, 3, 4]))
        p = float(rng.choice([k + 0.5, k + 1.0, 2.0 * k]))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = DiagonalTensor(a, LpParams(p, k))
        lo, cf, up = pi_lower_bound(u), pi_norm_closed_form(u), pi_upper_bound(u)
        assert lo <= cf * (1 + 1e-10)
        assert cf <= up * (1 + 1e-10)
        assert abs(lo - cf) <= 1e-10 * cf
        assert abs(up - cf) <= 1e-10 * cf


def test_l1_regime_is_exact_for_real_coefficients():
    rng = np.random.default_rng(78)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        k = int(rng.choice([2, 3, 4]))
        p = float(rng.choice([1.0, (1.0 + k) / 2.0, float(k)]))
        a = rng.standard_normal(n)
        u = DiagonalTensor(a, LpParams(p, k))
        cf = pi_norm_closed_form(u)
        assert pi_lower_bound(u) == cf
        assert pi_upper_bound(u) == pytest.approx(cf, rel=1e-12)


def test_homogeneity():
    rng = np.random.default_rng(79)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for p, k in [(5.0, 2), (2.0, 3)]:
        u = DiagonalTensor(a, LpParams(p, k))
        scaled = DiagonalTensor(3.5 * a, LpParams(p, k))
        assert pi_norm_closed_form(scaled) == \
            pytest.approx(3.5 * pi_norm_closed_form(u), rel=1e-14)


def test_permutation_invariance_exact():
    rng = np.random.default_rng(80)
    a = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    for p, k in [(5.0, 2), (2.0, 2), (7.0, 3)]:
        u = DiagonalTensor(a, LpParams(p, k))
        shuffled = DiagonalTensor(a[rng.permutation(7)], LpParams(p, k))
        assert pi_norm_closed_form(u) == pi_norm_closed_form(shuffled)


def test_holder_certificate():
    # |B(x_1,...,x_k)| <= ||B||_bound over 10^4 unit-ball argument tuples
    rng = np.random.default_rng(81)
    for p, k, n in [(5.0, 2, 4), (2.0, 2, 4), (4.5, 3, 3), (1.0, 4, 3)]:
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = DiagonalTensor(a, LpParams(p, k))
        form = build_dual_form(u)
        bound = form.norm_bound()
        worst = 0.0
        for _ in range(2500):
            xs = []
            for _ in range(k):
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                x /= max(lq_norm(x, p), 1e-300)
                xs.append(x)
            worst = max(worst, abs(form.apply(xs)))
        assert worst <= bound + 1e-12


def test_zero_tensor_norms():
    u = DiagonalTensor([0.0, 0.0], LpParams(4.0, 2))
    assert pi_norm_closed_form(u) == 0.0
    assert pi_lower_bound(u) == 0.0
    assert pi_upper_bound(u) == 0.0


def test_diagonal_tensor_validation():
    with pytest.raises(ValueError):
        DiagonalTensor([1.0], LpParams(4.0, 1))
    with pytest.raises(ValueError):
        DiagonalTensor([float("nan")], LpParams(4.0, 2))
