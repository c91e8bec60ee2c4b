import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from oadiag.diagonal import (
    DiagonalTensor,
    DualDiagonalForm,
    _Pieces,
    _phase_expansion,
    averaging_decomposition,
    build_dual_form,
    dense_expansion,
    factored_expansion,
    pair,
    pi_lower_bound,
    pi_norm_closed_form,
    pi_upper_bound,
    _slot_coefficients,
)
from oadiag.numerics import BudgetError, LpParams, lq_norm


def asymmetric_slot_coefficients(u):
    """Another factorization prod_j c[j, i] = a_i: the phase of a_i in slot
    0 and the plain modulus root in the others, two runs of equal rows."""
    a, k = u.coeffs, u.params.k
    radial = np.abs(a) ** (1.0 / k)
    angle = np.arctan2(a.imag, a.real, out=np.zeros(u.dim), where=a != 0)
    return np.vstack([(np.cos(angle) + 1j * np.sin(angle)) * radial,
                      np.broadcast_to(radial, (k - 1, u.dim))])


@contextlib.contextmanager
def slot_rows(symmetric):
    """Decompose with the library's k equal slot rows, or, for symmetric =
    False, with the asymmetric split patched in: the pieces, the expansions
    and the upper bound take any rows whose product is a."""
    with pytest.MonkeyPatch.context() as patch:
        if not symmetric:
            patch.setattr("oadiag.diagonal._slot_coefficients", asymmetric_slot_coefficients)
        yield


def reconstruction_defects(a, params, symmetric=True):
    """Max off-diagonal magnitude and max diagonal error of the expansion."""
    u = DiagonalTensor(a, params)
    n = u.dim
    with slot_rows(symmetric):
        tensor = dense_expansion(averaging_decomposition(u))
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
    off, diag = reconstruction_defects(a, LpParams(4.0, 3))
    assert off <= 1e-12 * np.sum(np.abs(a))
    assert diag <= 1e-12


def test_symmetric_variant_has_equal_slots():
    u = DiagonalTensor([2.0, -3.0, 1.5], LpParams(5.0, 3))
    for piece in averaging_decomposition(u):
        for slot in piece[1:]:
            assert np.array_equal(slot, piece[0])


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
    off, diag = reconstruction_defects(a, LpParams(6.0, 3))
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
    # slot m, j, i = c[j, i] * exp(2 pi i d / k), d the level-(i+1) base-k digit of m
    rng = np.random.default_rng([83, k])
    n = 1 if k > 7 else 4
    u = DiagonalTensor(rng.standard_normal(n) + 1j * rng.standard_normal(n), LpParams(k + 1.0, k))
    c = _slot_coefficients(u) if symmetric else asymmetric_slot_coefficients(u)
    m = np.arange(k ** n, dtype=np.int64)[:, None]
    divisors = np.array([k ** (n - i) for i in range(1, n + 1)], dtype=np.int64)
    expected = c[None, :, :] * np.exp(2j * np.pi * ((m // divisors) % k) / k)[:, None, :]
    with slot_rows(symmetric):
        assert np.array_equal(averaging_decomposition(u), expected)


def test_decomposition_budget():
    u = DiagonalTensor(np.ones(25), LpParams(4.0, 2))
    with pytest.raises(BudgetError):
        averaging_decomposition(u)
    with pytest.raises(BudgetError):
        pi_upper_bound(u)


def test_dense_expansion_budget():
    with pytest.raises(BudgetError):
        dense_expansion(np.zeros((0, 4, 50), dtype=complex))


def einsum_expansion(slots):
    """The expansion as one einsum over every piece: piece axis 0 is summed,
    slot j becomes output axis j + 1."""
    pieces, k, n = slots.shape
    axes = list(range(1, k + 1))
    return np.einsum(*[x for j in axes for x in (slots[:, j - 1], [0, j])], axes) / pieces


# 2, 7, 14 and 31 blocks: the block size is min(4096, 2^16 // n^(k-1)) pieces
EXPANSION_SHAPES = [(2, 13), (3, 8), (4, 6), (5, 5)]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="needs a long double more precise than double")
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("k, n", EXPANSION_SHAPES)
def test_gemm_expansion_matches_einsum_formula(k, n, symmetric):
    # The einsum, run in extended precision, is the reference; the scale is
    # the expansion of the entries' moduli, the sum|terms| of the error bound.
    rng = np.random.default_rng([91, k, n])
    u = DiagonalTensor(rng.standard_normal(n) + 1j * rng.standard_normal(n), LpParams(k + 1.0, k))
    with slot_rows(symmetric):
        slots = averaging_decomposition(u)
    reference = einsum_expansion(slots.astype(np.clongdouble))
    scale = einsum_expansion(np.abs(slots)).real
    assert np.max(np.abs(dense_expansion(slots) - reference) / scale) <= 1e-14


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("k, n", EXPANSION_SHAPES + [(2, 3), (60, 1)])
def test_streamed_expansion_equals_array_expansion(k, n, symmetric):
    rng = np.random.default_rng([92, k, n])
    u = DiagonalTensor(rng.standard_normal(n) + 1j * rng.standard_normal(n), LpParams(k + 1.0, k))
    with slot_rows(symmetric):
        pieces = _Pieces(u)
        assert pieces.shape == (k ** n, k, n)
        assert np.array_equal(pieces[5:17], averaging_decomposition(u)[5:17])
        assert np.array_equal(dense_expansion(pieces), dense_expansion(averaging_decomposition(u)))


def test_streamed_expansion_memory_at_the_largest_piece_count():
    # 2^19 pieces: the (k^n, k, n) array alone is 319 MB, and the array route
    # peaks at about 460 MB of traced numpy buffers.
    rng = np.random.default_rng(93)
    a = rng.standard_normal(19) + 1j * rng.standard_normal(19)
    u = DiagonalTensor(a, LpParams(5.0, 2))
    tracemalloc.start()
    try:
        tensor = dense_expansion(_Pieces(u))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert np.max(np.abs(np.diag(tensor) - a)) <= 1e-12 * np.max(np.abs(a))
    assert np.max(np.abs(tensor - np.diag(np.diag(tensor)))) <= 1e-12 * np.sum(np.abs(a))


def test_budgets_are_checked_before_any_piece_is_built(monkeypatch):
    def no_pieces(*args):
        raise AssertionError("a piece was built")

    monkeypatch.setattr("oadiag.diagonal._step_values", no_pieces)
    with pytest.raises(BudgetError):  # 2^25 pieces
        _Pieces(DiagonalTensor(np.ones(25), LpParams(4.0, 2)))
    monkeypatch.undo()
    pieces = _Pieces(DiagonalTensor(np.ones(7), LpParams(8.0, 6)))
    monkeypatch.setattr(_Pieces, "__getitem__", no_pieces)
    with pytest.raises(BudgetError):  # 6^7 pieces in budget, 7^6 entries not
        dense_expansion(pieces)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("k, n", EXPANSION_SHAPES + [(2, 3), (60, 1)])
def test_factored_expansion_matches_streamed_expansion(k, n, symmetric):
    # Both are within a few unit roundoffs of the exact expansion, relative
    # to the expansion of the entries' moduli.
    rng = np.random.default_rng([94, k, n])
    u = DiagonalTensor(rng.standard_normal(n) + 1j * rng.standard_normal(n), LpParams(k + 1.0, k))
    with slot_rows(symmetric):
        scale = dense_expansion(np.abs(averaging_decomposition(u)))
        factored = factored_expansion(u)
        assert factored.shape == (n,) * k
        assert np.max(np.abs(factored - dense_expansion(_Pieces(u))) / scale) <= 1e-14


def test_factored_expansion_checks_budgets_before_any_coefficient(monkeypatch):
    def no_coefficients(*args):
        raise AssertionError("a slot coefficient was formed")

    monkeypatch.setattr("oadiag.diagonal._slot_coefficients", no_coefficients)
    with pytest.raises(BudgetError):  # 6^7 pieces in budget, 7^6 entries not
        factored_expansion(DiagonalTensor(np.ones(7), LpParams(8.0, 6)))
    with pytest.raises(BudgetError):  # 2^25 pieces
        factored_expansion(DiagonalTensor(np.ones(25), LpParams(4.0, 2)))


def test_phase_expansion_is_cached_read_only():
    phases = _phase_expansion(3, 4)
    assert _phase_expansion(3, 4) is phases
    assert not phases.flags.writeable
    with pytest.raises(ValueError):
        phases[0, 0, 0] = 0.0
    tensor = factored_expansion(DiagonalTensor([1.0, -2.0, 0.5, 3.0], LpParams(4.0, 3)))
    assert tensor.flags.writeable and not np.shares_memory(tensor, phases)


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
    with slot_rows(symmetric):
        slots = averaging_decomposition(u)
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
            with slot_rows(symmetric):
                upper = pi_upper_bound(u)
            assert upper == pytest.approx(bruteforce_upper_bound(u, symmetric), rel=1e-14, abs=0)


@pytest.mark.parametrize("largest", ["first", "last"])
@pytest.mark.parametrize("k, n", [(2, 13), (3, 8), (4, 7), (5, 6)])
def test_upper_bound_visits_every_piece(k, n, largest, monkeypatch):
    # Step values of unequal moduli make the pieces' products differ: the
    # first or the last piece (digits all 0 or all k-1) gives the largest, so
    # a piece the chunked walk over k^n > _CHUNK pieces skips would show.
    moduli = np.arange(k, 0, -1.0) if largest == "first" else np.arange(1.0, k + 1)
    monkeypatch.setattr("oadiag.diagonal._step_values",
                        lambda k, dtype=complex: moduli * np.exp(2j * np.pi / k) ** np.arange(k))
    rng = np.random.default_rng([86, k])
    u = DiagonalTensor(rng.standard_normal(n) + 1j * rng.standard_normal(n), LpParams(k + 0.5, k))
    assert pi_upper_bound(u) == pytest.approx(bruteforce_upper_bound(u, True), rel=1e-14, abs=0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("k, p, coeff", [(10 ** 6, 2e6, 1.0), (2000, 2001.0, 3.0),
                                         (10 ** 5, 100001.0, 1.0)])
def test_upper_bound_at_the_largest_degree(k, p, coeff):
    # |omega^d|^p in float64 errs by about p u (4.4e-10 at p = 2e6), past the
    # 1e-10 sandwich tolerance; the long double table errs by about p u_long.
    u = DiagonalTensor(np.array([coeff]), LpParams(p, k))
    closed = pi_norm_closed_form(u)
    assert abs(pi_upper_bound(u) - closed) <= 1e-12 * closed


@pytest.mark.parametrize("symmetric", [True, False])
def test_upper_bound_at_the_largest_piece_count(symmetric):
    # 2^19 pieces, the largest k = 2 enumeration under MAX_PIECES
    rng = np.random.default_rng(85)
    u = DiagonalTensor(rng.standard_normal(19) + 1j * rng.standard_normal(19), LpParams(5.0, 2))
    with slot_rows(symmetric):
        assert pi_upper_bound(u) == pytest.approx(pi_norm_closed_form(u), rel=1e-12, abs=0)


def test_upper_bound_at_the_widest_slot_count():
    # k = 1000, n = 2: k^n = 10^6 pieces, the most slots MAX_PIECES admits at
    # n >= 2, and a product of slot sums of up to 2^1000
    u = DiagonalTensor([1.0, -1.0], LpParams(1001.0, 1000))
    tracemalloc.start()
    try:
        upper = pi_upper_bound(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert abs(upper - pi_norm_closed_form(u)) <= 1e-10 * pi_norm_closed_form(u)


def test_upper_bound_past_the_float_range_of_the_product(monkeypatch):
    # k = 1030, n = 2: every piece's product of slot sums is 2^1030, past the
    # float range, and the bound stays finite and sharp
    monkeypatch.setattr("oadiag.diagonal.MAX_PIECES", 2 * 10 ** 6)
    u = DiagonalTensor([1.0, -1.0], LpParams(1031.0, 1030))
    upper = pi_upper_bound(u)
    assert math.isfinite(upper)
    assert abs(upper - pi_norm_closed_form(u)) <= 1e-10 * pi_norm_closed_form(u)


def test_upper_bound_memory_at_one_coordinate():
    # n = 1, k = 2000: a k x k table of moduli alone would take 32 MB
    u = DiagonalTensor([3.0], LpParams(2001.0, 2000))
    tracemalloc.start()
    try:
        upper = pi_upper_bound(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    lower, closed = pi_lower_bound(u), pi_norm_closed_form(u)
    assert lower <= closed * (1 + 1e-10) and closed <= upper * (1 + 1e-10)
    assert abs(upper - closed) <= 1e-10 * closed


@pytest.mark.parametrize("pattern", [(0, 1, 2), (0, 1, 2, 3), (0, 0, 1, 0)])
def test_upper_bound_with_a_distinct_row_per_slot(pattern, monkeypatch):
    # The decomposition's slot rows are all equal, and the asymmetric split
    # has two runs; slot j here takes random row pattern[j], so the bound
    # forms up to k power sums per piece, with unequal weights when a row
    # repeats.
    k, n = len(pattern), 5
    rng = np.random.default_rng([88, k])
    rows = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))[list(pattern)]
    a = np.prod(rows, axis=0)
    # the bound asks for the rows of a / max|a|: scale each row by the k-th root
    monkeypatch.setattr("oadiag.diagonal._slot_coefficients",
                        lambda u: rows * (abs(u.coeffs[0]) / abs(a[0])) ** (1.0 / k))
    u = DiagonalTensor(a, LpParams(k + 0.5, k))
    assert pi_upper_bound(u) == pytest.approx(bruteforce_upper_bound(u, True), rel=1e-14, abs=0)


@pytest.mark.parametrize("largest", ["first", "last"])
def test_upper_bound_visits_every_block(largest, monkeypatch):
    # As in test_upper_bound_visits_every_piece, the first or the last piece
    # gives the largest product, but the blocks are shrunk from one value up,
    # so the walk spans several blocks; the bound does not depend on their size.
    for k, n in [(2, 15), (3, 9), (4, 7)]:
        moduli = np.arange(k, 0, -1.0) if largest == "first" else np.arange(1.0, k + 1)
        monkeypatch.setattr("oadiag.diagonal._step_values",
                            lambda k, dtype=complex: moduli * np.exp(2j * np.pi / k) ** np.arange(k))
        rng = np.random.default_rng([87, k])
        u = DiagonalTensor(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                           LpParams(k + 0.5, k))
        bounds = set()
        for block in (1, 7, 1 << 10, 1 << 16):
            monkeypatch.setattr("oadiag.diagonal._BOUND_BLOCK", block)
            bounds.add(pi_upper_bound(u))
        assert len(bounds) == 1
        assert bounds.pop() == pytest.approx(bruteforce_upper_bound(u, True), rel=1e-14, abs=0)


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


def test_l1_upper_bound_equals_closed_form_bitwise_for_complex_coefficients():
    # p <= k: both are the l_1 sum of the same moduli
    rng = np.random.default_rng(90)
    for k in range(2, 6):
        for n in range(1, 9):
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for p in (1.0, (1.0 + k) / 2.0, float(k)):
                u = DiagonalTensor(a, LpParams(p, k))
                assert pi_upper_bound(u) == pi_norm_closed_form(u)


def test_l1_upper_bound_is_linear_in_n():
    # p <= k: one term norm per coefficient, with no dense basis vector each
    a = np.random.default_rng(89).standard_normal(20_000)
    u = DiagonalTensor(a, LpParams(2.0, 3))
    assert pi_upper_bound(u) == math.fsum(np.abs(a)) == pi_norm_closed_form(u)


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
