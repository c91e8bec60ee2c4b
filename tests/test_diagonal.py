import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oadiag.diagonal import (
    _BLOCK_ENTRIES,
    _CHUNK,
    DiagonalTensor,
    _phase_expansion,
    _step_values,
    averaging_decomposition,
    build_dual_form,
    dense_expansion,
    factored_expansion,
    pair,
    pi_lower_bound,
    pi_norm_closed_form,
    pi_upper_bound,
    _expand_block,
    _pairwise_sum,
    _slot_coefficients,
)
from oadiag.numerics import BudgetError, LpParams, lq_norm, phase
from oadiag.oapoly import OrthAddPolynomial, extend_diagonal_functional, norm_closed_form
from oadiag.rademacher import GeneralizedRademacher


def draw_coefficients(rng, n, complex_coeffs):
    """n standard normal coefficients, with standard normal imaginary parts
    drawn after the real ones for complex_coeffs."""
    a = rng.standard_normal(n)
    return a + 1j * rng.standard_normal(n) if complex_coeffs else a


def reconstruction_defects(a, params, factored=False):
    """Max off-diagonal magnitude and max diagonal error of the expansion,
    the dense expansion of the decomposition or, for factored = True, the
    factored one that the sweep uses."""
    u = DiagonalTensor(a, params)
    n = u.dim
    tensor = factored_expansion(u) if factored else dense_expansion(u)
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
    pieces = averaging_decomposition(u)
    assert pieces.shape == (2, 1)  # pieces, coordinates
    signs = sorted(round(x.real) for x in pieces[:, 0])
    assert signs == [-1, 1]
    tensor = dense_expansion(u)
    # every piece carries weight 1/2
    weighted = sum(0.5 * np.multiply.outer(x, x) for x in pieces)
    assert np.array_equal(tensor, weighted)
    assert abs(tensor[0, 0] - 1.0) < 1e-15


def test_two_coefficient_cancellation_is_exact_scale():
    u = DiagonalTensor([1.0, 1.0], LpParams(4.0, 2))
    assert averaging_decomposition(u).shape == (4, 2)
    tensor = dense_expansion(u)
    assert abs(tensor[0, 1]) < 1e-15
    assert abs(tensor[1, 0]) < 1e-15
    assert tensor[0, 0] == pytest.approx(1.0, rel=1e-14)
    assert tensor[1, 1] == pytest.approx(1.0, rel=1e-14)


def test_degree_three_decomposition_matches_signed_diagonal():
    a = np.array([1.0, -1.0])
    u = DiagonalTensor(a, LpParams(4.0, 3))
    assert averaging_decomposition(u).shape == (9, 2)
    off, diag = reconstruction_defects(a, LpParams(4.0, 3))
    assert off <= 1e-12 * np.sum(np.abs(a))
    assert diag <= 1e-12


@pytest.mark.parametrize("factored", [True, False])
@pytest.mark.parametrize("complex_coeffs", [False, True])
def test_reconstruction_seeded(factored, complex_coeffs):
    rng = np.random.default_rng(202)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        k = int(rng.choice([2, 3]))
        p = float(rng.choice([k + 0.5, k + 1.0, 2.0 * k, 1.0, float(k)]))
        a = draw_coefficients(rng, n, complex_coeffs)
        off, diag = reconstruction_defects(a, LpParams(p, k), factored)
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
    tensor = dense_expansion(u)
    assert tensor.shape == (1,) * 60
    assert abs(tensor.reshape(-1)[0] + 2.0) < 1e-12


@pytest.mark.parametrize("complex_coeffs", [True, False])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 60])
def test_decomposition_equals_complex_powers_bitwise(k, complex_coeffs):
    # piece m, i = c[i] * exp(2 pi i d / k), d the level-(i+1) base-k digit of m
    rng = np.random.default_rng([83, k])
    n = 1 if k > 7 else 4
    u = DiagonalTensor(draw_coefficients(rng, n, complex_coeffs), LpParams(k + 1.0, k))
    c = _slot_coefficients(u.coeffs, k)
    assert c.shape == (n,)
    m = np.arange(k ** n, dtype=np.int64)[:, None]
    divisors = np.array([k ** (n - i) for i in range(1, n + 1)], dtype=np.int64)
    piece = c * np.exp(2j * np.pi * ((m // divisors) % k) / k)
    pieces = averaging_decomposition(u)
    assert pieces.shape == (k ** n, n) and np.array_equal(pieces, piece)
    assert pieces.flags.writeable and pieces.flags.c_contiguous and pieces.flags.owndata


@pytest.mark.parametrize("k, n", [(2, 5), (3, 4), (4, 3), (5, 2)])
def test_pieces_are_the_rademacher_average(k, n):
    # piece m is x(t) = sum_i c[i] r_(i+1)(t) e_i on [m / k^n, (m + 1) / k^n)
    rng = np.random.default_rng([87, k])
    u = DiagonalTensor(draw_coefficients(rng, n, True), LpParams(k + 1.0, k))
    exponents = np.array([[GeneralizedRademacher(k, i + 1).eval(Fraction(m, k ** n))
                           for i in range(n)] for m in range(k ** n)])
    # one array product, as numpy's vectorised complex product may round a
    # last bit otherwise than its scalar one
    expected = _slot_coefficients(u.coeffs, k) * _step_values(k)[exponents]
    assert np.array_equal(averaging_decomposition(u), expected)


def test_decomposition_budget():
    u = DiagonalTensor(np.ones(25), LpParams(4.0, 2))
    with pytest.raises(BudgetError):
        averaging_decomposition(u)
    with pytest.raises(BudgetError):
        pi_upper_bound(u)


def test_dense_expansion_budget():
    with pytest.raises(BudgetError, match="dense expansion entry"):  # 7^6 entries
        dense_expansion(DiagonalTensor(np.ones(7), LpParams(8.0, 6)))
    with pytest.raises(BudgetError, match="dense tensor degree"):  # 64 axes
        dense_expansion(DiagonalTensor(np.ones(1), LpParams(65.0, 64)))


def einsum_expansion(pieces, k):
    """The expansion as one einsum over every piece: piece axis 0 is summed,
    factor j becomes output axis j."""
    axes = list(range(1, k + 1))
    return np.einsum(*[x for j in axes for x in (pieces, [0, j])], axes) / len(pieces)


def outer_power(row, k):
    """row (x) ... (x) row, k factors."""
    outer = row
    for _ in range(k - 1):
        outer = np.multiply.outer(outer, row)
    return outer


# 2, 7, 14 and 31 blocks: the block size is min(4096, 2^16 // n^(k-1)) pieces
EXPANSION_SHAPES = [(2, 13), (3, 8), (4, 6), (5, 5)]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="needs a long double more precise than double")
@pytest.mark.parametrize("complex_coeffs", [True, False])
@pytest.mark.parametrize("k, n", EXPANSION_SHAPES)
def test_gemm_expansion_matches_einsum_formula(k, n, complex_coeffs):
    # The einsum, run in extended precision, is the reference; the scale is
    # the expansion of the entries' moduli, the sum|terms| of the error bound.
    rng = np.random.default_rng([91, k, n])
    u = DiagonalTensor(draw_coefficients(rng, n, complex_coeffs), LpParams(k + 1.0, k))
    pieces = averaging_decomposition(u)
    reference = einsum_expansion(pieces.astype(np.clongdouble), k)
    scale = einsum_expansion(np.abs(pieces), k)
    assert np.max(np.abs(dense_expansion(u) - reference) / scale) <= 1e-14


@pytest.mark.parametrize("complex_coeffs", [True, False])
@pytest.mark.parametrize("k, n", EXPANSION_SHAPES + [(2, 3), (60, 1)])
def test_streamed_expansion_equals_array_expansion(k, n, complex_coeffs):
    rng = np.random.default_rng([92, k, n])
    u = DiagonalTensor(draw_coefficients(rng, n, complex_coeffs), LpParams(k + 1.0, k))
    # the stream's blocks are the rows of the one array, each taken once
    pieces = averaging_decomposition(u)
    block = max(1, min(_CHUNK, _BLOCK_ENTRIES // n ** (k - 1)))
    partials = (_expand_block(pieces[start:start + block], k)
                for start in range(0, k ** n, block))
    array_expansion = (_pairwise_sum(partials) / k ** n).reshape((n,) * k)
    assert np.array_equal(dense_expansion(u), array_expansion)


def test_streamed_expansion_memory_at_the_largest_piece_count():
    # 2^19 pieces: the (k^n, n) array alone would take 159 MB.
    rng = np.random.default_rng(93)
    a = rng.standard_normal(19) + 1j * rng.standard_normal(19)
    u = DiagonalTensor(a, LpParams(5.0, 2))
    tracemalloc.start()
    try:
        tensor = dense_expansion(u)
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
    monkeypatch.setattr("oadiag.diagonal._slot_coefficients", no_pieces)
    for build in (averaging_decomposition, dense_expansion):
        with pytest.raises(BudgetError):  # 2^25 pieces
            build(DiagonalTensor(np.ones(25), LpParams(4.0, 2)))
    with pytest.raises(BudgetError):  # 6^7 pieces in budget, 7^6 entries not
        dense_expansion(DiagonalTensor(np.ones(7), LpParams(8.0, 6)))
    with pytest.raises(BudgetError):  # 64^1 pieces and 1 entry in budget, 64 axes not
        dense_expansion(DiagonalTensor(np.ones(1), LpParams(65.0, 64)))


@pytest.mark.parametrize("complex_coeffs", [True, False])
@pytest.mark.parametrize("k, n", EXPANSION_SHAPES + [(2, 3), (60, 1)])
def test_factored_expansion_matches_streamed_expansion(k, n, complex_coeffs):
    # Both are within a few unit roundoffs of the exact expansion, relative
    # to the expansion of the entries' moduli.
    rng = np.random.default_rng([94, k, n])
    u = DiagonalTensor(draw_coefficients(rng, n, complex_coeffs), LpParams(k + 1.0, k))
    # every piece has the moduli |c|, so the expansion of the moduli is |c|^(x)k
    scale = outer_power(np.abs(_slot_coefficients(u.coeffs, k)), k)
    factored = factored_expansion(u)
    assert factored.shape == (n,) * k
    assert np.max(np.abs(factored - dense_expansion(u)) / scale) <= 1e-14


def test_factored_expansion_checks_budgets_before_any_coefficient(monkeypatch):
    def no_coefficients(*args):
        raise AssertionError("a slot coefficient was formed")

    monkeypatch.setattr("oadiag.diagonal._slot_coefficients", no_coefficients)
    with pytest.raises(BudgetError):  # 6^7 pieces in budget, 7^6 entries not
        factored_expansion(DiagonalTensor(np.ones(7), LpParams(8.0, 6)))
    with pytest.raises(BudgetError):  # 2^25 pieces
        factored_expansion(DiagonalTensor(np.ones(25), LpParams(4.0, 2)))
    with pytest.raises(BudgetError):  # 64 axes
        factored_expansion(DiagonalTensor(np.ones(1), LpParams(65.0, 64)))


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


def bruteforce_upper_bound(u):
    """Max over the pieces x_m of ||x_m||_p^k."""
    pieces = averaging_decomposition(u)
    norms = np.sum(np.abs(pieces) ** u.params.p, axis=1) ** (1.0 / u.params.p)
    return float(np.max(norms ** u.params.k))


@pytest.mark.parametrize("complex_coeffs", [True, False])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_upper_bound_matches_bruteforce_over_pieces(k, complex_coeffs):
    rng = np.random.default_rng([84, k])
    # n = 8 at k = 5: 390,625 pieces, 50 MB as one array
    for n in range(1, 9):
        a = draw_coefficients(rng, n, complex_coeffs)
        for p in (k + 0.5, 2.0 * k):
            u = DiagonalTensor(a, LpParams(p, k))
            assert pi_upper_bound(u) == pytest.approx(bruteforce_upper_bound(u), rel=1e-14, abs=0)


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
    assert pi_upper_bound(u) == pytest.approx(bruteforce_upper_bound(u), rel=1e-14, abs=0)


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


@pytest.mark.parametrize("p", [1e19, 1e20, 1e300])
def test_upper_bound_at_a_huge_exponent(p):
    # A complex |a_i / max|a|| may round to 1 + 2u at the top; raised to the
    # p-th power it went to 0 or past the float range from p of about 5e18.
    rng = np.random.default_rng(96)
    for k in (2, 3):
        for a in ([1 + 2j, 0.5 - 1j, 3j], rng.standard_normal(5) + 1j * rng.standard_normal(5)):
            u = DiagonalTensor(a, LpParams(p, k))
            upper, closed = pi_upper_bound(u), pi_norm_closed_form(u)
            assert math.isfinite(upper)
            assert abs(upper - closed) <= 1e-12 * closed


@pytest.mark.parametrize("complex_coeffs", [True, False])
def test_upper_bound_at_the_largest_piece_count(complex_coeffs):
    # 2^19 pieces, the largest k = 2 enumeration under MAX_PIECES
    rng = np.random.default_rng(85)
    u = DiagonalTensor(draw_coefficients(rng, 19, complex_coeffs), LpParams(5.0, 2))
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
    # k = 1030, n = 2: each of a piece's k slot power sums is 2, so their
    # product, 2^1030, is past the float range; the bound raises the one
    # sum to k/p instead, and stays finite and sharp
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
        assert bounds.pop() == pytest.approx(bruteforce_upper_bound(u), rel=1e-14, abs=0)


def test_dual_form_examples():
    b = build_dual_form(DiagonalTensor([1, 1], LpParams(4.0, 2))).coeffs
    assert np.allclose(b, [1, 1])
    b = build_dual_form(DiagonalTensor([4, 0], LpParams(4.0, 2))).coeffs
    assert np.allclose(b, [4, 0])
    b = build_dual_form(DiagonalTensor([-1, 1], LpParams(2.0, 2))).coeffs
    assert np.allclose(b, [-1, 1])


def test_lower_bound_examples():
    assert pi_lower_bound(DiagonalTensor([1.0], LpParams(4.0, 2))) == \
        pytest.approx(1.0, rel=1e-14)
    assert pi_lower_bound(DiagonalTensor([1, 1], LpParams(4.0, 2))) == \
        pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert pi_lower_bound(DiagonalTensor([3, 4], LpParams(2.0, 2))) == 7.0


@pytest.mark.parametrize("p", [1.4e19, 1e20, 1e300])
def test_lower_bound_keeps_its_top_dual_coefficient_at_huge_p(p):
    # the scaled top modulus |3e-301i| / 3e-301 rounds to 1 - u, whose power
    # p/k - 1 underflows to 0 unless the moduli are divided by their largest
    u = DiagonalTensor([1e-300, 3e-301j], LpParams(p, 2))
    closed = pi_norm_closed_form(u)
    assert abs(pi_lower_bound(u) - closed) <= 1e-12 * closed


@pytest.mark.parametrize("coeffs, p, k", [
    ([1.482e-323 + 1.482e-323j, 9.881e-323 + 8.893e-323j], 3.0, 3),
    ([3.97e-321 + 3.656e-321j], 1.0, 4),
])
def test_lower_bound_at_subnormal_moduli(coeffs, p, k):
    # p <= k: the pairing with the phases is the l_1 sum of the moduli, which
    # abs rounds to the subnormal grid unless the coefficients are scaled
    # first; the exact sum is formed at scale 2^600, in the normal range
    for z in coeffs:
        assert abs(abs(phase(z)) - 1.0) <= 4e-16
    exact = math.fsum(abs(z * 2.0 ** 600) for z in coeffs) * 2.0 ** -600
    assert abs(pi_lower_bound(DiagonalTensor(coeffs, LpParams(p, k))) - exact) <= math.ulp(0.0)


def test_pair_examples():
    prm = LpParams(4.0, 2)
    u = DiagonalTensor([1, 1], prm)
    assert pair(u, OrthAddPolynomial(np.array([1, 1]), prm)) == 2
    assert pair(DiagonalTensor([1, 0], prm), OrthAddPolynomial(np.array([0, 1]), prm)) == 0
    assert pair(DiagonalTensor([2, -1], prm), OrthAddPolynomial(np.array([1, 1]), prm)) == 1


def test_pair_dimension_mismatch():
    prm = LpParams(4.0, 2)
    with pytest.raises(ValueError):
        pair(DiagonalTensor([1, 2], prm), OrthAddPolynomial(np.array([1]), prm))


def test_pair_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        pair(DiagonalTensor([1, 1], LpParams(4.0, 2)), OrthAddPolynomial([1, 1], LpParams(4.0, 3)))


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
    # |B(x_1,...,x_k)| <= ||P|| for the diagonal k-linear form B of each dual
    # polynomial P, over every tuple of equal basis vectors and 2500 random
    # unit-ball argument tuples; the last P has max|c| > 1 at p <= k
    rng = np.random.default_rng(81)
    polys = []
    for p, k, n in [(5.0, 2, 4), (2.0, 2, 4), (4.5, 3, 3), (1.0, 4, 3)]:
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        polys.append(build_dual_form(DiagonalTensor(a, LpParams(p, k))))
    polys.append(OrthAddPolynomial([5.0, 0.5], LpParams(1.0, 2)))
    for poly in polys:
        p, k, n = poly.params.p, poly.params.k, poly.dim
        form = extend_diagonal_functional(poly.coeffs, poly.params)
        bound = norm_closed_form(poly)
        worst = max(abs(form.apply([e] * k)) for e in np.eye(n))
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
