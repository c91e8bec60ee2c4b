import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oadiag.numerics import (
    LpParams,
    conjugate_exponent,
    ensure_finite,
    holder_conjugate,
    lq_norm,
    phase,
    phase_root,
)


def bisect_sqrt(target: float, iters: int = 100) -> float:
    """Independent square-root oracle: 100 bisection steps on t^2 - target."""
    lo, hi = 0.0, max(target, 1.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid * mid <= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("values, shape", [
    (2.5, (1,)),
    (1 - 2j, (1,)),
    (np.array(3.0), (1,)),
    ([1, -2, 3], (3,)),
    (np.empty(0), (0,)),
    (np.ones((2, 3), dtype=complex), (2, 3)),
])
def test_ensure_finite_returns_an_array_at_least_1d(values, shape):
    arr = ensure_finite(values)
    assert isinstance(arr, np.ndarray) and arr.shape == shape
    assert np.array_equal(arr.reshape(-1), np.asarray(values).reshape(-1))


@pytest.mark.parametrize("values", [
    math.nan,
    complex(1.0, math.inf),
    np.array(-math.inf),
    [1.0, math.nan, 2.0],
    [1 + 1j, complex(math.nan, 0.0)],
    [1 + 1j, complex(0.0, -math.inf)],
    np.array([[0.0, 1.0], [math.inf, 2.0]]),
])
def test_ensure_finite_rejects_nan_and_inf_in_either_part(values):
    with pytest.raises(ValueError, match=r"^non-finite entry \(NaN or Inf\) is not admitted$"):
        ensure_finite(values)


def test_lq_norm_examples():
    assert lq_norm([1, 0, 0], 2) == 1.0
    assert abs(lq_norm([1, 1], 2) - bisect_sqrt(2.0)) < 1e-14
    assert lq_norm([3, -4], math.inf) == 4.0


def test_lq_norm_empty_and_zero():
    assert lq_norm([], 2) == 0.0
    assert lq_norm([0.0, 0.0], 3.5) == 0.0


def test_lq_norm_rejects_quasinorm_and_nonfinite():
    with pytest.raises(ValueError):
        lq_norm([1, 2], 0.5)
    with pytest.raises(ValueError):
        lq_norm([1, float("nan")], 2)
    with pytest.raises(ValueError):
        lq_norm([float("inf")], 2)


# entries are zero or of normal magnitude: subnormal coordinates carry too few
# significand bits for any implementation to keep 1e-15 relative accuracy
finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(
    lambda x: x == 0.0 or abs(x) >= 1e-100)
small_vectors = st.lists(finite_floats, min_size=1, max_size=10).filter(
    lambda v: any(x != 0.0 for x in v))


@given(small_vectors, st.floats(min_value=1.0, max_value=20.0),
       st.floats(min_value=1e-4, max_value=1e4), st.sampled_from([-1.0, 1.0]))
@settings(max_examples=300)
def test_lq_norm_absolutely_homogeneous(v, q, mag, sign):
    # scale kept away from the subnormal range where |lam|^q underflows
    lam = sign * mag
    base = lq_norm(v, q)
    scaled = lq_norm([lam * x for x in v], q)
    assert scaled == pytest.approx(abs(lam) * base, rel=1e-15, abs=1e-280)


@given(small_vectors, st.floats(min_value=1.5, max_value=10.0))
@settings(max_examples=200)
def test_higher_exponent_norm_is_smaller(v, p):
    # ||x||_k <= ||x||_p whenever p <= k
    k = p + 3.0
    assert lq_norm(v, k) <= lq_norm(v, p) + 1e-12 * max(1.0, lq_norm(v, p))


@given(st.integers(min_value=1, max_value=10),
       st.floats(min_value=1.0, max_value=8.0),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=200)
def test_holder_pairing(n, q, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lhs = abs(np.sum(v * w))
    rhs = lq_norm(v, q) * lq_norm(w, holder_conjugate(q))
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_phase_root_examples():
    assert phase_root(1, 3) == 1
    s = phase_root(-1, 2)
    assert abs(s - 1j) < 1e-15
    assert abs(s * s + 1) < 1e-15
    # modulus handled separately: s^2 * |a| rebuilds a = -8
    s8 = phase_root(-8, 2)
    rebuilt = (s8 * math.sqrt(8.0)) ** 2
    assert abs(rebuilt - (-8)) < 1e-12 * 8


def test_phase_conventions_at_zero():
    assert phase(0) == 1
    assert phase_root(0, 5) == 1


@given(st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=300)
def test_phase_root_reconstruction(re, im, k):
    a = complex(re, im)
    rebuilt = (phase_root(a, k) * abs(a) ** (1.0 / k)) ** k
    assert abs(rebuilt - a) <= 1e-12 * max(abs(a), 1e-30)


def test_conjugate_exponent_examples():
    assert conjugate_exponent(4.0, 2) == 2.0
    assert conjugate_exponent(2.0, 2) == math.inf
    assert conjugate_exponent(6.0, 3) == 2.0


def test_conjugate_exponent_rejects_bad_input():
    with pytest.raises(ValueError):
        conjugate_exponent(0.5, 2)
    with pytest.raises(ValueError):
        conjugate_exponent(math.inf, 2)
    with pytest.raises(ValueError):
        conjugate_exponent(4.0, 0)


def test_holder_conjugate_pairs():
    assert holder_conjugate(1.0) == math.inf
    assert holder_conjugate(math.inf) == 1.0
    assert holder_conjugate(2.0) == 2.0
    q = holder_conjugate(3.0)
    assert 1.0 / 3.0 + 1.0 / q == pytest.approx(1.0, abs=1e-15)


def test_lp_params_regime_is_total():
    for p in (1.0, 1.5, 2.0, 3.0, 4.5):
        for k in (1, 2, 3, 4):
            params = LpParams(p, k)
            assert params.k_less_than_p == (k < p)
            if params.k_less_than_p:
                assert params.dual_exponent == pytest.approx(p / (p - k))
            else:
                assert params.dual_exponent == math.inf


def test_lp_params_validation():
    with pytest.raises(ValueError):
        LpParams(0.9, 2)
    with pytest.raises(ValueError):
        LpParams(math.inf, 2)
    with pytest.raises(ValueError):
        LpParams(2.0, 0)
    with pytest.raises(ValueError):
        LpParams(float("nan"), 2)
