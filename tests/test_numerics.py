import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oadiag.diagonal import DiagonalTensor, build_dual_form
from oadiag.numerics import (
    LpParams,
    conjugate_exponent,
    ensure_finite,
    holder_conjugate,
    lq_norm,
    phase,
    phase_root,
)
from oadiag.oapoly import OrthAddPolynomial, norm_witness


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


# Edge inputs of the per-coefficient phase loops: signed-zero parts,
# subnormal parts, parts of 1.7e308, the real and imaginary axes, and the
# negative real axis, where atan2 is at +-pi.
PHASE_SCALARS = [
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    5e-324, complex(0.0, -5e-324), 3e-310 + 1e-311j, complex(-3e-310, -1e-311),
    1.7e308, complex(0.0, -1.7e308), complex(1.7e308, 1.7e308), complex(-1.7e308, 1.7e308),
    2.5, -3.0, 4j, -0.5j,
    -1.0, complex(-1.0, -0.0), complex(-2.5, 0.0), complex(-1e-300, -0.0),
    0.6 + 0.8j, -0.3 - 1.2j, 1e-200 + 3j,
]
PHASE_VECTORS = {
    "signed_zeros": [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1.0],
    "all_zero": [complex(-0.0, 0.0), complex(0.0, -0.0)],
    "subnormal": [5e-324, 3e-310 + 1e-311j, complex(0.0, -5e-324), complex(-3e-310, -1e-311)],
    "near_max": [1.7e308, complex(0.0, -1.7e308), 1.0],
    "max_parts": [complex(1.7e308, 1.7e308), complex(-1.7e308, 1.7e308)],
    "axes": [2.5, -3.0, 4j, -0.5j],
    "negative_axis": [-1.0, complex(-1.0, -0.0), complex(-2.5, 0.0), complex(-1e-300, -0.0)],
    "mixed": [0.6 + 0.8j, -0.3 - 1.2j, 1e-200 + 3j, -2.0],
}
PHASE_PARAMS = [(4.0, 2), (7.5, 3), (2.0, 3)]
# Seeded coefficients, on some of which numpy's SIMD complex abs and arctan2
# round apart from Python's abs and math.atan2; their outputs are pinned by
# the sha256 of their float.hex texts.
_seeded = random.Random(35)
PHASE_SEEDED = [complex(_seeded.uniform(-3.0, 3.0), _seeded.uniform(-3.0, 3.0)) for _ in range(64)]


def _hex(z):
    return [float.hex(complex(z).real), float.hex(complex(z).imag)]


def _phase_outputs():
    """The outputs of phase, phase_root, build_dual_form and norm_witness on
    the edge inputs, every float as float.hex, and "ValueError" where one is
    raised."""
    out = {}

    def record(name, compute):
        try:
            with np.errstate(all="ignore"):  # the overflow cases raise ValueError after it
                out[name] = compute()
        except ValueError:
            out[name] = "ValueError"

    for z in PHASE_SCALARS:
        record(f"phase {z!r}", lambda: _hex(phase(z)))
        for k in (1, 2, 3, 5):
            record(f"phase_root {z!r} {k}", lambda: _hex(phase_root(z, k)))
    for label, coeffs in PHASE_VECTORS.items():
        for p, k in PHASE_PARAMS:
            params = LpParams(p, k)
            record(f"build_dual_form {label} {p} {k}", lambda: [
                _hex(b) for b in build_dual_form(DiagonalTensor(coeffs, params)).coeffs])
            record(f"norm_witness {label} {p} {k}", lambda: (lambda w, v: {
                "witness": [_hex(x) for x in w], "value": float.hex(v)})(
                *norm_witness(OrthAddPolynomial(coeffs, params))))
    for p, k in PHASE_PARAMS:
        params = LpParams(p, k)
        dual = build_dual_form(DiagonalTensor(PHASE_SEEDED, params)).coeffs
        witness, value = norm_witness(OrthAddPolynomial(PHASE_SEEDED, params))
        texts = [_hex(b) for b in dual] + [_hex(x) for x in witness] + [float.hex(value)]
        out[f"seeded sha256 {p} {k}"] = hashlib.sha256(repr(texts).encode()).hexdigest()
    return out


# Recorded at commit 9417dfc, where each coefficient's phase was one call of
# phase or phase_root; the loops over whole coefficient lists keep every bit.
PHASE_PINS = {'phase 0j': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 0j 1': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 0j 2': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 0j 3': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 0j 5': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase (-0+0j)': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root (-0+0j) 1': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root (-0+0j) 2': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root (-0+0j) 3': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root (-0+0j) 5': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase -0j': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root -0j 1': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root -0j 2': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root -0j 3': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root -0j 5': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase (-0-0j)': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root (-0-0j) 1': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root (-0-0j) 2': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root (-0-0j) 3': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root (-0-0j) 5': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase 5e-324': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 5e-324 1': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 5e-324 2': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 5e-324 3': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 5e-324 5': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase -5e-324j': ['0x0.0p+0', '-0x1.0000000000000p+0'],
 'phase_root -5e-324j 1': ['0x1.1a62633145c07p-54', '-0x1.0000000000000p+0'],
 'phase_root -5e-324j 2': ['0x1.6a09e667f3bcdp-1', '-0x1.6a09e667f3bccp-1'],
 'phase_root -5e-324j 3': ['0x1.bb67ae8584cabp-1', '-0x1.fffffffffffffp-2'],
 'phase_root -5e-324j 5': ['0x1.e6f0e134454ffp-1', '-0x1.3c6ef372fe94fp-2'],
 'phase (3e-310+1e-311j)': ['0x1.ffb73e2b422a8p-1', '0x1.10ea434a455d3p-5'],
 'phase_root (3e-310+1e-311j) 1': ['0x1.ffb73e2b422a8p-1', '0x1.10ea434a455d3p-5'],
 'phase_root (3e-310+1e-311j) 2': ['0x1.ffedcf3817309p-1', '0x1.10f3f5df5c339p-6'],
 'phase_root (3e-310+1e-311j) 3': ['0x1.fff7ea4b025e5p-1', '0x1.6bf257829dd01p-7'],
 'phase_root (3e-310+1e-311j) 5': ['0x1.fffd16e68c5f1p-1', '0x1.b4bde1a6f56e7p-8'],
 'phase (-3e-310-1e-311j)': ['-0x1.ffb73e2b422a8p-1', '-0x1.10ea434a455d3p-5'],
 'phase_root (-3e-310-1e-311j) 1': ['-0x1.ffb73e2b422a8p-1', '-0x1.10ea434a455d4p-5'],
 'phase_root (-3e-310-1e-311j) 2': ['0x1.10f3f5df5c33ap-6', '-0x1.ffedcf3817309p-1'],
 'phase_root (-3e-310-1e-311j) 3': ['0x1.04e8b4ad9abacp-1', '-0x1.b888c96b46b66p-1'],
 'phase_root (-3e-310-1e-311j) 5': ['0x1.a0368a9f7baf8p-1', '-0x1.2a2dd09a96e9ep-1'],
 'phase 1.7e+308': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 1.7e+308 1': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 1.7e+308 2': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 1.7e+308 3': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 1.7e+308 5': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase -1.7e+308j': ['0x0.0p+0', '-0x1.0000000000000p+0'],
 'phase_root -1.7e+308j 1': ['0x1.1a62633145c07p-54', '-0x1.0000000000000p+0'],
 'phase_root -1.7e+308j 2': ['0x1.6a09e667f3bcdp-1', '-0x1.6a09e667f3bccp-1'],
 'phase_root -1.7e+308j 3': ['0x1.bb67ae8584cabp-1', '-0x1.fffffffffffffp-2'],
 'phase_root -1.7e+308j 5': ['0x1.e6f0e134454ffp-1', '-0x1.3c6ef372fe94fp-2'],
 'phase (1.7e+308+1.7e+308j)': ['0x1.6a09e667f3bcdp-1', '0x1.6a09e667f3bcdp-1'],
 'phase_root (1.7e+308+1.7e+308j) 1': ['0x1.6a09e667f3bcdp-1', '0x1.6a09e667f3bccp-1'],
 'phase_root (1.7e+308+1.7e+308j) 2': ['0x1.d906bcf328d46p-1', '0x1.87de2a6aea963p-2'],
 'phase_root (1.7e+308+1.7e+308j) 3': ['0x1.ee8dd4748bf15p-1', '0x1.0907dc1930690p-2'],
 'phase_root (1.7e+308+1.7e+308j) 5': ['0x1.f9b24942fe45cp-1', '0x1.4060b67a85375p-3'],
 'phase (-1.7e+308+1.7e+308j)': ['-0x1.6a09e667f3bcdp-1', '0x1.6a09e667f3bcdp-1'],
 'phase_root (-1.7e+308+1.7e+308j) 1': ['-0x1.6a09e667f3bccp-1', '0x1.6a09e667f3bcdp-1'],
 'phase_root (-1.7e+308+1.7e+308j) 2': ['0x1.87de2a6aea964p-2', '0x1.d906bcf328d46p-1'],
 'phase_root (-1.7e+308+1.7e+308j) 3': ['0x1.6a09e667f3bcdp-1', '0x1.6a09e667f3bccp-1'],
 'phase_root (-1.7e+308+1.7e+308j) 5': ['0x1.c83201d3d2c6dp-1', '0x1.d0e2e2b44de00p-2'],
 'phase 2.5': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 2.5 1': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 2.5 2': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 2.5 3': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root 2.5 5': ['0x1.0000000000000p+0', '0x0.0p+0'],
 'phase -3.0': ['-0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root -3.0 1': ['-0x1.0000000000000p+0', '0x1.1a62633145c07p-53'],
 'phase_root -3.0 2': ['0x1.1a62633145c07p-54', '0x1.0000000000000p+0'],
 'phase_root -3.0 3': ['0x1.0000000000001p-1', '0x1.bb67ae8584caap-1'],
 'phase_root -3.0 5': ['0x1.9e3779b97f4a8p-1', '0x1.2cf2304755a5ep-1'],
 'phase 4j': ['0x0.0p+0', '0x1.0000000000000p+0'],
 'phase_root 4j 1': ['0x1.1a62633145c07p-54', '0x1.0000000000000p+0'],
 'phase_root 4j 2': ['0x1.6a09e667f3bcdp-1', '0x1.6a09e667f3bccp-1'],
 'phase_root 4j 3': ['0x1.bb67ae8584cabp-1', '0x1.fffffffffffffp-2'],
 'phase_root 4j 5': ['0x1.e6f0e134454ffp-1', '0x1.3c6ef372fe94fp-2'],
 'phase (-0-0.5j)': ['-0x0.0p+0', '-0x1.0000000000000p+0'],
 'phase_root (-0-0.5j) 1': ['0x1.1a62633145c07p-54', '-0x1.0000000000000p+0'],
 'phase_root (-0-0.5j) 2': ['0x1.6a09e667f3bcdp-1', '-0x1.6a09e667f3bccp-1'],
 'phase_root (-0-0.5j) 3': ['0x1.bb67ae8584cabp-1', '-0x1.fffffffffffffp-2'],
 'phase_root (-0-0.5j) 5': ['0x1.e6f0e134454ffp-1', '-0x1.3c6ef372fe94fp-2'],
 'phase -1.0': ['-0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root -1.0 1': ['-0x1.0000000000000p+0', '0x1.1a62633145c07p-53'],
 'phase_root -1.0 2': ['0x1.1a62633145c07p-54', '0x1.0000000000000p+0'],
 'phase_root -1.0 3': ['0x1.0000000000001p-1', '0x1.bb67ae8584caap-1'],
 'phase_root -1.0 5': ['0x1.9e3779b97f4a8p-1', '0x1.2cf2304755a5ep-1'],
 'phase (-1-0j)': ['-0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root (-1-0j) 1': ['-0x1.0000000000000p+0', '-0x1.1a62633145c07p-53'],
 'phase_root (-1-0j) 2': ['0x1.1a62633145c07p-54', '-0x1.0000000000000p+0'],
 'phase_root (-1-0j) 3': ['0x1.0000000000001p-1', '-0x1.bb67ae8584caap-1'],
 'phase_root (-1-0j) 5': ['0x1.9e3779b97f4a8p-1', '-0x1.2cf2304755a5ep-1'],
 'phase (-2.5+0j)': ['-0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root (-2.5+0j) 1': ['-0x1.0000000000000p+0', '0x1.1a62633145c07p-53'],
 'phase_root (-2.5+0j) 2': ['0x1.1a62633145c07p-54', '0x1.0000000000000p+0'],
 'phase_root (-2.5+0j) 3': ['0x1.0000000000001p-1', '0x1.bb67ae8584caap-1'],
 'phase_root (-2.5+0j) 5': ['0x1.9e3779b97f4a8p-1', '0x1.2cf2304755a5ep-1'],
 'phase (-1e-300-0j)': ['-0x1.0000000000000p+0', '0x0.0p+0'],
 'phase_root (-1e-300-0j) 1': ['-0x1.0000000000000p+0', '-0x1.1a62633145c07p-53'],
 'phase_root (-1e-300-0j) 2': ['0x1.1a62633145c07p-54', '-0x1.0000000000000p+0'],
 'phase_root (-1e-300-0j) 3': ['0x1.0000000000001p-1', '-0x1.bb67ae8584caap-1'],
 'phase_root (-1e-300-0j) 5': ['0x1.9e3779b97f4a8p-1', '-0x1.2cf2304755a5ep-1'],
 'phase (0.6+0.8j)': ['0x1.3333333333333p-1', '0x1.999999999999ap-1'],
 'phase_root (0.6+0.8j) 1': ['0x1.3333333333333p-1', '0x1.999999999999ap-1'],
 'phase_root (0.6+0.8j) 2': ['0x1.c9f25c5bfedd9p-1', '0x1.c9f25c5bfeddap-2'],
 'phase_root (0.6+0.8j) 3': ['0x1.e7bc43cd40bd8p-1', '0x1.37802d56903ccp-2'],
 'phase_root (0.6+0.8j) 5': ['0x1.f73856c9d8bb5p-1', '0x1.79a583a9450e9p-3'],
 'phase (-0.3-1.2j)': ['-0x1.f0b6848d2af1dp-3', '-0x1.f0b6848d2af1dp-1'],
 'phase_root (-0.3-1.2j) 1': ['-0x1.f0b6848d2af1dp-3', '-0x1.f0b6848d2af1cp-1'],
 'phase_root (-0.3-1.2j) 2': ['0x1.3b174f21e3087p-1', '-0x1.938fa9c59df98p-1'],
 'phase_root (-0.3-1.2j) 3': ['0x1.a50bbbb04a801p-1', '-0x1.2350a1517f646p-1'],
 'phase_root (-0.3-1.2j) 5': ['0x1.de9b94e0cb329p-1', '-0x1.6bc0297eba728p-2'],
 'phase (1e-200+3j)': ['0x1.054616389fa73p-666', '0x1.0000000000000p+0'],
 'phase_root (1e-200+3j) 1': ['0x1.1a62633145c07p-54', '0x1.0000000000000p+0'],
 'phase_root (1e-200+3j) 2': ['0x1.6a09e667f3bcdp-1', '0x1.6a09e667f3bccp-1'],
 'phase_root (1e-200+3j) 3': ['0x1.bb67ae8584cabp-1', '0x1.fffffffffffffp-2'],
 'phase_root (1e-200+3j) 5': ['0x1.e6f0e134454ffp-1', '0x1.3c6ef372fe94fp-2'],
 'build_dual_form signed_zeros 4.0 2': [['0x0.0p+0', '0x0.0p+0'],
                                        ['0x0.0p+0', '0x0.0p+0'],
                                        ['0x0.0p+0', '0x0.0p+0'],
                                        ['0x0.0p+0', '0x0.0p+0'],
                                        ['0x1.0000000000000p+0', '0x0.0p+0']],
 'norm_witness signed_zeros 4.0 2': {'witness': [['0x0.0p+0', '0x0.0p+0'],
                                                 ['0x0.0p+0', '0x0.0p+0'],
                                                 ['0x0.0p+0', '0x0.0p+0'],
                                                 ['0x0.0p+0', '0x0.0p+0'],
                                                 ['0x1.0000000000000p+0', '0x0.0p+0']],
                                     'value': '0x1.0000000000000p+0'},
 'build_dual_form signed_zeros 7.5 3': [['0x0.0p+0', '0x0.0p+0'],
                                        ['0x0.0p+0', '0x0.0p+0'],
                                        ['0x0.0p+0', '0x0.0p+0'],
                                        ['0x0.0p+0', '0x0.0p+0'],
                                        ['0x1.0000000000000p+0', '0x0.0p+0']],
 'norm_witness signed_zeros 7.5 3': {'witness': [['0x0.0p+0', '0x0.0p+0'],
                                                 ['0x0.0p+0', '0x0.0p+0'],
                                                 ['0x0.0p+0', '0x0.0p+0'],
                                                 ['0x0.0p+0', '0x0.0p+0'],
                                                 ['0x1.0000000000000p+0', '0x0.0p+0']],
                                     'value': '0x1.0000000000000p+0'},
 'build_dual_form signed_zeros 2.0 3': [['0x1.0000000000000p+0', '-0x0.0p+0'],
                                        ['0x1.0000000000000p+0', '-0x0.0p+0'],
                                        ['0x1.0000000000000p+0', '-0x0.0p+0'],
                                        ['0x1.0000000000000p+0', '-0x0.0p+0'],
                                        ['0x1.0000000000000p+0', '-0x0.0p+0']],
 'norm_witness signed_zeros 2.0 3': {'witness': [['0x0.0p+0', '0x0.0p+0'],
                                                 ['0x0.0p+0', '0x0.0p+0'],
                                                 ['0x0.0p+0', '0x0.0p+0'],
                                                 ['0x0.0p+0', '0x0.0p+0'],
                                                 ['0x1.0000000000000p+0', '0x0.0p+0']],
                                     'value': '0x1.0000000000000p+0'},
 'build_dual_form all_zero 4.0 2': [['0x0.0p+0', '0x0.0p+0'], ['0x0.0p+0', '0x0.0p+0']],
 'norm_witness all_zero 4.0 2': 'ValueError',
 'build_dual_form all_zero 7.5 3': [['0x0.0p+0', '0x0.0p+0'], ['0x0.0p+0', '0x0.0p+0']],
 'norm_witness all_zero 7.5 3': 'ValueError',
 'build_dual_form all_zero 2.0 3': [['0x1.0000000000000p+0', '-0x0.0p+0'],
                                    ['0x1.0000000000000p+0', '-0x0.0p+0']],
 'norm_witness all_zero 2.0 3': 'ValueError',
 'build_dual_form subnormal 4.0 2': [['0x0.0000000000001p-1022', '0x0.0p+0'],
                                     ['0x0.03739a252b281p-1022', '-0x0.001d74124e3d1p-1022'],
                                     ['0x0.0p+0', '0x0.0000000000001p-1022'],
                                     ['-0x0.03739a252b281p-1022', '0x0.001d74124e3d1p-1022']],
 'norm_witness subnormal 4.0 2': {'witness': [['0x1.cf5ac80e08029p-24', '0x0.0p+0'],
                                              ['0x1.ae7aadb6dd2c5p-1', '-0x1.cb0ce3a8a23efp-7'],
                                              ['0x1.47a4250e4b1efp-24', '0x1.47a4250e4b1eep-24'],
                                              ['0x1.cb0ce3a8a23f1p-7', '0x1.ae7aadb6dd2c5p-1']],
                                  'value': '0x0.04e24bd03bfe4p-1022'},
 'build_dual_form subnormal 7.5 3': [['0x0.0p+0', '0x0.0p+0'],
                                     ['0x0.0p+0', '0x0.0p+0'],
                                     ['0x0.0p+0', '0x0.0p+0'],
                                     ['-0x0.0p+0', '0x0.0p+0']],
 'norm_witness subnormal 7.5 3': {'witness': [['0x1.9d7153a14d733p-11', '0x0.0p+0'],
                                              ['0x1.d2c5eb3f2d524p-1', '-0x1.4bd17ef490a55p-7'],
                                              ['0x1.660d4715b80d3p-11', '0x1.9d7153a14d732p-12'],
                                              ['0x1.dbc0d2e7f04e0p-2', '0x1.91a521f91036ep-1']],
                                  'value': '0x0.053c08c348109p-1022'},
 'build_dual_form subnormal 2.0 3': [['0x1.0000000000000p+0', '-0x0.0p+0'],
                                     ['0x1.ffb73e2b422a8p-1', '-0x1.10ea434a455d3p-5'],
                                     ['0x0.0p+0', '0x1.0000000000000p+0'],
                                     ['-0x1.ffb73e2b422a8p-1', '0x1.10ea434a455d3p-5']],
 'norm_witness subnormal 2.0 3': {'witness': [['0x0.0p+0', '0x0.0p+0'],
                                              ['0x1.0000000000000p+0', '0x0.0p+0'],
                                              ['0x0.0p+0', '0x0.0p+0'],
                                              ['0x0.0p+0', '0x0.0p+0']],
                                  'value': '0x0.037417c7357bdp-1022'},
 'build_dual_form near_max 4.0 2': [['0x1.e42d130773b76p+1023', '0x0.0p+0'],
                                    ['0x0.0p+0', '0x1.e42d130773b76p+1023'],
                                    ['0x1.0000000000000p+0', '0x0.0p+0']],
 'norm_witness near_max 4.0 2': {'witness': [['0x1.ae89f995ad3aep-1', '0x0.0p+0'],
                                             ['0x1.306fe0a31b716p-1', '0x1.306fe0a31b715p-1'],
                                             ['0x1.babca995ee4f8p-513', '0x0.0p+0']],
                                 'value': 'inf'},
 'build_dual_form near_max 7.5 3': 'ValueError',
 'norm_witness near_max 7.5 3': {'witness': [['0x1.d2cd4a3ec542ep-1', '0x0.0p+0'],
                                             ['0x1.944327273eeeep-1', '0x1.d2cd4a3ec542dp-2'],
                                             ['0x1.4193f7b8c27e7p-228', '0x0.0p+0']],
                                 'value': 'inf'},
 'build_dual_form near_max 2.0 3': [['0x1.0000000000000p+0', '-0x0.0p+0'],
                                    ['0x0.0p+0', '0x1.0000000000000p+0'],
                                    ['0x1.0000000000000p+0', '-0x0.0p+0']],
 'norm_witness near_max 2.0 3': {'witness': [['0x1.0000000000000p+0', '0x0.0p+0'],
                                             ['0x0.0p+0', '0x0.0p+0'],
                                             ['0x0.0p+0', '0x0.0p+0']],
                                 'value': '0x1.e42d130773b76p+1023'},
 'build_dual_form max_parts 4.0 2': 'ValueError',
 'norm_witness max_parts 4.0 2': 'ValueError',
 'build_dual_form max_parts 7.5 3': 'ValueError',
 'norm_witness max_parts 7.5 3': 'ValueError',
 'build_dual_form max_parts 2.0 3': [['0x1.6a09e667f3bcdp-1', '-0x1.6a09e667f3bcdp-1'],
                                     ['-0x1.6a09e667f3bcdp-1', '-0x1.6a09e667f3bcdp-1']],
 'norm_witness max_parts 2.0 3': {'witness': [['0x1.0000000000000p+0', '0x0.0p+0'],
                                              ['0x0.0p+0', '0x0.0p+0']],
                                  'value': 'inf'},
 'build_dual_form axes 4.0 2': [['0x1.4000000000000p+1', '0x0.0p+0'],
                                ['-0x1.8000000000000p+1', '-0x0.0p+0'],
                                ['0x0.0p+0', '-0x1.0000000000000p+2'],
                                ['-0x0.0p+0', '0x1.0000000000000p-1']],
 'norm_witness axes 4.0 2': {'witness': [['0x1.55b6b1bdbce6bp-1', '0x0.0p+0'],
                                         ['0x1.9ce883ca785d4p-55', '-0x1.76541bbc2b222p-1'],
                                         ['0x1.31a352a417cc6p-1', '-0x1.31a352a417cc6p-1'],
                                         ['0x1.b03cc4aec9611p-3', '0x1.b03cc4aec9610p-3']],
                             'value': '0x1.6732f8d0e2f77p+2'},
 'build_dual_form axes 7.5 3': [['0x1.f9f6e4990f227p+1', '0x0.0p+0'],
                                ['-0x1.4c8dc2e423980p+2', '-0x0.0p+0'],
                                ['0x0.0p+0', '-0x1.0000000000000p+3'],
                                ['-0x0.0p+0', '0x1.6a09e667f3bcdp-2']],
 'norm_witness axes 7.5 3': {'witness': [['0x1.a1968e35d01afp-1', '0x0.0p+0'],
                                         ['0x1.b2dabf9229ef6p-2', '-0x1.789853fc3ee5ep-1'],
                                         ['0x1.9174ecac96752p-1', '-0x1.cf8ff385d31a4p-2'],
                                         ['0x1.f9cdc55cd091ap-2', '0x1.2406a50be53a4p-2']],
                             'value': '0x1.90604ef88134ep+2'},
 'build_dual_form axes 2.0 3': [['0x1.0000000000000p+0', '-0x0.0p+0'],
                                ['-0x1.0000000000000p+0', '-0x0.0p+0'],
                                ['0x0.0p+0', '-0x1.0000000000000p+0'],
                                ['-0x0.0p+0', '0x1.0000000000000p+0']],
 'norm_witness axes 2.0 3': {'witness': [['0x0.0p+0', '0x0.0p+0'],
                                         ['0x0.0p+0', '0x0.0p+0'],
                                         ['0x1.0000000000000p+0', '0x0.0p+0'],
                                         ['0x0.0p+0', '0x0.0p+0']],
                             'value': '0x1.0000000000000p+2'},
 'build_dual_form negative_axis 4.0 2': [['-0x1.0000000000000p+0', '-0x0.0p+0'],
                                         ['-0x1.0000000000000p+0', '-0x0.0p+0'],
                                         ['-0x1.4000000000000p+1', '-0x0.0p+0'],
                                         ['-0x1.56e1fc2f8f359p-997', '-0x0.0p+0']],
 'norm_witness negative_axis 4.0 2': {'witness': [['0x1.4d3d6f2108a2fp-55',
                                                   '-0x1.2e1a9faa2f81fp-1'],
                                                  ['0x1.4d3d6f2108a2fp-55',
                                                   '0x1.2e1a9faa2f81fp-1'],
                                                  ['0x1.077307879011ap-54',
                                                   '-0x1.ddab19d9fc2e9p-1'],
                                                  ['0x1.10b4c66bfb5aap-553',
                                                   '0x1.ee73c32013258p-500']],
                                      'value': '0x1.6fa6ea162d0f1p+1'},
 'build_dual_form negative_axis 7.5 3': [['-0x1.0000000000000p+0', '-0x0.0p+0'],
                                         ['-0x1.0000000000000p+0', '-0x0.0p+0'],
                                         ['-0x1.f9f6e4990f227p+1', '-0x0.0p+0'],
                                         ['0x0.0p+0', '-0x0.0p+0']],
 'norm_witness negative_axis 7.5 3': {'witness': [['0x1.8e10768898f75p-2',
                                                   '-0x1.58bbda8e6fa1ap-1'],
                                                  ['0x1.8e10768898f75p-2', '0x1.58bbda8e6fa1ap-1'],
                                                  ['0x1.e7f5cc20acb1ep-2',
                                                   '-0x1.a695fc649e45ap-1'],
                                                  ['0x1.2103070f2fef1p-223',
                                                   '0x1.f4954a75ea583p-223']],
                                      'value': '0x1.8d50b31c08eddp+1'},
 'build_dual_form negative_axis 2.0 3': [['-0x1.0000000000000p+0', '-0x0.0p+0'],
                                         ['-0x1.0000000000000p+0', '-0x0.0p+0'],
                                         ['-0x1.0000000000000p+0', '-0x0.0p+0'],
                                         ['-0x1.0000000000000p+0', '-0x0.0p+0']],
 'norm_witness negative_axis 2.0 3': {'witness': [['0x0.0p+0', '0x0.0p+0'],
                                                  ['0x0.0p+0', '0x0.0p+0'],
                                                  ['0x1.0000000000000p+0', '0x0.0p+0'],
                                                  ['0x0.0p+0', '0x0.0p+0']],
                                      'value': '0x1.4000000000000p+1'},
 'build_dual_form mixed 4.0 2': [['0x1.3333333333333p-1', '-0x1.999999999999ap-1'],
                                 ['-0x1.3333333333333p-2', '0x1.3333333333333p+0'],
                                 ['0x1.87e92154ef7acp-665', '-0x1.8000000000000p+1'],
                                 ['-0x1.0000000000000p+1', '-0x0.0p+0']],
 'norm_witness mixed 4.0 2': {'witness': [['0x1.cd5f76b46850fp-2', '-0x1.cd5f76b468510p-3'],
                                          ['0x1.610ed92fcdb49p-2', '0x1.c4303841eddbcp-2'],
                                          ['0x1.3be16425f087ep-1', '-0x1.3be16425f087dp-1'],
                                          ['0x1.9256ec32fbe9bp-55', '-0x1.6cbf4f8dedad4p-1']],
                              'value': '0x1.f86c87e68b985p+1'},
 'build_dual_form mixed 7.5 3': [['0x1.3333333333333p-1', '-0x1.999999999999ap-1'],
                                 ['-0x1.55a8f247d2e40p-2', '0x1.55a8f247d2e40p+0'],
                                 ['0x1.536793539fd33p-664', '-0x1.4c8dc2e423980p+2'],
                                 ['-0x1.6a09e667f3bcdp+1', '-0x0.0p+0']],
 'norm_witness mixed 7.5 3': {'witness': [['0x1.5ecebc4e494a2p-1', '-0x1.c019436f75998p-3'],
                                          ['0x1.3d7e6c36dfa14p-1', '0x1.b756838e62aa2p-2'],
                                          ['0x1.971c432790d01p-1', '-0x1.d61731695a028p-2'],
                                          ['0x1.ad9607a2250aap-2', '-0x1.74084db757a6dp-1']],
                              'value': '0x1.19f7ac40fa83bp+2'},
 'build_dual_form mixed 2.0 3': [['0x1.3333333333333p-1', '-0x1.999999999999ap-1'],
                                 ['-0x1.f0b6848d2af1dp-3', '0x1.f0b6848d2af1dp-1'],
                                 ['0x1.054616389fa73p-666', '-0x1.0000000000000p+0'],
                                 ['-0x1.0000000000000p+0', '-0x0.0p+0']],
 'norm_witness mixed 2.0 3': {'witness': [['0x0.0p+0', '0x0.0p+0'],
                                          ['0x0.0p+0', '0x0.0p+0'],
                                          ['0x1.0000000000000p+0', '0x0.0p+0'],
                                          ['0x0.0p+0', '0x0.0p+0']],
                              'value': '0x1.8000000000000p+1'},
 'seeded sha256 4.0 2': '9f6db5fe281ddb930a2ae7d79d938e657272dc3dba0131d95a38025ca7b348ad',
 'seeded sha256 7.5 3': '5777cf2112f77c529849618ecdf212b47fc1754bc4d8225054678fece98ccdcd',
 'seeded sha256 2.0 3': 'a3c59ea61f40e7426d4f1e7fcb2fb911bd20ba06563cfd37dca01976ae3192c2'}


def test_phase_loops_reproduce_the_recorded_bits():
    assert _phase_outputs() == PHASE_PINS
