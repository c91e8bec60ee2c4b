"""Scalar and norm primitives shared by every other module.

Scalars are complex throughout: real inputs are the common case, but the
root-of-unity averaging used elsewhere forces complex intermediates as soon
as the tensor degree exceeds two.  Values with NaN or Inf components are
rejected at the boundary of every operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

Scalar = complex

__all__ = [
    "Scalar",
    "LpParams",
    "CoefficientVector",
    "BudgetError",
    "check_budget",
    "ensure_finite",
    "lq_norm",
    "phase",
    "phase_root",
    "conjugate_exponent",
    "holder_conjugate",
]


class BudgetError(RuntimeError):
    """An enumeration (pieces, dense coefficients, ...) would exceed its cap.
    Its one message names the budget, the amount asked for and the cap.  An
    integer amount of more than 30 digits is named by its power of ten: the
    message stays one short line, and Python refuses str() past 4300 digits."""

    def __init__(self, budget: str, asked, unit: str, cap) -> None:
        if isinstance(asked, int) and asked >= 10 ** 30:
            asked = f"about 10^{round(math.log10(asked))}"
        super().__init__(f"{budget} budget exceeded: {asked} {unit} asked for, cap is {cap}")


def check_budget(budget: str, asked, unit: str, cap) -> None:
    """Raise BudgetError when asked exceeds cap, which callers read from
    their module at call time, so a test can patch it there."""
    if asked > cap:
        raise BudgetError(budget, asked, unit, cap)


# Budgets: every cap in the package, each raising BudgetError beyond it.
# k^n constancy pieces any single enumeration may visit.
MAX_PIECES = 10 ** 6
# n^k coefficients of the dense expansion of an averaging decomposition.
MAX_EXPANSION_ENTRIES = 10 ** 5
# n^k entries of a dense multilinear form.
MAX_FORM_ENTRIES = 10 ** 6
# Degree k of a dense n^k array (an expansion or a diagonal form): numpy
# indexes at most 63 axes at once and holds at most 64.
MAX_DENSE_DEGREE = 63
# Box tuples one sup-norm enclosure (oapoly.multilinear_norm_grid) may bound.
MAX_ENCLOSURE_BOXES = 10 ** 6
# Entries of one optimizer's start array: restarts * k * n for
# multilinear_norm_ascent, n per random start row for norm_numeric.
MAX_START_ENTRIES = 10 ** 7
# Records one CLI command may produce.
MAX_CASES = 20000
# Steps of one certified norm_numeric restart (k < p); the certificate's own
# step count, derived from its first steps, is checked against it.
MAX_ASCENT_STEPS = 2 * 10 ** 5
# Relative objective bound at which norm_numeric's certificate stops a
# restart: 1e-3 of the 1e-6 isometry tolerance.
ASCENT_CERTIFICATE_TARGET = 1e-9


def ensure_finite(values: Union[Sequence, np.ndarray, complex, float]) -> np.ndarray:
    """Return the input as an array, at least 1-D, rejecting NaN/Inf
    components.  Called on every array a checked operation takes in, so the
    reduction is numpy's ufunc method itself, without its Python wrappers."""
    arr = np.asarray(values)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise ValueError("non-finite entry (NaN or Inf) is not admitted")
    return arr


@dataclass(frozen=True)
class LpParams:
    """Sequence-space exponent p and homogeneity degree k.

    The regime classification is total: either k < p (the l_{p/k} / l_{p/(p-k)}
    regime) or p <= k (the l_1 / l_inf regime).  k >= 1 is accepted here; the
    step-function and tensor modules impose their own k >= 2 requirement.
    """

    p: float
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        p = float(self.p)
        if not (math.isfinite(p) and p >= 1.0):
            raise ValueError(f"p must satisfy 1 <= p < inf, got {self.p!r}")
        object.__setattr__(self, "p", p)

    @property
    def k_less_than_p(self) -> bool:
        return self.k < self.p

    @property
    def dual_exponent(self) -> float:
        """Exponent carrying the polynomial norm: p/(p-k), or inf when p <= k."""
        return conjugate_exponent(self.p, self.k)


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """One coefficient per coordinate of l_p^n, with the (p, k) it lives under.

    The coefficients are copied to a read-only 1-D complex array, with
    NaN/Inf rejected: the common part of a diagonal tensor and of the
    orthogonally additive polynomial that is its dual.
    """

    coeffs: np.ndarray
    params: LpParams

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=complex).reshape(-1)
        ensure_finite(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


def lq_norm(v, q: float) -> float:
    """(sum |v_i|^q)^(1/q) for q >= 1, max_i |v_i| for q = inf, 0 for empty v.

    q < 1 is rejected: the quasinorm regime is never needed because p/k is
    only requested when k < p, and p <= k routes to q in {1, inf}.  The power
    sum is accumulated with math.fsum, so the result is exactly invariant
    under permutations of the input.
    """
    arr = np.asarray(v)
    if arr.size == 0:
        return 0.0
    ensure_finite(arr)
    mags = np.abs(arr)
    top = float(np.maximum.reduce(mags, axis=None))
    if q == math.inf:
        return top
    if not (isinstance(q, (int, float)) and q >= 1.0):
        raise ValueError(f"q must be >= 1 or inf, got {q!r}")
    if top == 0.0 or top == math.inf:  # a complex modulus can overflow
        return top
    # scale by the max so powers never overflow and the top coordinate is exact
    ratios = mags.reshape(-1) / top
    return top * math.fsum(ratios ** float(q)) ** (1.0 / float(q))


def _power_of_two_below(scale: float) -> float:
    """The power of two at or below scale > 0, at least 2^-1022.  numpy
    divides a complex array by multiplying with the reciprocal, which stays
    finite, and dividing by a power of two is exact away from underflow."""
    return math.ldexp(1.0, max(math.frexp(scale)[1] - 1, -1022))


def phase(a: Scalar) -> Scalar:
    """a/|a|, with phase(0) = 1 so decompositions of zero coefficients stay defined.

    a is first divided by the power of two s at or below its larger
    component: exact, and it leaves the modulus in [1, 2^1.5) or, for a
    subnormal a, in the normal range, where abs does not round it to the
    subnormal grid (nor past the float range).  abs(a / s) is abs(a) / s
    exactly in the normal range, so there the phase is that of a / abs(a).
    It is _phases on the one value."""
    z = complex(a)
    ensure_finite(z)
    return _phases([z])[0]


def _phases(values: Sequence[complex]) -> List[complex]:
    """phase of each of the finite Python complexes values, in one loop."""
    out = []
    for z in values:
        if z == 0:
            out.append(1 + 0j)
            continue
        z /= _power_of_two_below(max(abs(z.real), abs(z.imag)))
        out.append(z / abs(z))
    return out


def phase_root(a: Scalar, k: int) -> Scalar:
    """Principal k-th root of the phase of a: the s with s^k = a/|a|, |s| = 1.

    Returns 1 for a = 0 (same convention as phase).  Built from math.atan2,
    which keeps subnormal components well-defined where cmath.phase raises.
    It is _phase_roots on the one value.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    z = complex(a)
    ensure_finite(z)
    return _phase_roots([z], k)[0]


def _phase_roots(values: Sequence[complex], k: int) -> List[complex]:
    """phase_root of each of the finite Python complexes values, in one loop."""
    out = []
    for z in values:
        if z == 0:
            out.append(1 + 0j)
            continue
        angle = math.atan2(z.imag, z.real) / k
        out.append(complex(math.cos(angle), math.sin(angle)))
    return out


def conjugate_exponent(p: float, k: int) -> float:
    """p/(p-k) when k < p, inf when p <= k: the dual exponent of p/k."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p!r}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if k < p:
        return p / (p - k)
    return math.inf


def holder_conjugate(q: float) -> float:
    """Classical conjugate q' with 1/q + 1/q' = 1; pairs 1 with inf."""
    if q == math.inf:
        return 1.0
    if not q >= 1.0:
        raise ValueError(f"q must be >= 1 or inf, got {q!r}")
    if q == 1.0:
        return math.inf
    return q / (q - 1.0)
