"""Scalar and norm primitives shared by every other module.

Scalars are complex throughout: real inputs are the common case, but the
root-of-unity averaging used elsewhere forces complex intermediates as soon
as the tensor degree exceeds two.  Values with NaN or Inf components are
rejected at the boundary of every operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

Scalar = complex

__all__ = [
    "Scalar",
    "LpParams",
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
    Its one message names the budget, the amount asked for and the cap."""

    def __init__(self, budget: str, asked, unit: str, cap) -> None:
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
# 2^k n^k polynomial evaluations of one polarization.
MAX_POLARIZE_COST = 4 * 10 ** 6
# Degree k of a polarization.
MAX_POLARIZE_DEGREE = 6
# Box tuples one sup-norm enclosure (oapoly.multilinear_norm_grid) may bound.
MAX_ENCLOSURE_BOXES = 10 ** 6
# Records one CLI command may produce.
MAX_CASES = 20000
# Steps of one certified norm_numeric restart (k < p); the certificate's own
# step count, derived from its first steps, is checked against it.
MAX_ASCENT_STEPS = 2 * 10 ** 5
# Relative objective bound at which norm_numeric's certificate stops a
# restart: 1e-3 of the 1e-6 isometry tolerance.
ASCENT_CERTIFICATE_TARGET = 1e-9


def ensure_finite(values: Union[Sequence, np.ndarray, complex, float]) -> np.ndarray:
    """Return the input as an array, rejecting NaN/Inf components."""
    arr = np.atleast_1d(np.asarray(values))
    if arr.size and not np.all(np.isfinite(arr)):
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
    def diagonal_exponent(self) -> float:
        """Exponent carrying the diagonal-tensor norm: p/k, or 1 when p <= k."""
        return self.p / self.k if self.k_less_than_p else 1.0

    @property
    def dual_exponent(self) -> float:
        """Exponent carrying the polynomial norm: p/(p-k), or inf when p <= k."""
        return conjugate_exponent(self.p, self.k)


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
    if q == math.inf:
        return float(np.max(mags))
    if not (isinstance(q, (int, float)) and q >= 1.0):
        raise ValueError(f"q must be >= 1 or inf, got {q!r}")
    top = float(np.max(mags))
    if top == 0.0:
        return 0.0
    # scale by the max so powers never overflow and the top coordinate is exact
    ratios = mags.reshape(-1) / top
    return top * math.fsum(ratios ** float(q)) ** (1.0 / float(q))


def phase(a: Scalar) -> Scalar:
    """a/|a|, with phase(0) = 1 so decompositions of zero coefficients stay defined."""
    z = complex(a)
    ensure_finite(z)
    m = abs(z)
    if m == 0.0:
        return complex(1.0)
    return z / m


def phase_root(a: Scalar, k: int) -> Scalar:
    """Principal k-th root of the phase of a: the s with s^k = a/|a|, |s| = 1.

    Returns 1 for a = 0 (same convention as phase).  Built from math.atan2,
    which keeps subnormal components well-defined where cmath.phase raises.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    z = complex(a)
    ensure_finite(z)
    if z == 0:
        return complex(1.0)
    angle = math.atan2(z.imag, z.real) / k
    return complex(math.cos(angle), math.sin(angle))


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
