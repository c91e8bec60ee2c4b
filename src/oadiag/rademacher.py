"""Generalized k-ary Rademacher step functions with exact product integrals.

For a fixed k >= 2 the level-n function r_n is constant on each k-adic
interval [m/k^n, (m+1)/k^n) where it takes the root-of-unity value
omega^(m mod k), omega = e^{2 pi i / k}; evaluation returns the exponent
m mod k, an int.  Products r_{n_1} ... r_{n_k} integrate over [0,1] to 1
when all levels coincide and to 0 otherwise, and both routes to that result
implemented here (multiplicity rule, direct piecewise summation) are exact
integer computations: omega is never materialized as a float.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple, Union

import numpy as np

from .numerics import MAX_PIECES, check_budget

__all__ = [
    "GeneralizedRademacher",
    "cyclotomic_polynomial",
    "reduce_root_of_unity_sum",
    "integrate_product",
    "integrate_product_bruteforce",
]


RationalLike = Union[int, float, Fraction]


def _as_fraction(t: RationalLike) -> Fraction:
    """Exact rational form of t; floats convert via their binary value."""
    if isinstance(t, Fraction):
        return t
    if isinstance(t, int):
        return Fraction(t)
    if isinstance(t, float):
        if not math.isfinite(t):
            raise ValueError(f"non-finite evaluation point {t!r}")
        return Fraction(t)
    raise TypeError(f"evaluation point must be int, float or Fraction, got {type(t)!r}")


@dataclass(frozen=True)
class GeneralizedRademacher:
    """The level-n step function for order k.

    On the m-th interval of the level-n k-adic subdivision the value is
    omega^(m mod k); eval returns the exponent m mod k, the least-significant
    base-k digit of m.  Intervals are half-open [m/k^n, (m+1)/k^n): a
    breakpoint takes the value of the interval to its right, and t = 1
    evaluates to exponent 0.  The tie-break is a measure-zero choice that
    keeps evaluation total.
    """

    k: int
    level: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"k must be an integer >= 2, got {self.k!r}")
        if not isinstance(self.level, int) or self.level < 1:
            raise ValueError(f"level must be an integer >= 1, got {self.level!r}")

    def eval(self, t: RationalLike) -> int:
        """Digit rule: exponent = floor(t * k^n) mod k.  Exact for rational t."""
        tq = _as_fraction(t)
        if tq < 0 or tq > 1:
            raise ValueError(f"t must lie in [0, 1], got {t!r}")
        m = math.floor(tq * self.k ** self.level)
        return m % self.k

    def eval_recursive(self, t: RationalLike) -> int:
        """Independent evaluation walking the recursive k-adic subdivision.

        Descends level by level, at each step locating t in one of the k
        equal subintervals of the current interval; the value is that of the
        final subinterval reached at this function's level.
        """
        tq = _as_fraction(t)
        if tq < 0 or tq > 1:
            raise ValueError(f"t must lie in [0, 1], got {t!r}")
        if tq == 1:
            return 0
        lo = Fraction(0)
        width = Fraction(1)
        j = 0
        for _ in range(self.level):
            width /= self.k
            j = int((tq - lo) // width)
            lo += j * width
        return j


# ---------------------------------------------------------------------------
# Exact sums of roots of unity
# ---------------------------------------------------------------------------

def _poly_divmod_exact(num: Tuple[int, ...], den: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Quotient and remainder of integer polynomials; den must be monic."""
    num_l = list(num)
    deg_d = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * max(len(num_l) - deg_d, 1)
    for i in range(len(num_l) - 1, deg_d - 1, -1):
        c = num_l[i]
        if c == 0:
            continue
        quot[i - deg_d] = c
        for j, dj in enumerate(den):
            num_l[i - deg_d + j] -= c * dj
    rem = num_l[:deg_d] if deg_d > 0 else [0]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> Tuple[int, ...]:
    """Integer coefficients (ascending) of the k-th cyclotomic polynomial.

    Computed by exact division of x^k - 1 by the product of all lower-order
    cyclotomic polynomials at proper divisors of k.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if k == 1:
        return (-1, 1)
    poly = tuple([-1] + [0] * (k - 1) + [1])  # x^k - 1
    for d in range(1, k):
        if k % d == 0:
            poly, rem = _poly_divmod_exact(poly, cyclotomic_polynomial(d))
            if rem != (0,):
                raise AssertionError("cyclotomic division left a remainder")
    return poly


def reduce_root_of_unity_sum(counts: Sequence[int], k: int) -> int:
    """Exact integer value of sum_e counts[e] * omega^e, omega = e^{2 pi i/k}.

    The counts polynomial is reduced modulo the k-th cyclotomic polynomial;
    a constant remainder is the exact value.  A non-constant remainder means
    the sum is not rational, which cannot arise from step-product integrals,
    so it is reported as an error.
    """
    if len(counts) != k:
        raise ValueError(f"expected {k} exponent counts, got {len(counts)}")
    phi = cyclotomic_polynomial(k)
    _, rem = _poly_divmod_exact(tuple(int(c) for c in counts), phi)
    if len(rem) > 1:
        raise ValueError("root-of-unity sum is not an integer")
    return rem[0]


# ---------------------------------------------------------------------------
# Product integrals
# ---------------------------------------------------------------------------

def _check_levels(levels: Sequence[int], k: int) -> Tuple[int, ...]:
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    lv = tuple(int(x) for x in levels)
    if len(lv) != k:
        raise ValueError(f"exactly {k} levels required, got {len(lv)}")
    if any(x < 1 for x in lv):
        raise ValueError("levels must be >= 1")
    return lv


def _piece_sum(levels: Sequence[int], k: int, depth: int) -> int:
    """Exact integer sum of prod_j r_{levels[j]} over the k^depth pieces.

    The value on piece m is omega^e, where e adds up the base-k digits of m
    that the levels select, each as often as it is selected, so one pass per
    distinct level; the exponent histogram is reduced exactly.
    """
    pieces = k ** depth
    check_budget("piece", pieces, "pieces", MAX_PIECES)
    m = np.arange(pieces, dtype=np.int64)
    exponents = np.zeros(pieces, dtype=np.int64)
    for level, count in Counter(levels).items():
        exponents += count * ((m // k ** (depth - level)) % k)
    counts = np.bincount(exponents % k, minlength=k)
    return reduce_root_of_unity_sum([int(c) for c in counts], k)


def integrate_product(levels: Sequence[int], k: int) -> int:
    """Exact integral over [0,1] of r_{n_1} ... r_{n_k}: 1 or 0.

    Multiplicity rule: group the levels; each group of size c contributes the
    factor (1/k) sum_d omega^{c d}, which is 1 iff k divides c and 0
    otherwise.  Since the group sizes add up to k, the product is 1 exactly
    when all levels are equal.
    """
    lv = _check_levels(levels, k)
    for c in Counter(lv).values():
        if c % k != 0:
            return 0
    return 1


def integrate_product_bruteforce(levels: Sequence[int], k: int) -> int:
    """Oracle for integrate_product: direct sum over the constancy pieces.

    The integrand is constant on the k^(max level) pieces of the deepest
    subdivision.  Each piece value is a root of unity whose exponent is read
    off the piece index digits; the accumulated exponent histogram is then
    reduced exactly, never touching floating point.
    """
    lv = _check_levels(levels, k)
    depth = max(lv)
    value = Fraction(_piece_sum(lv, k, depth), k ** depth)
    if value.denominator != 1:
        raise AssertionError("piecewise sum of a product integral must be an integer")
    return int(value)

