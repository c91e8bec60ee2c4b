"""Generalized k-ary Rademacher step functions with exact product integrals.

For a fixed k >= 2 the level-n function r_n is constant on each k-adic
interval [m/k^n, (m+1)/k^n) where it takes the root-of-unity value
omega^(m mod k), omega = e^{2 pi i / k}.  Products r_{n_1} ... r_{n_k}
integrate over [0,1] to 1 when all levels coincide and to 0 otherwise, and
both routes to that result implemented here (multiplicity rule, direct
piecewise summation) are exact integer computations: omega is never
materialized as a float inside an integral.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .numerics import MAX_PIECES, Scalar, check_budget

__all__ = [
    "CycloScalar",
    "GeneralizedRademacher",
    "cyclotomic_polynomial",
    "reduce_root_of_unity_sum",
    "integrate_product",
    "integrate_product_bruteforce",
    "integrate_step_product",
]


@dataclass(frozen=True)
class CycloScalar:
    """omega^exponent with omega = e^{2 pi i / k}, or the zero scalar.

    Closed under multiplication: exponents add mod k.  Every non-zero element
    has modulus exactly 1.
    """

    k: int
    exponent: int = 0
    is_zero: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"CycloScalar requires an integer k >= 2, got {self.k!r}")
        normalized = 0 if self.is_zero else self.exponent % self.k
        object.__setattr__(self, "exponent", normalized)

    @classmethod
    def one(cls, k: int) -> "CycloScalar":
        return cls(k, 0)

    @classmethod
    def zero(cls, k: int) -> "CycloScalar":
        return cls(k, 0, True)

    def __mul__(self, other: "CycloScalar") -> "CycloScalar":
        if not isinstance(other, CycloScalar):
            return NotImplemented
        if self.k != other.k:
            raise ValueError("cannot multiply roots of unity of different order")
        if self.is_zero or other.is_zero:
            return CycloScalar.zero(self.k)
        return CycloScalar(self.k, self.exponent + other.exponent)

    def __pow__(self, m: int) -> "CycloScalar":
        if self.is_zero:
            if m == 0:
                return CycloScalar.one(self.k)
            return self
        return CycloScalar(self.k, self.exponent * m)

    def conjugate(self) -> "CycloScalar":
        if self.is_zero:
            return self
        return CycloScalar(self.k, -self.exponent)

    def __abs__(self) -> float:
        return 0.0 if self.is_zero else 1.0

    def to_complex(self) -> Scalar:
        if self.is_zero:
            return 0j
        if self.exponent == 0:
            return 1 + 0j
        return cmath.exp(2j * math.pi * self.exponent / self.k)


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
    omega^(m mod k), i.e. the exponent is the least-significant base-k digit
    of m.  Intervals are half-open [m/k^n, (m+1)/k^n): a breakpoint takes the
    value of the interval to its right, and t = 1 evaluates to 1.  The
    tie-break is a measure-zero choice that keeps evaluation total.
    """

    k: int
    level: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"k must be an integer >= 2, got {self.k!r}")
        if not isinstance(self.level, int) or self.level < 1:
            raise ValueError(f"level must be an integer >= 1, got {self.level!r}")

    def eval(self, t: RationalLike) -> CycloScalar:
        """Digit rule: exponent = floor(t * k^n) mod k.  Exact for rational t."""
        tq = _as_fraction(t)
        if tq < 0 or tq > 1:
            raise ValueError(f"t must lie in [0, 1], got {t!r}")
        m = math.floor(tq * self.k ** self.level)
        return CycloScalar(self.k, m % self.k)

    def eval_recursive(self, t: RationalLike) -> CycloScalar:
        """Independent evaluation walking the recursive k-adic subdivision.

        Descends level by level, at each step locating t in one of the k
        equal subintervals of the current interval; the value is that of the
        final subinterval reached at this function's level.
        """
        tq = _as_fraction(t)
        if tq < 0 or tq > 1:
            raise ValueError(f"t must lie in [0, 1], got {t!r}")
        if tq == 1:
            return CycloScalar(self.k, 0)
        lo = Fraction(0)
        width = Fraction(1)
        j = 0
        for _ in range(self.level):
            width /= self.k
            j = int((tq - lo) // width)
            lo += j * width
        return CycloScalar(self.k, j)


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
    lv = tuple(int(x) for x in levels)
    if len(lv) != k:
        raise ValueError(f"exactly {k} levels required, got {len(lv)}")
    if any(x < 1 for x in lv):
        raise ValueError("levels must be >= 1")
    return lv


def _piece_sum(levels: Sequence[int], k: int, depth: int) -> int:
    """Exact integer sum of prod_j r_{levels[j]} over the k^depth pieces.

    The value on piece m is omega^e, where e adds up the base-k digits of m
    that the levels select; the exponent histogram is reduced exactly.
    """
    pieces = k ** depth
    check_budget("piece", pieces, "pieces", MAX_PIECES)
    m = np.arange(pieces, dtype=np.int64)
    exponents = np.zeros(pieces, dtype=np.int64)
    for level in levels:
        exponents += (m // k ** (depth - level)) % k
    counts = np.bincount(exponents % k, minlength=k)
    return reduce_root_of_unity_sum([int(c) for c in counts], k)


def integrate_product(levels: Sequence[int], k: int) -> int:
    """Exact integral over [0,1] of r_{n_1} ... r_{n_k}: 1 or 0.

    Multiplicity rule: group the levels; each group of size c contributes the
    factor (1/k) sum_d omega^{c d}, which is 1 iff k divides c and 0
    otherwise.  Since the group sizes add up to k, the product is 1 exactly
    when all levels are equal.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
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
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    lv = _check_levels(levels, k)
    depth = max(lv)
    value = Fraction(_piece_sum(lv, k, depth), k ** depth)
    if value.denominator != 1:
        raise AssertionError("piecewise sum of a product integral must be an integer")
    return int(value)


def integrate_step_product(factors: Iterable[Tuple[int, Union[CycloScalar, Scalar]]],
                           k: int, depth: int) -> Scalar:
    """Integral of prod_j (coeff_j * r_{level_j}) as an average over pieces.

    The integrand is constant on the k^depth pieces of the level-`depth`
    subdivision, so the integral is the exact finite average of the piece
    values.  Coefficients that are CycloScalars stay in exact root-of-unity
    arithmetic; plain complex coefficients multiply in floating point at the
    very end.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    fac = [(int(level), coeff) for level, coeff in factors]
    if any(level < 1 for level, _ in fac):
        raise ValueError("levels must be >= 1")
    max_level = max((level for level, _ in fac), default=0)
    if depth < max_level:
        raise ValueError(f"depth {depth} is below the max level {max_level}")
    levels = [level for level, _ in fac]
    average = Fraction(_piece_sum(levels, k, depth), k ** depth)

    coeff_exact = CycloScalar.one(k)
    coeff_float = 1 + 0j
    for _, coeff in fac:
        if isinstance(coeff, CycloScalar):
            if coeff.k != k:
                raise ValueError("coefficient root order does not match k")
            coeff_exact = coeff_exact * coeff
        else:
            coeff_float *= complex(coeff)
    return coeff_exact.to_complex() * coeff_float * float(average)
