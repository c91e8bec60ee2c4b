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
from typing import List, Sequence, Tuple, Union

import numpy as np

from .numerics import MAX_PIECES, check_budget

__all__ = [
    "GeneralizedRademacher",
    "reduce_root_of_unity_sum",
    "integrate_product",
    "integrate_product_bruteforce",
]


RationalLike = Union[int, float, Fraction]


def _as_fraction(t: RationalLike) -> Fraction:
    """Exact rational form of an evaluation point t in [0, 1]; floats convert
    via their binary value."""
    if isinstance(t, float) and not math.isfinite(t):
        raise ValueError(f"non-finite evaluation point {t!r}")
    if not isinstance(t, (int, float, Fraction)):
        raise TypeError(f"evaluation point must be int, float or Fraction, got {type(t)!r}")
    tq = Fraction(t)
    if tq < 0 or tq > 1:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    return tq


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
        m = math.floor(tq * self.k ** self.level)
        return m % self.k

    def eval_recursive(self, t: RationalLike) -> int:
        """Independent evaluation walking the recursive k-adic subdivision.

        Descends level by level, at each step locating t in one of the k
        equal subintervals of the current interval; the value is that of the
        final subinterval reached at this function's level.
        """
        tq = _as_fraction(t)
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

def _prime_divisors(k: int) -> List[int]:
    """The distinct primes of k >= 1, by trial division."""
    primes, rest, p = [], k, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    return primes


def reduce_root_of_unity_sum(counts: Sequence[int], k: int) -> int:
    """Exact integer value of f(omega) = sum_e counts[e] omega^e, omega = e^{2 pi i/k}.

    f(omega) is an algebraic integer, so it is rational exactly when it is an
    integer N, and exactly when its Galois conjugates f(omega^a), a prime to
    k, all equal N.  The reduction keeps f's values at these primitive k-th
    roots and drops the others: for each prime p of k, replacing g by p g
    minus g's residue sums modulo k/p, tiled to length k, multiplies g's
    value at omega^j by p when p does not divide j and by 0 when it does.
    After all primes, f has become rad(k) e f and the unit vector rad(k) e,
    where rad(k) is the product of the primes of k and
    e = (1/k) sum_m c_k(m) x^m, with c_k the Ramanujan sums, is the
    idempotent of Q[x]/(x^k - 1) that is 1 at the primitive roots and 0 at
    the others.  So the conjugates all equal N exactly when the first vector
    is N times the second, entry by entry; entry 0 of the second is
    phi(rad(k)).  The cost is about 2 k omega(k) exact integer operations,
    omega(k) the number of primes of k, whatever the counts are.  A sum that
    is not rational, which no step-product integral gives, is reported as an
    error.
    """
    if len(counts) != k:
        raise ValueError(f"expected {k} exponent counts, got {len(counts)}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    primitive = [int(c) for c in counts]
    ramanujan = [1] + [0] * (k - 1)
    for p in _prime_divisors(k):
        d = k // p
        primitive, ramanujan = [[p * a - b for a, b in zip(g, [sum(g[r::d]) for r in range(d)] * p)]
                                for g in (primitive, ramanujan)]
    value, rem = divmod(primitive[0], ramanujan[0])
    if rem or primitive != [value * c for c in ramanujan]:
        raise ValueError("root-of-unity sum is not an integer")
    return value


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
    return reduce_root_of_unity_sum(counts, k)


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
    value, rem = divmod(_piece_sum(lv, k, depth), k ** depth)
    if rem:
        raise AssertionError("piecewise sum of a product integral must be an integer")
    return value

