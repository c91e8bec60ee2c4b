import math
from fractions import Fraction

import numpy as np
import pytest

from oadiag.numerics import BudgetError
from oadiag.rademacher import (
    GeneralizedRademacher,
    _piece_sum,
    integrate_product,
    integrate_product_bruteforce,
    reduce_root_of_unity_sum,
)


# ---------------------------------------------------------------------------
# Step function evaluation
# ---------------------------------------------------------------------------

def test_eval_examples():
    assert GeneralizedRademacher(2, 1).eval(0.3) == 0   # value 1
    assert GeneralizedRademacher(2, 2).eval(0.6) == 0   # floor(2.4)=2, 2 mod 2
    assert GeneralizedRademacher(3, 1).eval(0.5) == 1   # 0.5 in (1/3, 2/3)


def test_eval_rejects_out_of_range():
    r = GeneralizedRademacher(2, 1)
    with pytest.raises(ValueError):
        r.eval(-0.1)
    with pytest.raises(ValueError):
        r.eval(1.5)


def test_breakpoint_takes_right_interval():
    r = GeneralizedRademacher(2, 1)
    assert r.eval(Fraction(1, 2)) == 1
    assert r.eval_recursive(Fraction(1, 2)) == 1
    assert r.eval(Fraction(0)) == 0
    # t = 1 has no interval on its right; it evaluates to omega^0 = 1 by convention
    assert r.eval(1) == 0
    assert r.eval_recursive(1) == 0


def test_digit_rule_matches_recursive_construction():
    for k in (2, 3, 5):
        for level in (1, 2, 3, 4):
            r = GeneralizedRademacher(k, level)
            for i in range(0, 602):
                t = Fraction(i, 601)
                assert r.eval(t) == r.eval_recursive(t)


def test_eval_is_never_zero_and_unimodular():
    rng = np.random.default_rng(42)
    for k in range(2, 7):
        for level in range(1, 6):
            r = GeneralizedRademacher(k, level)
            for t in rng.random(40):
                # the value omega^d is never zero and has modulus 1
                d = r.eval(float(t))
                assert type(d) is int and 0 <= d < k


def test_k2_reproduces_classical_rademacher():
    rng = np.random.default_rng(9)
    for level in range(1, 6):
        r = GeneralizedRademacher(2, level)
        for t in rng.random(200):
            s = math.sin(2 ** level * math.pi * t)
            if abs(s) < 1e-9:
                continue  # breakpoint neighborhood
            expected = 1.0 if s > 0 else -1.0
            assert (-1) ** r.eval(float(t)) == expected


def test_level_and_order_validation():
    with pytest.raises(ValueError):
        GeneralizedRademacher(1, 1)
    with pytest.raises(ValueError):
        GeneralizedRademacher(2, 0)


# ---------------------------------------------------------------------------
# Root-of-unity sums
# ---------------------------------------------------------------------------

def test_reduce_root_of_unity_sum():
    # uniform counts sum to zero
    for k in (2, 3, 4, 5, 6):
        assert reduce_root_of_unity_sum([7] * k, k) == 0
    # k = 4: 1 + omega^2 = 0, so counts (c, 0, c, 0) vanish
    assert reduce_root_of_unity_sum([3, 0, 3, 0], 4) == 0
    assert reduce_root_of_unity_sum([5, 0, 0], 3) == 5
    with pytest.raises(ValueError):
        reduce_root_of_unity_sum([1, 1, 0], 3)  # 1 + omega is irrational
    with pytest.raises(ValueError, match="expected 3 exponent counts, got 2"):
        reduce_root_of_unity_sum([1, 2], 3)
    with pytest.raises(ValueError, match="k must be an integer >= 1, got 0"):
        reduce_root_of_unity_sum([], 0)


def ramanujan_sum(k, m):
    """c_k(m) = sum of omega^(a m) over a prime to k, as an exact root-of-unity sum."""
    counts = [0] * k
    for a in range(1, k + 1):
        if math.gcd(a, k) == 1:
            counts[a * m % k] += 1
    return reduce_root_of_unity_sum(counts, k)


def primes_of(k):
    return [p for p in range(2, k + 1) if k % p == 0 and all(p % q for q in range(2, p))]


def mobius(k):
    primes = primes_of(k)
    return 0 if any(k % (p * p) == 0 for p in primes) else (-1) ** len(primes)


def test_known_ramanujan_sums():
    assert [ramanujan_sum(12, m) for m in range(12)] == [4, 0, 2, 0, -2, 0, -4, 0, -2, 0, 2, 0]
    for k in range(1, 31):
        phi = sum(math.gcd(a, k) == 1 for a in range(1, k + 1))
        assert ramanujan_sum(k, 0) == phi
        assert ramanujan_sum(k, 1) == mobius(k)


def test_vanishing_polygons_reduce_to_the_constant():
    # a rotated regular p-gon of k-th roots, p a prime of k, sums to 0, so N
    # plus integer multiples of them reduces to N; adding omega is irrational
    rng = np.random.default_rng(25)
    for k in range(1, 61):
        primes = primes_of(k)
        for _ in range(10):
            n = int(rng.integers(-100, 101))
            counts = [n] + [0] * (k - 1)
            for p in primes:
                for _ in range(int(rng.integers(0, 3))):
                    start, times = int(rng.integers(k)), int(rng.integers(-5, 6))
                    for j in range(p):
                        counts[(start + j * k // p) % k] += times
            assert reduce_root_of_unity_sum(counts, k) == n
            if k >= 3:
                counts[1] += 1
                with pytest.raises(ValueError, match="root-of-unity sum is not an integer"):
                    reduce_root_of_unity_sum(counts, k)


def test_bruteforce_at_a_divisor_rich_order():
    # k = 2 * 3 * 5 * 7 * 11 * 13: every one of its 64 divisors is squarefree
    assert integrate_product_bruteforce([1] * 30030, 30030) == 1


# ---------------------------------------------------------------------------
# Product integrals
# ---------------------------------------------------------------------------

def test_integrate_product_examples():
    assert integrate_product([1, 1], 2) == 1
    assert integrate_product([1, 2], 2) == 0
    assert integrate_product([1, 1, 2, 2], 4) == 0
    assert integrate_product_bruteforce([1, 1, 2, 2], 4) == 0


def test_integrate_product_exhaustive_small():
    import itertools
    for k in (2, 3):
        for levels in itertools.product(range(1, 4), repeat=k):
            rule = integrate_product(levels, k)
            brute = integrate_product_bruteforce(levels, k)
            expected = 1 if len(set(levels)) == 1 else 0
            assert rule == brute == expected


def test_integrate_product_arity_and_level_errors():
    with pytest.raises(ValueError):
        integrate_product([1, 1, 1], 2)
    with pytest.raises(ValueError):
        integrate_product([0, 1], 2)
    with pytest.raises(ValueError):
        integrate_product_bruteforce([1], 2)
    for integrate in (integrate_product, integrate_product_bruteforce):
        with pytest.raises(ValueError, match="k must be an integer >= 2, got 1"):
            integrate([1], 1)


def test_bruteforce_budget():
    with pytest.raises(BudgetError):
        integrate_product_bruteforce([25, 25], 2)


def test_step_product_agrees_with_eval_enumeration():
    # both product integrals match a literal average of omega^(sum of eval digits)
    for k, levels in [(2, (1, 2)), (2, (2, 2)), (3, (1, 1, 2)), (3, (2, 2, 2)),
                      (4, (2, 2, 1, 1)), (4, (1, 1, 1, 1))]:
        depth = max(levels)
        pieces = k ** depth
        acc = 0j
        for m in range(pieces):
            t = Fraction(2 * m + 1, 2 * pieces)
            d = sum(GeneralizedRademacher(k, level).eval(t) for level in levels)
            acc += complex(math.cos(2 * math.pi * d / k), math.sin(2 * math.pi * d / k))
        literal = acc / pieces
        assert abs(integrate_product(levels, k) - literal) < 1e-12
        assert abs(integrate_product_bruteforce(levels, k) - literal) < 1e-12


@pytest.mark.parametrize("k, levels", [(3, (2, 2, 1)), (4, (3, 1, 3, 3)), (3, (2, 2, 2)),
                                       (2, (1, 2, 1, 2)), (3, (1, 3, 1, 3, 1, 3)),
                                       (5, (1, 2, 1, 2, 2))])
def test_piece_sum_groups_repeated_levels(k, levels):
    # one pass per distinct level gives the sum of one pass per level; where
    # k divides every level's count the sum is k^depth, not 0
    depth = max(levels)
    m = np.arange(k ** depth, dtype=np.int64)
    exponents = sum((m // k ** (depth - level)) % k for level in levels)
    counts = np.bincount(exponents % k, minlength=k)
    assert _piece_sum(levels, k, depth) == reduce_root_of_unity_sum(list(counts), k)
