import math
from fractions import Fraction

import numpy as np
import pytest

from oadiag.numerics import BudgetError
from oadiag.rademacher import (
    CycloScalar,
    GeneralizedRademacher,
    cyclotomic_polynomial,
    integrate_product,
    integrate_product_bruteforce,
    integrate_step_product,
    reduce_root_of_unity_sum,
)


# ---------------------------------------------------------------------------
# CycloScalar
# ---------------------------------------------------------------------------

def test_cyclo_multiplication_is_exponent_addition():
    a = CycloScalar(5, 2)
    b = CycloScalar(5, 4)
    assert (a * b).exponent == 1
    assert (a * b).k == 5


def test_cyclo_modulus_is_one_unless_zero():
    for k in range(2, 7):
        for e in range(k):
            assert abs(CycloScalar(k, e)) == 1.0
    assert abs(CycloScalar.zero(3)) == 0.0


def test_cyclo_zero_absorbs():
    z = CycloScalar.zero(4) * CycloScalar(4, 3)
    assert z.is_zero


def test_cyclo_mixed_order_rejected():
    with pytest.raises(ValueError):
        CycloScalar(3, 1) * CycloScalar(4, 1)


def test_cyclo_conjugate_and_power():
    w = CycloScalar(6, 2)
    assert w.conjugate().exponent == 4
    assert (w ** 3).exponent == 0
    assert abs(w.to_complex() - complex(math.cos(2 * math.pi / 3),
                                        math.sin(2 * math.pi / 3))) < 1e-15


def test_cyclo_requires_k_at_least_two():
    with pytest.raises(ValueError):
        CycloScalar(1, 0)


# ---------------------------------------------------------------------------
# Step function evaluation
# ---------------------------------------------------------------------------

def test_eval_examples():
    assert GeneralizedRademacher(2, 1).eval(0.3).exponent == 0   # value 1
    assert GeneralizedRademacher(2, 2).eval(0.6).exponent == 0   # floor(2.4)=2, 2 mod 2
    assert GeneralizedRademacher(3, 1).eval(0.5).exponent == 1   # 0.5 in (1/3, 2/3)


def test_eval_rejects_out_of_range():
    r = GeneralizedRademacher(2, 1)
    with pytest.raises(ValueError):
        r.eval(-0.1)
    with pytest.raises(ValueError):
        r.eval(1.5)


def test_breakpoint_takes_right_interval():
    r = GeneralizedRademacher(2, 1)
    assert r.eval(Fraction(1, 2)).exponent == 1
    assert r.eval_recursive(Fraction(1, 2)).exponent == 1
    assert r.eval(Fraction(0)).exponent == 0
    # t = 1 has no interval on its right; it evaluates to 1 by convention
    assert r.eval(1).exponent == 0
    assert r.eval_recursive(1).exponent == 0


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
                value = r.eval(float(t))
                assert not value.is_zero
                assert abs(value) == 1.0


def test_k2_reproduces_classical_rademacher():
    rng = np.random.default_rng(9)
    for level in range(1, 6):
        r = GeneralizedRademacher(2, level)
        for t in rng.random(200):
            s = math.sin(2 ** level * math.pi * t)
            if abs(s) < 1e-9:
                continue  # breakpoint neighborhood
            expected = 1.0 if s > 0 else -1.0
            assert r.eval(float(t)).to_complex().real == pytest.approx(expected)


def test_level_and_order_validation():
    with pytest.raises(ValueError):
        GeneralizedRademacher(1, 1)
    with pytest.raises(ValueError):
        GeneralizedRademacher(2, 0)


# ---------------------------------------------------------------------------
# Cyclotomic reduction
# ---------------------------------------------------------------------------

def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_reduce_root_of_unity_sum():
    # uniform counts sum to zero
    for k in (2, 3, 4, 5, 6):
        assert reduce_root_of_unity_sum([7] * k, k) == 0
    # k = 4: 1 + omega^2 = 0, so counts (c, 0, c, 0) vanish
    assert reduce_root_of_unity_sum([3, 0, 3, 0], 4) == 0
    assert reduce_root_of_unity_sum([5, 0, 0], 3) == 5
    with pytest.raises(ValueError):
        reduce_root_of_unity_sum([1, 1, 0], 3)  # 1 + omega is irrational


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


def test_bruteforce_budget():
    with pytest.raises(BudgetError):
        integrate_product_bruteforce([25, 25], 2)


def test_integrate_step_product_examples():
    one2 = CycloScalar.one(2)
    assert integrate_step_product([(1, one2)], 2, 1) == 0
    assert integrate_step_product([(1, one2), (1, one2)], 2, 1) == 1
    one3 = CycloScalar.one(3)
    assert integrate_step_product([(1, one3), (2, one3), (2, one3)], 3, 2) == 0


def test_integrate_step_product_coefficients():
    one2 = CycloScalar.one(2)
    minus = CycloScalar(2, 1)
    # (-1) * r_1 * r_1 integrates to -1
    assert integrate_step_product([(1, minus), (1, one2)], 2, 1) == pytest.approx(-1.0)
    # complex scalar coefficients ride along
    value = integrate_step_product([(1, 2.5j), (1, one2)], 2, 2)
    assert value == pytest.approx(2.5j)


def test_integrate_step_product_depth_and_order_errors():
    with pytest.raises(ValueError):
        integrate_step_product([(3, CycloScalar.one(2))], 2, 2)
    with pytest.raises(ValueError):
        integrate_step_product([(1, CycloScalar.one(3))], 2, 1)
    with pytest.raises(BudgetError):
        integrate_step_product([(1, CycloScalar.one(2))], 2, 40)


def test_step_product_agrees_with_eval_enumeration():
    # the integral engine matches a literal average of eval() products
    for k, levels in [(2, (1, 2)), (3, (1, 1, 2)), (4, (2, 2, 1, 1))]:
        depth = max(levels)
        pieces = k ** depth
        acc = 0j
        for m in range(pieces):
            t = Fraction(2 * m + 1, 2 * pieces)
            piece = CycloScalar.one(k)
            for level in levels:
                piece = piece * GeneralizedRademacher(k, level).eval(t)
            acc += piece.to_complex()
        literal = acc / pieces
        engine = integrate_step_product([(lv, CycloScalar.one(k)) for lv in levels], k, depth)
        assert abs(engine - literal) < 1e-12
        assert integrate_product(levels, k) == pytest.approx(engine.real, abs=1e-12)
