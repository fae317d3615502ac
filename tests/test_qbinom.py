"""Gaussian binomials against the independent product-formula oracle."""

import math
from fractions import Fraction

import pytest

from qkneser import qbinom
from qkneser.laurent import ONE, ZERO, LaurentPoly
from qkneser.qbinom import gauss, gauss_eval_product


def test_convention_lower_index_zero():
    for n in (-5, 0, 7):
        assert gauss(n, 0) == ONE


def test_small_values_frozen():
    assert gauss(4, 2) == LaurentPoly({4: 1, 3: 1, 2: 2, 1: 1, 0: 1})
    assert gauss(2, 1) == LaurentPoly({1: 1, 0: 1})
    assert gauss(-1, 1) == LaurentPoly({-1: -1})
    assert gauss(3, 5) == ZERO
    assert gauss(-2, 1) == LaurentPoly({-1: -1, -2: -1})


def test_vanishing_band():
    for n in range(0, 8):
        for i in range(n + 1, n + 4):
            assert gauss(n, i) == ZERO


def test_rejects_negative_lower_index():
    with pytest.raises(ValueError):
        gauss(4, -1)
    with pytest.raises(ValueError):
        gauss_eval_product(4, -1, 2)


def test_product_oracle_examples():
    assert gauss_eval_product(4, 2, 2) == 35  # (15*7)/(3*1)
    for n in (-3, 0, 9):
        assert gauss_eval_product(n, 0, 5) == 1
    assert gauss_eval_product(-2, 1, 2) == Fraction(-3, 4)
    assert gauss(-2, 1).evaluate(2) == Fraction(-3, 4)


def test_product_oracle_rejects_bad_point():
    with pytest.raises(ValueError):
        gauss_eval_product(4, 2, 1)
    with pytest.raises(ValueError):
        gauss_eval_product(4, 2, 0)


def test_oracle_agreement_full_grid():
    # the symbolic computation and the defining product must agree everywhere
    for n in range(-8, 13):
        for i in range(0, 9):
            poly = gauss(n, i)
            for q0 in (2, 3, 4, 5):
                assert poly.evaluate(q0) == gauss_eval_product(n, i, q0), (n, i, q0)


def test_symmetry():
    for n in range(0, 13):
        for i in range(0, n + 1):
            assert gauss(n, i) == gauss(n, n - i)


def test_degree_and_palindromicity():
    for n in range(0, 13):
        for i in range(0, n + 1):
            poly = gauss(n, i)
            assert poly.valuation() == 0
            assert poly.degree() == i * (n - i)
            coeffs = [poly.coefficient(e) for e in range(i * (n - i) + 1)]
            assert coeffs == coeffs[::-1]
            assert coeffs[0] == coeffs[-1] == 1
            assert all(c >= 1 for c in (coeffs[0], coeffs[-1]))


def test_specialization_at_one_is_binomial():
    for n in range(0, 13):
        for i in range(0, n + 1):
            assert gauss(n, i).coefficient_sum() == math.comb(n, i)


def test_pascal_recurrence_everywhere():
    # genuine for n <= 0, where the computation path is the reflection
    for n in range(-8, 13):
        for i in range(1, 9):
            assert gauss(n, i) == gauss(n - 1, i - 1) + gauss(n - 1, i).shift(i), (n, i)


def test_negative_top_is_laurent():
    poly = gauss(-3, 2)
    assert poly.degree() < 0  # every exponent negative here
    # reflection lands in the polynomial regime: top = i - 1 - n >= i
    assert gauss(2 - 1 - (-3), 2).valuation() == 0


def test_deep_cells_need_no_recursion():
    # a recursive q-Pascal evaluation of [1100 1] or [1100 1099] nests about
    # 1100 calls deep, past the interpreter's default limit of 1000
    assert gauss(1100, 1) == gauss(1100, 1099) == LaurentPoly({e: 1 for e in range(1100)})


def test_memo_holds_the_cells_of_the_recursion():
    # [n i] reaches [r 0] for 0 <= r <= n-i and [c+r c] for 1 <= c <= i,
    # -1 <= r <= n-i; the bottom-up fill stores exactly these cells
    gauss.cache_clear()
    gauss(30, 12)
    assert gauss.cache_info().currsize == (30 - 12 + 1) + 12 * (30 - 12 + 2)
    gauss(-5, 14)  # itself, and [18 14] adds its columns 13 and 14 (r = -1..4)
    assert gauss.cache_info().currsize == 259 + 1 + 2 * 6
    gauss.cache_clear()


def test_oversized_memo_is_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(qbinom, "MEMO_BYTE_LIMIT", 10**4)
    gauss.cache_clear()
    with pytest.raises(ValueError, match="memo"):
        gauss(3000, 2)
    with pytest.raises(ValueError, match="memo"):
        gauss(-1200, 600)
    assert gauss.cache_info().currsize == 0
    assert gauss(6, 3) == gauss(5, 2) + gauss(5, 3).shift(3)  # small calls still run
