"""Gaussian binomials against the independent product-formula oracle."""

import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from qkneser import identities, qbinom
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
    # the arguments are checked before the memo, which holds (4, 1, 2)
    # under a key equal to (4, True, 2)
    assert gauss_eval_product(4, 1, 2) == 15
    for i, q0 in ((True, 2), (False, 2), (1, True), (1, 2.0)):
        with pytest.raises(ValueError):
            gauss_eval_product(4, i, q0)


def test_product_oracle_computes_each_point_once(monkeypatch):
    # the pascal and lemma1 cross-checks of `verify identities --max 18`
    # ask for 10212 products at 2625 distinct (n, i, q0)
    computed = []
    product = qbinom._eval_product.__wrapped__

    def spy(n, i, q0):
        computed.append((n, i, q0))
        return product(n, i, q0)

    monkeypatch.setattr(qbinom, "_eval_product", lru_cache(maxsize=None)(spy))
    asked = []
    monkeypatch.setattr(identities, "gauss_eval_product", lambda *args: asked.append(args) or gauss_eval_product(*args))
    bounds = identities.GridBounds(n_min=-18, n_max=18, i_min=0, i_max=18, mat_max=18)
    assert identities.run_grid("pascal", bounds).passed and identities.run_grid("lemma1", bounds).passed
    assert len(asked) == 10212
    assert len(computed) == len(set(computed)) == len(set(asked)) == 2625


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


def test_memo_estimate_prices_slots_and_stays_an_upper_bound():
    # one W-byte slot per coefficient plus the objects of each cell: gauss
    # 8000 1 (about 70 MB of images) fits, gauss 100000 1 (16 GB) does not
    assert qbinom._memo_bytes(8000, 1) < qbinom.MEMO_BYTE_LIMIT < qbinom._memo_bytes(100000, 1)
    for n, i in [(500, 5), (120, 40), (40, 20), (10, 5)]:
        gauss.cache_clear()
        tracemalloc.start()
        try:
            gauss(n, i)
            used = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gauss.cache_clear()
        assert used <= qbinom._memo_bytes(n, i), (n, i)


def _pascal_reference(top):
    # [n i] for 0 <= i <= n <= top as coefficient lists, by q-Pascal on lists
    cells = {(n, 0): [1] for n in range(top + 1)}
    for n in range(1, top + 1):
        for i in range(1, n + 1):
            left = cells[(n - 1, i - 1)]
            right = [0] * i + cells[(n - 1, i)] if i < n else []
            size = max(len(left), len(right))
            cells[(n, i)] = [a + b for a, b in zip(left + [0] * (size - len(left)), right + [0] * (size - len(right)))]
    return cells


_REFERENCE_40 = _pascal_reference(40)


def _check_memo_against_reference(order):
    gauss.cache_clear()
    try:
        for n, i in order:
            gauss(n, i)
        for (n, i), coeffs in _REFERENCE_40.items():
            poly = gauss(n, i)
            assert (poly.valuation(), poly.degree()) == (0, i * (n - i)), (n, i)
            assert [poly.coefficient(e) for e in range(i * (n - i) + 1)] == coeffs, (n, i)
            for q0 in (2, 3, 7):
                assert poly.evaluate(q0) == gauss_eval_product(n, i, q0), (n, i, q0)
    finally:
        gauss.cache_clear()


@pytest.mark.parametrize("order", ["ascending", "widest first", "shuffled"])
def test_every_memo_cell_up_to_40_matches_list_pascal(order):
    # The fills run at the width of their own top cell and re-slot what an
    # earlier fill left at another width; the order of the calls decides
    # which cells are re-slotted, widened or narrowed.
    cells = sorted(_REFERENCE_40)
    if order == "widest first":
        cells.sort(key=lambda cell: -math.comb(*cell))
    elif order == "shuffled":
        random.Random(40).shuffle(cells)
    _check_memo_against_reference(cells)


def test_a_fill_one_byte_narrower_fails_the_memo_check(monkeypatch):
    # Negative control: slots one byte short of C(n, i) must break cells.
    exact = qbinom._slot_bytes
    monkeypatch.setattr(qbinom, "_slot_bytes", lambda bound: max(exact(bound) - 1, 1))
    with pytest.raises((AssertionError, OverflowError)):
        _check_memo_against_reference([(40, 20)])
