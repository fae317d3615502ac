"""Exact matrix arithmetic: the three product backends must agree."""

import random

import numpy as np
import pytest

from qkneser.intmatrix import IntMatrix


def naive_product(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def random_rows(rng, n, magnitude):
    return [[rng.randint(-magnitude, magnitude) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("magnitude", [1, 10**3, 10**9, 10**20])
def test_matmul_matches_naive_product(magnitude):
    # magnitudes chosen to drive the float64, int64, and object backends
    rng = random.Random(magnitude)
    for n in (1, 2, 5):
        a_rows = random_rows(rng, n, magnitude)
        b_rows = random_rows(rng, n, magnitude)
        product = IntMatrix.from_rows(a_rows) @ IntMatrix.from_rows(b_rows)
        assert product.to_rows() == naive_product(a_rows, b_rows)


def test_backend_boundary_is_exact():
    # entries near 2^26 push n * maxA * maxB just past the float64 window
    value = 2**26
    a = IntMatrix.from_rows([[value, value - 1], [value - 3, value]])
    product = a @ a
    assert product.to_rows() == naive_product(a.to_rows(), a.to_rows())


def test_big_integer_entries_survive():
    big = 10**30
    m = IntMatrix.from_rows([[big, 0], [0, -big]])
    assert m.entry(0, 0) == big
    square = m @ m
    assert square.entry(0, 0) == big**2
    assert square.trace() == 2 * big**2
    assert m.row_sums() == [big, -big]


def test_row_sums_exact_past_int64():
    # int64 entries whose row sum does not fit in int64
    half = 2**62
    m = IntMatrix.from_rows([[half, half], [-half, -half]])
    assert m.row_sums() == [2**63, -(2**63)]


def test_minus_scaled_identity():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    shifted = m.minus_scaled_identity(5)
    assert shifted.to_rows() == [[-4, 2], [3, -1]]
    assert m.to_rows() == [[1, 2], [3, 4]]  # original untouched


def test_identity_and_zero_predicates():
    eye = IntMatrix.identity(3)
    assert eye.trace() == 3
    assert not eye.is_zero()
    zero = eye.minus_scaled_identity(1)
    assert zero.is_zero()
    assert zero.first_nonzero() is None
    assert eye.first_nonzero() == (0, 0, 1)


def test_from_rows_round_trip():
    # triangle graph: rows 011, 101, 110
    m = IntMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert m.to_rows() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert m.is_symmetric()
    assert m.row_sums() == [2, 2, 2]


def test_symmetry_check():
    assert IntMatrix.from_rows([[1, 2], [2, 1]]).is_symmetric()
    assert not IntMatrix.from_rows([[1, 2], [3, 1]]).is_symmetric()


def test_rejects_non_square():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        IntMatrix(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        IntMatrix(np.zeros((2, 2)))  # float dtype


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        IntMatrix.identity(2) @ IntMatrix.identity(3)


def test_equality():
    a = IntMatrix.from_rows([[1, 0], [0, 1]])
    assert a == IntMatrix.identity(2)
    assert a != IntMatrix.from_rows([[1, 0], [0, 2]])
