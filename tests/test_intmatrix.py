"""Exact matrix arithmetic: one dtype rule, exact at every tier boundary."""

import random

import numpy as np
import pytest

from qkneser import intmatrix
from qkneser.intmatrix import IntMatrix, _dtype

F32, F64, I64, OBJ = np.float32, np.float64, np.int64, object


def mat(rows):
    return IntMatrix(np.array(rows, dtype=object))


def entries(matrix):
    return matrix.to_array().tolist()


def naive_product(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def random_rows(rng, n, magnitude):
    return [[rng.randint(-magnitude, magnitude) for _ in range(n)] for _ in range(n)]


def random_symmetric_rows(rng, n, magnitude):
    rows = random_rows(rng, n, magnitude)
    return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def operand(top, seed, n=3):
    # random entries in [-top, top] with top on the diagonal, so max_abs == top
    rows = random_rows(random.Random(seed), n, top)
    for i in range(n):
        rows[i][i] = top
    return rows


def assert_narrowest(matrix, expected_rows):
    # the entries are exact, and stored in the narrowest dtype that holds them
    assert entries(matrix) == expected_rows
    assert matrix.max_abs == max(abs(x) for row in expected_rows for x in row)
    assert matrix.to_array().dtype == _dtype(matrix.max_abs)


@pytest.fixture
def compute_dtypes(monkeypatch):
    # the dtype of every _dtype decision, in call order
    seen = []
    real = intmatrix._dtype

    def spy(bound):
        seen.append(real(bound))
        return seen[-1]

    monkeypatch.setattr(intmatrix, "_dtype", spy)
    return seen


def test_dtype_tiers():
    for bound, dtype in [(0, F32), (2**24 - 1, F32), (2**24, F64), (2**53 - 1, F64), (2**53, I64),
                         (2**63 - 1, I64), (2**63, OBJ)]:
        assert _dtype(bound) is dtype


@pytest.mark.parametrize("top,dtype", [(0, F32), (2**24 - 1, F32), (2**24, F64), (2**53 - 1, F64), (2**53, I64),
                                       (2**63 - 1, I64), (2**63, OBJ)])
def test_storage_is_the_narrowest_exact_dtype(top, dtype):
    for source in [object, np.uint64] + ([np.int64] if top <= 2**63 - 1 else []):
        m = IntMatrix(np.array([[top, 0], [0, 0]], dtype=source))
        assert m.to_array().dtype == dtype and m.max_abs == top
        assert int(m.to_array()[0, 0]) == top
    negative = IntMatrix(np.array([[0, 0], [0, -top]], dtype=object))
    assert negative.to_array().dtype == dtype and negative.max_abs == top


# (max|A|, max|B|, storage dtype of A, compute dtype): each case
# crosses from one storage dtype into one compute dtype; float64 -> object
# (and float32 -> object) is the case where widening must pass through int64

@pytest.mark.parametrize("top_a,top_b,storage,compute", [
    (2**11, 2**11, F32, F32),  # 3 * 2^22: just below 2^24
    (2**12, 2**11, F32, F64),  # 3 * 2^23: the bound crosses 2^24
    (2**12, 2**24, F32, F64),  # float32 times float64 operands
    (2**23, 2**41, F32, OBJ),  # float32 widens to object through int64
    (2**25, 2**25, F64, F64),
    (2**27 + 1, 2**27 + 1, F64, I64),
    (2**40 + 1, 2**40 + 1, F64, OBJ),
    (2**54 + 1, 3, I64, I64),
    (2**54 + 1, 0, I64, I64),  # zero result: computed in int64, stored float64
    (2**54 + 1, 2**10, I64, OBJ),
    (2**70 + 1, 5, OBJ, OBJ),
    (2**70 + 1, 0, OBJ, OBJ),
])
def test_product_tiers(compute_dtypes, top_a, top_b, storage, compute):
    a_rows, b_rows = operand(top_a, 1), operand(top_b, 2)
    a, b = mat(a_rows), mat(b_rows)
    assert a.to_array().dtype == storage
    compute_dtypes.clear()
    product = a @ b
    assert compute_dtypes[0] is compute
    assert_narrowest(product, naive_product(a_rows, b_rows))


@pytest.mark.parametrize("n,top,storage,compute", [
    (3, 2**20, F32, F32),
    (3, 2**23, F32, F64),  # n * top = 3 * 2^23 is past 2^24
    (3, 2**52 + 1, F64, I64),
    (1025, 2**53 - 1, F64, OBJ),  # n * top just past 2^63 - 1
    (3, 2**54 + 1, I64, I64),
    (3, 2**62 + 1, I64, OBJ),  # int64 row sums past 2^63
    (3, 2**70 + 1, OBJ, OBJ),
])
def test_row_sum_tiers(compute_dtypes, n, top, storage, compute):
    # every entry is top: each row sum is n * top, odd, so a float64 sum
    # past 2^53 would round and an int64 sum past 2^63 would wrap
    m = IntMatrix(np.full((n, n), top, dtype=object))
    assert m.to_array().dtype == storage
    compute_dtypes.clear()
    assert m.row_sums() == [n * top] * n
    assert compute_dtypes == [compute]
    assert all(type(x) is int for x in m.row_sums())


@pytest.mark.parametrize("magnitude", [1, 10**3, 10**9, 10**20])
def test_matmul_matches_naive_product(magnitude):
    rng = random.Random(magnitude)
    for n in (1, 2, 5):
        a_rows = random_rows(rng, n, magnitude)
        b_rows = random_rows(rng, n, magnitude)
        assert entries(mat(a_rows) @ mat(b_rows)) == naive_product(a_rows, b_rows)
        # a matrix times itself, symmetric or not
        for rows in (a_rows, random_symmetric_rows(rng, n, magnitude)):
            square = mat(rows)
            assert entries(square @ square) == naive_product(rows, rows)


def test_to_array_is_a_read_only_view():
    m = mat([[1, 2], [3, 4]])
    view = m.to_array()
    assert view.tolist() == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        view[0, 0] = 7
    assert m.to_array()[0, 0] == 1


def test_backend_boundary_is_exact():
    # entries near 2^12 (2^26) push n * maxA * maxB just past the float32
    # (float64) window, to odd results that the narrower float would round
    for value in (2**12, 2**26):
        rows = [[value, value - 1], [value - 3, value]]
        assert entries(mat(rows) @ mat(rows)) == naive_product(rows, rows)


def test_big_integer_entries_survive():
    big = 10**30
    m = mat([[big, 0], [0, -big]])
    assert m.to_array()[0, 0] == big
    square = m @ m
    assert square.to_array().diagonal().tolist() == [big**2, big**2]
    assert m.row_sums() == [big, -big]


def test_row_sums_exact_past_int64():
    # int64 entries whose row sum does not fit in int64
    half = 2**62
    assert mat([[half, half], [-half, -half]]).row_sums() == [2**63, -(2**63)]


def test_object_rows_round_trip():
    # triangle graph: rows 011, 101, 110
    m = mat([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert entries(m) == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert m.is_symmetric()
    assert m.row_sums() == [2, 2, 2]


def test_symmetry_check():
    assert mat([[1, 2], [2, 1]]).is_symmetric()
    assert not mat([[1, 2], [3, 1]]).is_symmetric()


def test_rejects_non_square():
    with pytest.raises(ValueError):
        mat([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        IntMatrix(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        IntMatrix(np.zeros((2, 2)))  # float dtype


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        mat(np.eye(2, dtype=int)) @ mat(np.eye(3, dtype=int))
