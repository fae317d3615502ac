"""Dense square integer matrices with exact arithmetic at numpy speed.

Entries are mathematically unbounded integers.  One rule keeps every
operation exact: it bounds a priori, from its operands' max|entry|, every
number it will form (scalars, products, partial sums, result), and runs
as numpy in the dtype _dtype(bound):

    bound < 2**24        float32  every value is an integer that a float
    bound < 2**53        float64  holds exactly, so BLAS rounds nothing
    bound <= 2**63 - 1   int64    no overflow is possible
    otherwise            object   Python big ints

This is exact BLAS under an a-priori bound, as in Dumas, Giorgi and
Pernet, "Dense linear algebra over word-size prime fields: the FFLAS and
FFPACK packages", ACM TOMS 35 (2008): whatever order BLAS sums in, every
partial sum is an integer within the bound.  The bounds, for n x n
operands and |X| = max(max|X|, 1):

    A @ B          n * |A| * |B|
    row_sums()     n * max|A|

Each bound is at least every operand's max|entry|, so operands are only
widened, and a float widens to object through int64 (float.astype(object)
holds Python floats).  Every matrix, results included, is stored in the
narrowest exact dtype for its own entries, so a 0/1 adjacency matrix and
its square stay float32 up to n = 2**24 - 1, half the bytes of float64.

The certificate in oracle never touches IntMatrix or this rule: it
computes in Python ints on the quotient matrix of an equitable
partition, a few rows.  IntMatrix is the dense reference that
oracle.build_adjacency returns and the tests compare the certificate
against.
"""

from __future__ import annotations

import numpy as np

_FLOAT32_EXACT = 2**24
_FLOAT_EXACT = 2**53
_INT64_MAX = 2**63 - 1


def _dtype(bound: int):
    """The narrowest dtype in which every integer of absolute value <= bound is exact."""
    if bound < _FLOAT32_EXACT:
        return np.float32
    if bound < _FLOAT_EXACT:
        return np.float64
    if bound <= _INT64_MAX:
        return np.int64
    return object


def _cast(array: np.ndarray, dtype) -> np.ndarray:
    """array in dtype exactly (not copied if already in it); a float widens to object through int64, to ints."""
    if dtype is object and array.dtype.kind == "f":
        array = array.astype(np.int64)
    return array.astype(dtype, copy=False)


class IntMatrix:
    """Immutable dense square matrix of exact integers."""

    __slots__ = ("_a", "n", "max_abs")

    def __init__(self, array: np.ndarray):
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise ValueError(f"square matrix expected, got shape {array.shape}")
        if array.dtype != object and not np.issubdtype(array.dtype, np.integer):
            raise ValueError(f"integer entries expected, got dtype {array.dtype}")
        self._store(array)

    @classmethod
    def _exact(cls, array: np.ndarray) -> "IntMatrix":
        """An operation's result, exact by its bound; it may arrive as a float array."""
        matrix = object.__new__(cls)
        matrix._store(array)
        return matrix

    def _store(self, array: np.ndarray) -> None:
        self.n = int(array.shape[0])
        self.max_abs = max(int(array.max(initial=0)), -int(array.min(initial=0)))
        self._a = _cast(array, _dtype(self.max_abs))

    def to_array(self) -> np.ndarray:
        """The entries as a read-only numpy view: float32, float64, int64 or object, the narrowest exact."""
        view = self._a.view()
        view.flags.writeable = False
        return view

    def row_sums(self) -> list[int]:
        sums = _cast(self._a, _dtype(self.n * self.max_abs)).sum(axis=1)
        return _cast(sums, object).tolist()

    def is_symmetric(self) -> bool:
        """Whether the matrix equals its transpose."""
        return bool((self._a == self._a.T).all())

    def __repr__(self) -> str:
        return f"IntMatrix(n={self.n}, max_abs={self.max_abs})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        dtype = _dtype(self.n * max(self.max_abs, 1) * max(other.max_abs, 1))
        return IntMatrix._exact(_cast(self._a, dtype) @ _cast(other._a, dtype))
