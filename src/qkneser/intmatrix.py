"""Dense square integer matrices with exact arithmetic at numpy speed.

Entries are mathematically unbounded integers.  One rule keeps every
operation exact: it bounds a priori, from its operands' max|entry|, every
number it will form (scalars, products, partial sums, result), and runs
as one numpy expression in the dtype _dtype(bound):

    bound < 2**53        float64  every value is an integer that a double
                                  holds exactly, so BLAS rounds nothing
    bound <= 2**63 - 1   int64    no overflow is possible
    otherwise            object   Python big ints

The bounds, for n x n operands and |X| = max(max|X|, 1):

    A @ B                  n * |A| * |B|
    X.frobenius(Y)         n**2 * |X| * |Y|                  sum_ij X_ij Y_ij
    A.quadratic(S, s, p)   max|S| + max(|s|, 1) * |A| + |p|  S - s A + p I
    A.trace(), row_sums()  n * max|A|

Each bound is at least every operand's max|entry|, so operands are only
widened, and float64 widens to object through int64 (float64.astype(object)
holds Python floats).  Every matrix, results included, is stored in the
narrowest exact dtype for its own entries, so a 0/1 adjacency matrix and
its low powers stay float64 throughout.  A.quadratic(A @ A, a + b, a * b)
is (A - a I)(A - b I), and A.quadratic(A, 0, -lam) is A - lam I.
"""

from __future__ import annotations

import numpy as np

_FLOAT_EXACT = 2**53
_INT64_MAX = 2**63 - 1


def _dtype(bound: int):
    """The narrowest dtype in which every integer of absolute value <= bound is exact."""
    if bound < _FLOAT_EXACT:
        return np.float64
    if bound <= _INT64_MAX:
        return np.int64
    return object


def _cast(array: np.ndarray, dtype) -> np.ndarray:
    """array in dtype, exactly; float64 widens to object through int64, so entries become ints."""
    if dtype is object and array.dtype == np.float64:
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
        """An operation's result, exact by its bound; it may arrive as float64."""
        matrix = object.__new__(cls)
        matrix._store(array)
        return matrix

    def _store(self, array: np.ndarray) -> None:
        self.n = int(array.shape[0])
        self.max_abs = max(int(array.max(initial=0)), -int(array.min(initial=0)))
        self._a = _cast(array, _dtype(self.max_abs))

    # -- inspection

    def to_array(self) -> np.ndarray:
        """The entries as a read-only numpy view: float64, int64 or object, the narrowest exact."""
        view = self._a.view()
        view.flags.writeable = False
        return view

    def trace(self) -> int:
        return int(_cast(self._a.diagonal(), _dtype(self.n * self.max_abs)).sum())

    def row_sums(self) -> list[int]:
        sums = _cast(self._a, _dtype(self.n * self.max_abs)).sum(axis=1)
        return _cast(sums, object).tolist()

    def is_symmetric(self) -> bool:
        return bool((self._a == self._a.T).all())

    def first_nonzero(self) -> tuple[int, int, int] | None:
        """Position and value of the first nonzero entry in row-major order."""
        # one n x n bool mask; argmax finds its first True, or 0 if there is none
        nonzero = self._a != 0
        i, j = divmod(int(np.argmax(nonzero)), self.n)
        if not nonzero[i, j]:
            return None
        return i, j, int(self._a[i, j])

    def __repr__(self) -> str:
        return f"IntMatrix(n={self.n}, max_abs={self.max_abs})"

    # -- arithmetic

    def quadratic(self, square: "IntMatrix", s: int, p: int) -> "IntMatrix":
        """square - s * self + p * I, exactly."""
        if self.n != square.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {square.n}")
        dtype = _dtype(square.max_abs + max(abs(s), 1) * max(self.max_abs, 1) + abs(p))
        out = _cast(square._a, dtype) - s * _cast(self._a, dtype)
        out[np.diag_indices(self.n)] += p
        return IntMatrix._exact(out)

    def frobenius(self, other: "IntMatrix") -> int:
        """sum_ij self[i, j] * other[i, j], exactly; equals tr(self @ other) for symmetric self."""
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        dtype = _dtype(self.n**2 * max(self.max_abs, 1) * max(other.max_abs, 1))
        return int(np.vdot(_cast(self._a, dtype), _cast(other._a, dtype)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        dtype = _dtype(self.n * max(self.max_abs, 1) * max(other.max_abs, 1))
        return IntMatrix._exact(_cast(self._a, dtype) @ _cast(other._a, dtype))
