"""Dense square integer matrices with exact products at numpy speed.

Entries are mathematically unbounded integers.  A product picks the
cheapest backend that is provably exact for the operands at hand, using
the a-priori entry bound  n * max|A| * max|B|  on the result (every
partial sum of the inner products is bounded by it in absolute value):

  * float64 BLAS when the bound is < 2**53: every intermediate product
    and partial sum is an integer exactly representable in a double, so
    the rounded result is exact, not approximate;
  * int64 numpy matmul when the bound is < 2**63 (no overflow possible);
  * object-dtype numpy dot (Python big ints) otherwise.

All three backends are cross-checked against each other in the tests.
Storage is int64 when entries fit, object otherwise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_FLOAT_EXACT = 2**53
_INT64_MAX = 2**63 - 1


class IntMatrix:
    """Immutable dense square matrix of exact integers."""

    __slots__ = ("_a", "n", "max_abs")

    def __init__(self, array: np.ndarray):
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise ValueError(f"square matrix expected, got shape {array.shape}")
        if array.dtype != object and not np.issubdtype(array.dtype, np.integer):
            raise ValueError(f"integer entries expected, got dtype {array.dtype}")
        self.n = int(array.shape[0])
        if array.dtype == object:
            max_abs = max((abs(int(x)) for x in array.flat), default=0)
            if max_abs <= _INT64_MAX:
                array = array.astype(np.int64)
        else:
            array = array.astype(np.int64, copy=False)
            max_abs = int(np.abs(array).max(initial=0))
        self._a = array
        self.max_abs = max_abs

    # -- constructors

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("rows do not form a square matrix")
        return cls(np.array(rows, dtype=object).reshape(n, n))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(np.eye(n, dtype=np.int64))

    # -- inspection

    def entry(self, i: int, j: int) -> int:
        return int(self._a[i, j])

    def to_rows(self) -> list[list[int]]:
        return self._a.tolist()

    def trace(self) -> int:
        return sum(int(self._a[i, i]) for i in range(self.n))

    def row_sums(self) -> list[int]:
        dtype = np.int64 if self.n * self.max_abs <= _INT64_MAX else object
        return self._a.sum(axis=1, dtype=dtype).tolist()

    def is_symmetric(self) -> bool:
        return bool((self._a == self._a.T).all())

    def is_zero(self) -> bool:
        return not self._a.any()

    def first_nonzero(self) -> tuple[int, int, int] | None:
        """Position and value of the first nonzero entry in row-major order."""
        nz = np.argwhere(self._a != 0)
        if len(nz) == 0:
            return None
        i, j = (int(x) for x in nz[0])
        return i, j, int(self._a[i, j])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.n == other.n and bool((self._a == other._a).all())

    def __repr__(self) -> str:
        return f"IntMatrix(n={self.n}, max_abs={self.max_abs})"

    # -- arithmetic

    def minus_scaled_identity(self, lam: int) -> "IntMatrix":
        """self - lam * I, exactly."""
        if max(self.max_abs, abs(lam)) * 2 <= _INT64_MAX and self._a.dtype != object:
            out = self._a.copy()
            idx = np.arange(self.n)
            out[idx, idx] -= lam
            return IntMatrix(out)
        out = self._a.astype(object, copy=True)
        for i in range(self.n):
            out[i, i] = int(out[i, i]) - lam
        return IntMatrix(out)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        bound = self.n * self.max_abs * other.max_abs
        if bound < _FLOAT_EXACT:
            prod = np.rint(self._a.astype(np.float64) @ other._a.astype(np.float64))
            return IntMatrix(prod.astype(np.int64))
        if bound <= _INT64_MAX:
            return IntMatrix(self._a.astype(np.int64) @ other._a.astype(np.int64))
        return IntMatrix(np.dot(self._a.astype(object), other._a.astype(object)))
