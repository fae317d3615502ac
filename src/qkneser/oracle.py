"""Brute-force ground truth for q-Kneser spectra.

This module builds qK(v, k) from scratch: it enumerates every
k-dimensional subspace of F_q^v as a canonical reduced-row-echelon basis,
forms the trivial-intersection adjacency matrix as one product of the
vertex x projective-point incidence matrix with its transpose, and
certifies a predicted spectrum with zero numerical tolerance:

  * annihilation: the exact integer product prod_j (A - lambda_j I) must
    be the zero matrix; since A is symmetric (hence diagonalizable) this
    proves every eigenvalue of A lies among the predicted values;
  * moments: tr(A^m) must equal sum_j mult_j * lambda_j^m for m = 0..k;
    the (k+1) x (k+1) Vandermonde matrix on distinct eigenvalues is
    invertible, so matching moments pins the multiplicities exactly.

Both checks passing means the predicted spectrum IS the spectrum.

Enumeration goes pivot-set by pivot-set: for each choice of pivot
columns, the free entries of the echelon form range over all field
elements.  Every subspace has exactly one echelon basis, so this is
exhaustive and duplicate-free without any hashing of raw matrices.

Everything here is deliberately independent of the closed-form spectrum
formulas; the only shared ingredient is the Gaussian-binomial vertex
count used as a budget guardrail before enumeration starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np

from .gf import FieldCtx
from .intmatrix import IntMatrix
from .laurent import InvariantError
from .qbinom import gauss
from .spectrum import SpectrumTable

DEFAULT_VERTEX_BUDGET = 2000


class BudgetExceededError(ValueError):
    """Predicted vertex count exceeds the configured budget."""

    def __init__(self, predicted: int, budget: int):
        super().__init__(f"predicted vertex count {predicted} exceeds budget {budget}")
        self.predicted = predicted
        self.budget = budget


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of F_q^v as its unique RREF basis.

    rows is a k x v matrix of field-element encodings in reduced row
    echelon form; pivots are its strictly increasing pivot columns.
    """

    ctx: FieldCtx
    v: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.rows)


def predicted_vertex_count(v: int, k: int, q: int) -> int:
    return gauss(v, k).evaluate_int(q)


def enumerate_subspaces(ctx: FieldCtx, v: int, k: int, *, budget: int = DEFAULT_VERTEX_BUDGET) -> list[Subspace]:
    """All k-subspaces of F_q^v, sorted by (pivot columns, entries).

    Refuses to start when the predicted count exceeds budget.
    """
    if not 0 <= k <= v:
        raise ValueError(f"need 0 <= k <= v, got k={k}, v={v}")
    predicted = predicted_vertex_count(v, k, ctx.q)
    if predicted > budget:
        raise BudgetExceededError(predicted, budget)

    q = ctx.q
    out: list[Subspace] = []
    for pivots in combinations(range(v), k):
        pivot_set = set(pivots)
        free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, v) if c not in pivot_set]
        template = [[0] * v for _ in range(k)]
        for r, col in enumerate(pivots):
            template[r][col] = 1
        for values in product(range(q), repeat=len(free)):
            rows = [row[:] for row in template]
            for (r, c), value in zip(free, values):
                rows[r][c] = value
            out.append(Subspace(ctx=ctx, v=v, rows=tuple(map(tuple, rows)), pivots=pivots))
    out.sort(key=lambda s: (s.pivots, s.rows))
    if len(out) != predicted:
        raise InvariantError(f"enumerated {len(out)} {k}-subspaces of GF({q})^{v}, the formula gives {predicted}")
    return out


def gf_rank(ctx: FieldCtx, rows: list[list[int]]) -> int:
    """Rank over GF(q) by Gaussian elimination on a copy of rows."""
    rows = [list(r) for r in rows]
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, m) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ctx.inv(rows[rank][col])
        if inv != 1:
            rows[rank] = [ctx.mul(inv, x) for x in rows[rank]]
        lead = rows[rank]
        for r in range(rank + 1, m):
            factor = rows[r][col]
            if factor:
                rows[r] = [ctx.sub(x, ctx.mul(factor, y)) for x, y in zip(rows[r], lead)]
        rank += 1
        if rank == m:
            break
    return rank


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """dim(A intersect B), as 2k minus the rank of the stacked bases."""
    if a.ctx != b.ctx or a.v != b.v:
        raise ValueError("subspaces live in different ambient spaces")
    if a.k != b.k:
        raise ValueError(f"subspace dimensions differ: {a.k} vs {b.k}")
    stacked = [list(r) for r in a.rows] + [list(r) for r in b.rows]
    return 2 * a.k - gf_rank(a.ctx, stacked)


def _point_codes(s: Subspace) -> list[int]:
    # One code (the vector encoded base q) per projective point: the
    # combinations of the RREF rows whose first nonzero coefficient is 1.
    # That coefficient is also the vector's first nonzero coordinate, so
    # equal points of different subspaces get equal codes.
    ctx, q, v, k = s.ctx, s.ctx.q, s.v, s.k
    codes = []
    for lead in range(k):
        for rest in product(range(q), repeat=k - 1 - lead):
            vec = [0] * v
            for c, row in zip((1, *rest), s.rows[lead:]):
                if c:
                    for t in range(v):
                        if row[t]:
                            vec[t] = ctx.add(vec[t], ctx.mul(c, row[t]))
            code = 0
            for t in range(v - 1, -1, -1):
                code = code * q + vec[t]
            codes.append(code)
    return codes


def build_adjacency(subspaces: list[Subspace]) -> IntMatrix:
    """Adjacency matrix: 1 where two subspaces intersect trivially.

    Symmetric 0/1 with a zero diagonal (loops excluded).  Two subspaces
    meet trivially iff they share no projective point of PG(v-1, q)
    (Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 9.3), so with N the
    0/1 vertex x point incidence matrix, A = [N N^T == 0] off the diagonal.
    The tests assert that this agrees with intersection_dim == 0.
    """
    n = len(subspaces)
    if n == 0:
        raise ValueError("empty vertex list")
    first = subspaces[0]
    if any(s.ctx != first.ctx or s.v != first.v or s.k != first.k for s in subspaces):
        raise ValueError("vertex list mixes ambient spaces")
    codes = np.array([_point_codes(s) for s in subspaces], dtype=np.int64)
    points, columns = np.unique(codes, return_inverse=True)
    incidence = np.zeros((n, len(points)))
    incidence[np.arange(n).repeat(codes.shape[1]), columns.ravel()] = 1
    # float64 is exact: an entry of N N^T counts shared points, at most [k 1]_q
    adjacency = (incidence @ incidence.T == 0).astype(np.int64)
    np.fill_diagonal(adjacency, 0)
    return IntMatrix(adjacency)


# ----------------------------------------------------------------------
# certification


@dataclass
class CertificationResult:
    """Outcome of certifying a predicted spectrum against an adjacency matrix.

    moments holds tr(A^m) for m = 0..k.  certified_multiplicities is the
    exact solution of the moment system when it is a vector of
    nonnegative integers (for a passing run it equals the prediction),
    and None otherwise.
    """

    v: int
    k: int
    q: int
    vertex_count: int
    degree: int | None
    annihilation_ok: bool
    moments_ok: bool
    moments: list[int]
    expected_moments: list[int]
    predicted_eigenvalues: list[int]
    predicted_multiplicities: list[int]
    certified_multiplicities: list[int] | None
    offending_moments: list[tuple[int, int, int]]  # (m, expected, actual)
    residual_entry: tuple[int, int, int] | None  # (i, j, value) if annihilation fails

    @property
    def certified(self) -> bool:
        return self.annihilation_ok and self.moments_ok

    def to_json_dict(self) -> dict:
        return {
            "schema": "qkneser.certification@1",
            "v": self.v,
            "k": self.k,
            "q": self.q,
            "vertex_count": self.vertex_count,
            "degree": self.degree,
            "annihilation_ok": self.annihilation_ok,
            "moments_ok": self.moments_ok,
            "certified": self.certified,
            "moments": self.moments,
            "expected_moments": self.expected_moments,
            "predicted_eigenvalues": self.predicted_eigenvalues,
            "predicted_multiplicities": self.predicted_multiplicities,
            "certified_multiplicities": self.certified_multiplicities,
            "offending_moments": [list(t) for t in self.offending_moments],
            "residual_entry": list(self.residual_entry) if self.residual_entry else None,
        }


def _solve_moment_system(eigenvalues: list[int], moments: list[int]) -> list[int] | None:
    # Solve V x = moments for the (k+1)x(k+1) Vandermonde V[m][j] = lam_j^m,
    # exactly over the rationals; return x when it is nonnegative integers.
    size = len(eigenvalues)
    rows = [
        [Fraction(lam**m) for lam in eigenvalues] + [Fraction(moments[m])]
        for m in range(size)
    ]
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    solution = [rows[r][size] for r in range(size)]
    if any(x.denominator != 1 or x < 0 for x in solution):
        return None
    return [int(x) for x in solution]


def certify_spectrum(adjacency: IntMatrix, predicted: SpectrumTable) -> CertificationResult:
    """Certify that predicted is exactly the spectrum of the adjacency matrix.

    Requires a symmetric matrix and an evaluated prediction with distinct
    eigenvalues and positive multiplicities.  Runs the annihilating
    product and the moment checks in exact integer arithmetic; a mismatch
    is reported as data, with the offending moment or a nonzero residual
    entry.
    """
    if predicted.q is None:
        raise ValueError("predicted spectrum must be evaluated at a concrete q")
    if not adjacency.is_symmetric():
        raise ValueError("adjacency matrix must be symmetric")
    eigenvalues = [int(e) for e in predicted.eigenvalues()]
    multiplicities = [int(m) for m in predicted.multiplicities()]
    if len(set(eigenvalues)) != len(eigenvalues):
        raise ValueError(f"predicted eigenvalues must be distinct, got {eigenvalues}")
    if any(m <= 0 for m in multiplicities):
        raise ValueError(f"predicted multiplicities must be positive, got {multiplicities}")

    n = adjacency.n
    k = predicted.k

    # spectral moments via cumulative exact powers A^0, A^1, ..., A^k
    moments: list[int] = []
    power = IntMatrix.identity(n)
    for m in range(k + 1):
        if m == 1:
            power = adjacency
        elif m > 1:
            power = power @ adjacency
        moments.append(power.trace())
    expected = [sum(mult * lam**m for lam, mult in zip(eigenvalues, multiplicities)) for m in range(k + 1)]
    offending = [(m, e, a) for m, (e, a) in enumerate(zip(expected, moments)) if e != a]

    # annihilating product prod_j (A - lambda_j I)
    prod_matrix = adjacency.minus_scaled_identity(eigenvalues[0])
    for lam in eigenvalues[1:]:
        prod_matrix = prod_matrix @ adjacency.minus_scaled_identity(lam)
    residual = prod_matrix.first_nonzero()

    row_sums = adjacency.row_sums()
    degree = row_sums[0] if len(set(row_sums)) == 1 else None

    return CertificationResult(
        v=predicted.v,
        k=k,
        q=predicted.q,
        vertex_count=n,
        degree=degree,
        annihilation_ok=residual is None,
        moments_ok=not offending,
        moments=moments,
        expected_moments=expected,
        predicted_eigenvalues=eigenvalues,
        predicted_multiplicities=multiplicities,
        certified_multiplicities=_solve_moment_system(eigenvalues, moments),
        offending_moments=offending,
        residual_entry=residual,
    )


# ----------------------------------------------------------------------
# serialization


def dump_vertices(subspaces: list[Subspace], path: str | Path) -> None:
    """One RREF basis per line: entry encodings, row-major, space-separated."""
    lines = [" ".join(str(x) for row in s.rows for x in row) for s in subspaces]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def dump_adjacency(matrix: IntMatrix, path: str | Path) -> None:
    """One 0/1 row per line, space-separated."""
    lines = [" ".join(map(str, row)) for row in matrix.to_rows()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def dump_certification(result: CertificationResult, path: str | Path) -> None:
    Path(path).write_text(json.dumps(result.to_json_dict(), indent=2) + "\n", encoding="utf-8")
