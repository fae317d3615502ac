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

Both checks take one symmetric square and one strip pass, for every k.
A^2 is formed once, as the symmetric product A A^T on one buffer (SYRK,
see intmatrix), in float32: the 0/1 adjacency and its square are exact
there up to n = 2^24 - 1.  tr(A^m) is a sum over column strips, and
strips of A and A^2 give every moment up to k = 4 (_moments).  The
factors A - lambda_j I are polynomials in A, so they commute and may be
grouped: the first pair's F = A^2 - (a + b) A + ab I is formed from A^2
without a product, and every other factor is applied to column strips
built from columns of F and A (_certificate).  The product P(A) is
symmetric, so its first nonzero entry in row-major order lies on or
above the diagonal, and the upper rows of each strip find it
(_strip_residual): the same residual entry as the sequential product,
with half the multiplications of a full final product and temporaries of
n x STRIP entries.  With k = 1, or one eigenvalue, F is P itself.

The vertex list is one read-only (n, k, v) int64 array of RREF bases,
built pivot-set by pivot-set: one numpy block per choice of pivot
columns holds every assignment of field elements to the free entries.
Every subspace has exactly one echelon basis, so this is exhaustive and
duplicate-free without any hashing of raw matrices.

Everything here is deliberately independent of the closed-form spectrum
formulas and of the symbolic gauss: the vertex count, refused above the
budget before any other work, is the defining product gauss_eval_product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .gf import FieldCtx
from .intmatrix import IntMatrix, _cast, _dtype
from .laurent import InvariantError
from .qbinom import gauss_eval_product
from .spectrum import SpectrumTable

DEFAULT_VERTEX_BUDGET = 2000


class BudgetExceededError(ValueError):
    """Predicted vertex count (an int, or "at least 2^b") exceeds the budget."""

    def __init__(self, predicted: int | str, budget: int):
        super().__init__(f"predicted vertex count {predicted} exceeds budget {budget}")
        self.predicted = predicted
        self.budget = budget


def predicted_vertex_count(v: int, k: int, q: int) -> int:
    """[v k]_q = [v v-k]_q for 0 <= k <= v, as gauss_eval_product over min(k, v-k) factors."""
    return int(gauss_eval_product(v, min(k, v - k), q))


def check_vertex_budget(v: int, k: int, q: int, budget: int) -> int:
    """The vertex count [v k]_q, refused above budget (BudgetExceededError).

    Raises ValueError unless 0 <= k <= v and q >= 2.  The pivots 0..k-1
    leave k(v-k) free entries, so [v k]_q >= q^(k(v-k)) >= 2^bits.  A
    bound more than 64 bits above the budget refuses alone, so a huge v
    costs nothing; otherwise the exact count costs O(bits) to compute.
    """
    if not 0 <= k <= v:
        raise ValueError(f"need 0 <= k <= v, got k={k}, v={v}")
    if q < 2:
        raise ValueError(f"field order must be an int >= 2, got {q}")
    bits = k * (v - k) * (q.bit_length() - 1)
    if bits > budget.bit_length() + 64:
        raise BudgetExceededError(f"at least 2^{bits}", budget)
    predicted = predicted_vertex_count(v, k, q)
    if predicted > budget:
        raise BudgetExceededError(predicted, budget)
    return predicted


def enumerate_subspaces(ctx: FieldCtx, v: int, k: int, *, budget: int = DEFAULT_VERTEX_BUDGET) -> np.ndarray:
    """All k-subspaces of F_q^v as a read-only (n, k, v) int64 array of RREF bases.

    Entries are field-element encodings.  The bases are sorted by (pivot
    columns, entries), and they are generated in that order: combinations
    yields the pivot sets in order, and within a pivot set the free
    entries run in itertools.product order, row-major.  Refuses to start
    when check_vertex_budget does.
    """
    predicted = check_vertex_budget(v, k, ctx.q, budget)
    bases = _rref_bases(ctx.q, v, k)
    if len(bases) != predicted:
        raise InvariantError(f"enumerated {len(bases)} {k}-subspaces of GF({ctx.q})^{v}, the formula gives {predicted}")
    bases.flags.writeable = False
    return bases


def _rref_bases(q: int, v: int, k: int) -> np.ndarray:
    # One (q^f, k, v) block per pivot set: 1 at the pivots, and the f free
    # entries (right of a row's pivot, outside the pivot columns) run over
    # np.indices, whose flattened order is that of itertools.product.
    blocks = [np.zeros((0, k, v), dtype=np.int64)]
    for pivots in combinations(range(v), k):
        free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, v) if c not in pivots]
        block = np.zeros((q ** len(free), k, v), dtype=np.int64)
        block[:, range(k), pivots] = 1
        rows, cols = np.array(free, dtype=np.intp).reshape(-1, 2).T
        block[:, rows, cols] = np.indices((q,) * len(free), dtype=np.int64).reshape(len(free), len(block)).T
        blocks.append(block)
    return np.concatenate(blocks)


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


def intersection_dim(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> int:
    """dim(A intersect B) for two k x v bases, as 2k minus the rank of the stacked bases."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"need two k x v bases of one shape, got {a.shape} and {b.shape}")
    return 2 * len(a) - gf_rank(ctx, [*a.tolist(), *b.tolist()])


def _point_codes(ctx: FieldCtx, bases: np.ndarray) -> np.ndarray:
    """The projective points of each vertex, as an (n, [k 1]_q) int64 array.

    The points of a subspace are the combinations of its RREF rows whose
    first nonzero coefficient is 1.  That coefficient is also the
    vector's first nonzero coordinate, so equal points of different
    subspaces get equal codes: the vector's (v, e) array of base-p digits,
    flattened and read base p (the coordinates read base q).  All
    vertices share the coefficient list, and multiplying by a coefficient
    is a linear map on digits (FieldCtx.mul_maps), so every vector is one
    contraction.  The coefficient vectors are the RREF bases of the
    1-subspaces of F_q^k, in enumeration order.  Codes are below
    q^v, which fits int64 whenever the result fits in memory: q^v <= n^2
    for 1 <= k < v, and q^v <= [v 1]_q^2 for k = v >= 2.
    """
    n, k, v = bases.shape
    maps = ctx.mul_maps(_rref_bases(ctx.q, k, 1)[:, 0])
    # vectors[s, c, t] = sum_r maps[c, r] @ digits[s, r, t] over GF(p)
    vectors = np.einsum("crab,srtb->scta", maps, ctx.digits(bases)) % ctx.p
    return vectors.reshape(n, len(maps), v * ctx.e) @ ctx.p ** np.arange(v * ctx.e)


def build_adjacency(bases: np.ndarray, ctx: FieldCtx) -> IntMatrix:
    """Adjacency matrix: 1 where two subspaces intersect trivially.

    Symmetric 0/1 with a zero diagonal (loops excluded).  Two subspaces
    meet trivially iff they share no projective point of PG(v-1, q)
    (Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 9.3), so with N the
    0/1 vertex x point incidence matrix, A = [N N^T == 0] off the diagonal.
    The tests assert that this agrees with intersection_dim == 0.
    """
    n = len(bases)
    if n == 0:
        raise ValueError("empty vertex list")
    codes = _point_codes(ctx, bases)
    points, columns = np.unique(codes, return_inverse=True)
    # an entry of N N^T counts shared points, at most [k 1]_q: exact in _dtype of that
    incidence = np.zeros((n, len(points)), dtype=_dtype(codes.shape[1]))
    incidence[np.arange(n).repeat(codes.shape[1]), columns.ravel()] = 1
    shared = incidence @ incidence.T
    adjacency = shared == 0
    del shared
    np.fill_diagonal(adjacency, False)
    return IntMatrix(adjacency.view(np.uint8))


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
    # x with sum_j x_j lam_j^m = moments[m], m = 0..k, when it is nonnegative integers.  x_j is the
    # trace of the j-th spectral projector, p_j(A) / p_j(lam_j) with p_j = prod_{i != j} (x - lam_i):
    # sum_m c_jm moments[m] / p_j(lam_j), c_j the coefficients of p_j; distinct lam make p_j(lam_j) != 0.
    solution = []
    for j, lam in enumerate(eigenvalues):
        coeffs, scale = [1], 1  # of p_j, lowest degree first, and p_j(lam_j)
        for other in eigenvalues[:j] + eigenvalues[j + 1 :]:
            coeffs = [shifted - other * c for shifted, c in zip([0, *coeffs], [*coeffs, 0])]
            scale *= lam - other
        mult, remainder = divmod(sum(c * moment for c, moment in zip(coeffs, moments)), scale)
        if remainder or mult < 0:
            return None
        solution.append(mult)
    return solution


# Rows or columns that a strip of the certificate spans: its temporaries
# are n x STRIP, small beside an n x n operand.
STRIP = 256


def _first_nonzero(array: np.ndarray) -> tuple[int, int, int] | None:
    """Position and value of the first nonzero entry of a 2-D array in row-major order."""
    # one bool mask; argmax finds its first True, or 0 if there is none
    nonzero = array != 0
    i, j = divmod(int(np.argmax(nonzero)), array.shape[1])
    if not nonzero[i, j]:
        return None
    return i, j, int(array[i, j])


def _moments(adjacency: IntMatrix, square: IntMatrix, k: int) -> list[int]:
    """tr(A^m) for m = 0..k: n, the diagonal's sum, then sums over column strips B.

    For m >= 2, tr(A^m) is the sum over B of <A^ceil(m/2) E_B, A^floor(m/2) E_B>_F,
    and A^p E_B is the transpose of the rows B of A^p (A is symmetric): rows of
    A and A^2, then, for k >= 5, rows of A^(p-1) times A.  With |A^p| = max_abs
    up to p = 2, n |A| |A^(p-1)| above, m runs in _dtype(r n |X| |Y|), r = min(STRIP, n).
    """
    n = adjacency.n
    a, a2 = adjacency.to_array(), square.to_array()
    tops = [max(adjacency.max_abs, 1), max(square.max_abs, 1)]  # |A^p| for p = 1, 2, ...
    while len(tops) < (k + 1) // 2:
        tops.append(n * tops[0] * tops[-1])
    dtypes = {m: _dtype(min(STRIP, n) * n * tops[(m - 1) // 2] * tops[m // 2 - 1]) for m in range(2, k + 1)}
    wide = _dtype(tops[-1])
    a_wide = _cast(a, wide) if len(tops) > 2 else None
    moments = [n, int(_cast(a.diagonal(), object).sum())][: k + 1] + [0] * (k - 1)
    for j0 in range(0, n, STRIP):
        strips = [a[j0 : j0 + STRIP], a2[j0 : j0 + STRIP]]
        while len(strips) < len(tops):
            strips.append(_cast(strips[-1], wide) @ a_wide)
        for m, dtype in dtypes.items():
            moments[m] += int(np.vdot(_cast(strips[(m - 1) // 2], dtype), _cast(strips[m // 2 - 1], dtype)))
    return moments


def _certificate(adjacency: IntMatrix, eigenvalues: list[int], k: int):
    """The moments tr(A^m), m = 0..k, and the residual: the row-major first
    nonzero (i, j, value) of prod_j (A - lambda_j I), or None.

    The eigenvalues, sorted by |lambda|, are paired smallest with largest.
    Each factor is a triple (f, d, e) = f A^2 + d A + e I: A^2 - s A + p I
    for a pair, A - lam I for the one left over when the count is odd.
    Only the first, F, is formed as a matrix, in the strip pass's dtype;
    every later one is f F + d A + e I.
    """
    n, a_max = adjacency.n, max(adjacency.max_abs, 1)
    square = adjacency @ adjacency
    moments = _moments(adjacency, square, k)
    by_size = sorted(eigenvalues, key=abs)
    half = len(by_size) // 2
    factors = [(1, -(a + b), a * b) for a, b in zip(by_size[:half], by_size[::-1])]
    factors += [(0, 1, -by_size[half])] if len(by_size) % 2 else []
    (f0, d0, e0), *later = factors
    rest = [(f, d - f * d0, e - f * e0) for f, d, e in later]  # f0 = 1 whenever there are later factors
    # every entry formed is at most the last step's bound: |F| alone, or F[:j1] @ X
    # with |X| <= f|F| + |d||A| + |e| for G_r, times f n|F| + |d| n|A| + |e| for
    # each further G; |A| <= |A^2| for symmetric A, so A is exact in it too
    f_max = bound = f0 * square.max_abs + abs(d0) * a_max + abs(e0)
    if rest:
        *middle, (f, d, e) = rest
        x_max = f * f_max + abs(d) * a_max + abs(e)
        for f_, d_, e_ in middle:
            x_max *= f_ * n * f_max + abs(d_) * n * a_max + abs(e_)
        bound = n * f_max * x_max
    dtype = _dtype(bound)
    # F in place, A^2 widened a row at a time: F peaks beside A^2 alone,
    # and the strips run beside F alone
    factor = _cast(adjacency.to_array(), dtype, copy=True)
    factor *= d0
    for r in range(n if f0 else 0):  # no name keeps a view of A^2 past del
        factor[r] += _cast(square.to_array()[r], dtype)
    factor.flat[:: n + 1] += e0
    del square
    return moments, _strip_residual(adjacency, factor, rest, dtype)


def _strip_residual(adjacency: IntMatrix, factor: np.ndarray, rest: list[tuple[int, int, int]], dtype):
    """Row-major first nonzero (i, j, value) of P = F G_1 ... G_r, or None.

    factor is F in dtype, and rest holds G_1 .. G_r, r >= 0, as (f, d, e)
    with G = f F + d A + e I; dtype is exact for every entry formed.  P is
    symmetric, so its first nonzero (i, j) in row-major order has i <= j,
    and for the column strip B = j0..j1-1 the rows 0..j1-1 of P[:, B]
    suffice; once one is found in row i, later strips need only the rows
    above it.  With r = 0 the strip is read from F; otherwise it is
    F[:j1] (G_1 ... G_r E_B), where G_r E_B is built from columns of F and
    A, and G_1 .. G_(r-1) (five or more eigenvalues) are applied in turn.
    """
    n = len(factor)
    a = adjacency.to_array()
    middle = rest[:-1]
    a_wide = _cast(a, dtype) if middle else None
    best = None
    for j0 in range(0, n, STRIP):
        j1 = min(j0 + STRIP, n)
        rows = j1 if best is None else min(j1, best[0])
        if rows == 0:
            break
        strip = factor[:rows, j0:j1]
        if rest:
            f, d, e = rest[-1]
            x = _cast(a[:, j0:j1], dtype, copy=True)
            x *= d
            if f:
                x += factor[:, j0:j1]
            x[range(j0, j1), range(j1 - j0)] += e
            for f_, d_, e_ in middle:
                x = f_ * (factor @ x) + d_ * (a_wide @ x) + e_ * x
            strip = factor[:rows] @ x
        found = _first_nonzero(strip)
        if found is not None:
            best = (found[0], j0 + found[1], found[2])
    return best


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

    moments, residual = _certificate(adjacency, eigenvalues, k)
    expected = [sum(mult * lam**m for lam, mult in zip(eigenvalues, multiplicities)) for m in range(k + 1)]
    offending = [(m, e, a) for m, (e, a) in enumerate(zip(expected, moments)) if e != a]

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


def dump_vertices(bases: np.ndarray, path: str | Path) -> None:
    """One RREF basis per line: entry encodings, row-major, space-separated."""
    lines = [" ".join(map(str, basis)) for basis in bases.reshape(len(bases), -1).tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def dump_adjacency(matrix: IntMatrix, path: str | Path) -> None:
    """One 0/1 row per line, space-separated; other entries raise ValueError."""
    entries = matrix.to_array()
    if matrix.max_abs > 1 or entries.min() < 0:
        raise ValueError("adjacency dump needs 0/1 entries")
    # row i is bytes 2n*i .. 2n*(i+1): a digit at every even column, a
    # space after it, and a newline in place of the last space
    text = np.full((matrix.n, 2 * matrix.n), ord(" "), dtype=np.uint8)
    text[:, ::2] = entries
    text[:, ::2] += ord("0")
    text[:, -1] = ord("\n")
    Path(path).write_bytes(text)


def dump_certification(result: CertificationResult, path: str | Path) -> None:
    Path(path).write_text(json.dumps(result.to_json_dict(), indent=2) + "\n", encoding="utf-8")
