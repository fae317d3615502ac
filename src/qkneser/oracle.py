"""Brute-force ground truth for q-Kneser spectra.

This module builds qK(v, k) from scratch: it enumerates every
k-dimensional subspace of F_q^v as a canonical reduced-row-echelon basis,
forms the trivial-intersection adjacency matrix as one product of the
vertex x projective-point incidence matrix with its transpose, and
certifies a predicted spectrum with zero numerical tolerance:

  * annihilation: the exact integer product P(A) = prod_j (A - lambda_j I)
    must be the zero matrix; since A is symmetric (hence diagonalizable) this
    proves every eigenvalue of A lies among the predicted values;
  * moments: tr(A^m) must equal sum_j mult_j * lambda_j^m for m = 0..k;
    the (k+1) x (k+1) Vandermonde matrix on distinct eigenvalues is
    invertible, so matching moments pins the multiplicities exactly.

Both checks passing means the predicted spectrum IS the spectrum.

Both checks read one column of A, through a checked transitive group.
GL(v, q) permutes the k-subspaces transitively and preserves trivial
intersection (Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 9.3), and
vertex_automorphisms turns generators of it into vertex permutations.
Nothing is taken on trust: certify_spectrum checks that each sigma is a
permutation with A[sigma, sigma] = A, and that together they carry vertex
0 to every vertex.  Such a sigma, as a permutation matrix S, commutes with
A, hence with every polynomial in A, so P(A) e_sigma(i) = S P(A) e_i and
(A^m)_ii = (A^m)_sigma(i)sigma(i); with transitivity:

  * P(A) = 0 iff P(A) e_0 = 0, and tr(A^m) = n (A^m)_00;
  * P(A) is symmetric, so when it is not zero its row 0 is not zero, and
    its row-major first nonzero entry is (0, j, P(A)[j, 0]) for the first
    nonzero j of P(A) e_0: the entry the sequential product reports.

The certificate is the Krylov column A^m e_0, m = 0..max(k, number of
eigenvalues): its entries 0 give the moments, and P(A) e_0 is its
combination with the coefficients of prod_j (x - lambda_j).  A^m e_0 runs
in intmatrix._dtype((n |A|)^m) and P(A) e_0 in
_dtype(prod_j (n |A| + |lambda_j|)), which bound every entry and partial
sum; A is widened a block of rows at a time, so no widened n x n copy
exists.

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


def vertex_automorphisms(bases: np.ndarray, ctx: FieldCtx) -> list[np.ndarray]:
    """One vertex permutation per generator of a subgroup of GL(v, q) that contains SL(v, q).

    The generators are the cyclic shift of coordinates, the swap of
    coordinates 0 and 1, and the transvections x_1 += c x_0 for c = p^i,
    i < e (the field elements x^i, an additive basis of GF(q) over GF(p)).
    Each acts on the projective points through FieldCtx element ops, each
    image renormalised to a leading 1, and a vertex goes where its sorted
    point codes go: sigma[i] is the vertex whose sorted codes are the
    image's.  An image that is no vertex raises InvariantError.
    certify_spectrum checks what it relies on (that each sigma preserves
    A, and that they are transitive), so nothing here is taken on trust.
    """
    n, _, v = bases.shape
    if v < 2:  # a single vertex
        return []
    vectors = _rref_bases(ctx.q, v, 1)[:, 0].tolist()  # every projective point, with a leading 1
    weights = ctx.q ** np.arange(v)  # a code reads the coordinates base q, as in _point_codes
    codes = np.array(vectors) @ weights
    order = np.argsort(codes)
    keys = np.sort(_point_codes(ctx, bases), axis=1)
    slots = order[np.searchsorted(codes, keys, sorter=order)]  # each vertex's points, as indices into vectors

    def point(y):  # y scaled to a leading 1
        scale = ctx.inv(next(t for t in y if t))
        return [ctx.mul(scale, t) for t in y]

    generators = [lambda x: [x[-1], *x[:-1]], lambda x: [x[1], x[0], *x[2:]]]
    generators += [lambda x, c=ctx.p**i: [x[0], ctx.add(x[1], ctx.mul(c, x[0])), *x[2:]] for i in range(ctx.e)]
    images = []
    for g in generators:
        moved = np.array([point(g(x)) for x in vectors]) @ weights
        images.append(np.sort(moved[slots], axis=1))
    _, ids = np.unique(np.concatenate([keys, *images]), axis=0, return_inverse=True)
    ids = ids.reshape(len(images) + 1, n)
    vertex = np.full(ids.max() + 1, -1)
    vertex[ids[0]] = np.arange(n)
    perms = vertex[ids[1:]]
    for g, sigma in enumerate(perms):
        if (sigma < 0).any():
            raise InvariantError(f"generator {g} maps vertex {int(np.argmin(sigma))} to a point set that is no vertex")
    return list(perms)


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


def _check_automorphisms(adjacency: IntMatrix, automorphisms) -> None:
    """Raise InvariantError unless every sigma is a permutation of range(n) with
    A[sigma, sigma] = A, and the sigmas together carry vertex 0 to every vertex.

    A is compared a block of rows at a time; the orbit of vertex 0 grows
    breadth-first, each vertex entering the frontier once.
    """
    n, a = adjacency.n, adjacency.to_array()
    rows = -(-n // 64)
    perms = []
    for g, sigma in enumerate(automorphisms):
        sigma = np.asarray(sigma)
        if sigma.shape != (n,) or sigma.dtype.kind not in "iu" or not np.array_equal(np.sort(sigma), np.arange(n)):
            raise InvariantError(f"automorphism {g} is not a permutation of range({n})")
        for r in range(0, n, rows):
            moved = np.argwhere(np.take(a[sigma[r : r + rows]], sigma, axis=1) != a[r : r + rows])
            if len(moved):
                i, j = r + int(moved[0][0]), int(moved[0][1])
                raise InvariantError(f"automorphism {g} does not preserve the adjacency matrix: "
                                     f"A[{sigma[i]}, {sigma[j]}] != A[{i}, {j}]")
        perms.append(sigma)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        images = np.concatenate([frontier[:0], *(sigma[frontier] for sigma in perms)])
        frontier = np.unique(images[~reached[images]])
        reached[frontier] = True
    if not reached.all():
        raise InvariantError(f"the automorphisms carry vertex 0 to {int(reached.sum())} of {n} vertices, not to all")


def _krylov(adjacency: IntMatrix, steps: int) -> list[np.ndarray]:
    """A^m e_0 for m = 0..steps, each in _dtype((n |A|)^m), which bounds its
    entries and partial sums; A is widened a block of rows at a time."""
    n, a = adjacency.n, adjacency.to_array()
    top, rows = n * max(adjacency.max_abs, 1), -(-n // 64)
    column = [(np.arange(n) == 0).astype(_dtype(1))]  # e_0
    for m in range(1, steps + 1):
        dtype = _dtype(top**m)
        x = _cast(column[-1], dtype)
        column.append(np.concatenate([_cast(a[r : r + rows], dtype) @ x for r in range(0, n, rows)]))
    return column


def certify_spectrum(adjacency: IntMatrix, predicted: SpectrumTable, automorphisms) -> CertificationResult:
    """Certify that predicted is exactly the spectrum of the adjacency matrix.

    Requires a symmetric matrix and an evaluated prediction with distinct
    eigenvalues and positive multiplicities (ValueError otherwise), and
    vertex permutations (integer arrays, as vertex_automorphisms returns)
    that preserve A and act transitively: InvariantError otherwise.  Runs
    the annihilating product and the moment checks on column 0 in exact
    integer arithmetic; a mismatch is reported as data, with the
    offending moment or a nonzero residual entry.
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

    _check_automorphisms(adjacency, automorphisms)

    n, k = adjacency.n, predicted.k
    column = _krylov(adjacency, max(k, len(eigenvalues)))
    moments = [n * int(x[0]) for x in column[: k + 1]]
    coeffs, bound = [1], 1  # of prod_j (x - lambda_j), lowest degree first; prod_j (n|A| + |lambda_j|)
    for lam in eigenvalues:
        coeffs = [shifted - lam * c for shifted, c in zip([0, *coeffs], [*coeffs, 0])]
        bound *= n * max(adjacency.max_abs, 1) + abs(lam)
    dtype = _dtype(bound)
    product = sum(c * _cast(x, dtype) for c, x in zip(coeffs, column))  # P(A) e_0
    nonzero = np.flatnonzero(product)
    residual = (0, int(nonzero[0]), int(product[nonzero[0]])) if nonzero.size else None
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
