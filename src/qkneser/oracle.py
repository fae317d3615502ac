"""Brute-force ground truth for q-Kneser spectra.

This module builds qK(v, k) from scratch: it enumerates every
k-dimensional subspace of F_q^v as a canonical reduced-row-echelon basis,
lists the j-subspaces of each vertex at every level j = 0..k (the zero
subspace, the points, ..., the vertex itself), and certifies a predicted
spectrum of the adjacency matrix A (x ~ y iff x != y share no point, as
Incidence.adjacency_rows computes it) with zero numerical tolerance:

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
vertex_automorphisms turns generators of it into permutations tau_j of
the j-subspaces at each level and sigma of the vertices.  Nothing is taken
on trust: certify_spectrum checks that each is a permutation, that the
j-subspaces of sigma x are tau_j of those of x at every level, for every
vertex x, and that the sigmas together carry vertex 0 to every vertex.
The j-subspaces are numbered by a prefix of their sorted point ids
(_key), and a wrong number could only make one of these checks fail.
Then sigma, as a permutation matrix S, preserves every W_j, the j-subspace
x vertex incidence, hence A (read off W_1) and every W_j^T W_j.

The certificate never forms A.  It applies the factored operator

    Op = sum_{j=0..k} (-1)^j q^C(j,2) W_j^T W_j

to one vector at a time, one term per level: (W_j^T W_j)[x, y] counts
the j-subspaces of x meet y, and sum_j (-1)^j q^C(j,2) [d j]_q =
prod_{i<d} (1 - q^i) is 1 for d = 0 and 0 otherwise (Andrews, The Theory
of Partitions, Thm 3.3 at z = 1).  The proof does not rest on that
identity: certify_spectrum checks that Op e_0 is the brute-force column
(the vertices that share no point with vertex 0).  Op and A are both
sigma-invariant, and a matrix M with M[sigma x, sigma y] = M[x, y] for a
transitive group is fixed by its column 0, so Op = A.  A commutes with S,
hence so does every polynomial in A: P(A) e_sigma(i) = S P(A) e_i and
(A^m)_ii = (A^m)_sigma(i)sigma(i), so

  * P(A) = 0 iff P(A) e_0 = 0, and tr(A^m) = n (A^m)_00;
  * P(A) is symmetric, so when it is not zero its row 0 is not zero, and
    its row-major first nonzero entry is (0, j, P(A)[j, 0]) for the first
    nonzero j of P(A) e_0: the entry the sequential product reports.

The certificate is the Krylov column A^m e_0, m = 0..max(k, number of
eigenvalues): its entries 0 give the moments, and P(A) e_0 is its
combination with the coefficients of prod_j (x - lambda_j).  Each step
runs in intmatrix._dtype of an a-priori bound: A^m e_0 >= 0 and A is
regular of degree d (it is vertex-transitive), so ||A^(m-1) e_0||_1 =
d^(m-1), and every term and partial sum of Op A^(m-1) e_0 is at most
prod_{i<k} (1 + q^i) d^(m-1); P(A) e_0 runs in
_dtype(prod_j (n + |lambda_j|)).  Beside the incidence, whose size is
n sum_j [k j]_q ids, the certificate keeps a few vectors of length n:
no n x n array.  Only --dump forms A, a strip of rows at a time.

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
    vectors = np.einsum("crab,srtb->scta", maps, ctx.digits(bases))
    vectors %= ctx.p
    return vectors.reshape(n, len(maps), v * ctx.e) @ ctx.p ** np.arange(v * ctx.e)


class Incidence:
    """qK(v, k) as the subspaces of its vertices, the form the certificate reads.

    points holds the codes of the projective points of F_q^v (as
    _point_codes writes them) in the order of enumerate_subspaces(ctx, v,
    1); a point's id is its index there.  For each level j = 0..k, flats[j]
    is the (n, [k j]_q) array of the ids of the j-subspaces of each vertex,
    every row sorted, and keys[j][i] the sorted row of the point ids of
    j-subspace i.  Level 0 is the zero subspace (one id, no points), level 1
    the points (keys[1][i] = [i]), and level k the vertex itself, keyed by
    its index: flats[k] is range(n) as a column and keys[k] each vertex's
    point ids (the array flats[1] when k >= 2; for k = 1 vertex x of the
    full enumeration is point x).

    A j-subspace of a vertex is the span of its RREF rows combined with
    the coefficients of a j-subspace U of F_q^k, so its points are the
    vertex's points at U's point slots (the positions of U's points among
    the coefficient vectors of _point_codes): no elimination is needed.
    The levels 1 < j < k are numbered by _ids on the _key of each row.
    """

    __slots__ = ("ctx", "v", "k", "points", "flats", "keys")

    def __init__(self, bases: np.ndarray, ctx: FieldCtx):
        n, k, v = bases.shape
        if n == 0:
            raise ValueError("empty vertex list")
        q = ctx.q
        points = _rref_bases(q, v, 1)[:, 0] @ q ** np.arange(v)
        coefficients = _rref_bases(q, k, 1)[:, 0] @ q ** np.arange(k)
        slots = _point_ids(points, _point_codes(ctx, bases))  # one column per coefficient vector
        rows = np.sort(slots, axis=1)  # the point ids of each vertex
        flats, keys = [np.zeros((n, 1), dtype=np.intp)], [np.zeros((1, 0), dtype=np.intp)]
        if k > 1:
            flats.append(rows)
            keys.append(np.arange(len(points))[:, None])
        for j in range(2, k):
            members = _point_ids(coefficients, _point_codes(ctx, _rref_bases(q, k, j)))
            subspaces = slots[:, members].reshape(-1, members.shape[1])  # a fresh array: sorted in place
            subspaces.sort(axis=1)
            ids, first = _ids(_key(subspaces, q, len(points)))
            ids = ids.reshape(n, -1)
            ids.sort(axis=1)
            flats.append(ids)
            keys.append(subspaces[first])
            del subspaces  # before the next level's
        if k:
            flats.append(np.arange(n)[:, None])
            keys.append(rows)
        self.ctx, self.v, self.k, self.points = ctx, v, k, points
        self.flats, self.keys = tuple(flats), tuple(keys)

    @property
    def n(self) -> int:
        return len(self.flats[0])

    def adjacency_rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start..stop-1 of A as a C-contiguous (stop - start, n) bool array: x is adjacent
        to y iff they share no point and x != y (the zero subspace of k = 0 shares none with itself).

        Bit b of packed[p] says that point p is no point of vertex start + b,
        so the AND of packed at y's point ids holds A[start + b, y] at bit b:
        a byte per eight entries of column y, unpacked by shifts into rows.
        """
        slots = self.keys[-1]  # the point ids of each vertex
        block = np.arange(stop - start)
        free = np.ones((len(self.points), len(block)), dtype=bool)  # free[p, b]: p is no point of start + b
        free[slots[start:stop].T, block] = False
        packed = np.packbits(free, axis=1)
        columns = np.full((self.n, packed.shape[1]), 0xFF, dtype=np.uint8)
        for slot in slots.T:
            columns &= packed[slot]
        shifts = np.arange(7, -1, -1, dtype=np.uint8)[:, None]  # packbits puts entry 8c + i at bit 7 - i of byte c
        bits = np.empty((packed.shape[1], 8, self.n), dtype=np.uint8)  # bits[c, i, y] = A[start + 8c + i, y]
        np.right_shift(np.ascontiguousarray(columns.T)[:, None, :], shifts, out=bits)
        bits &= 1
        rows = bits.reshape(-1, self.n)[: len(block)].view(bool)
        rows[block, start + block] = False
        return rows

    def adjacency_strips(self):
        """A as consecutive C-contiguous bool strips of rows, about 2^22 entries each."""
        rows = max(1, 2**22 // self.n)
        for r in range(0, self.n, rows):
            yield self.adjacency_rows(r, min(r + rows, self.n))


def _point_ids(points: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The index of each code in points, an array of distinct codes that holds every one of them."""
    order = np.argsort(points)
    return order[np.searchsorted(points, codes, sorter=order)]


def _key(rows: np.ndarray, q: int, base: int) -> np.ndarray:
    """Sorted rows of w ids below base, as a (words, len(rows)) int64 array of their first ceil(w/q) ids.

    For the point ids of j-subspaces, w = [j 1]_q = q [j-1 1]_q + 1, and two
    distinct j-subspaces share at most [j-1 1]_q points, so those first ids
    tell them apart.  They are read base `base`, first id most significant,
    63 // bits of them to a word, so words compare as the prefixes do,
    lexicographically.  That is one word unless the prefix is long (the
    vertices of qK(8,4) q=2 take two).  Rows of width 0 all get the key 0.
    """
    count = -(-rows.shape[1] // q)
    per = 63 // max(1, (base - 1).bit_length())
    words = np.zeros((max(1, -(-count // per)), len(rows)), dtype=np.int64)
    for i in range(count):
        words[i // per] *= base
        words[i // per] += rows[:, i]
    return words


def _ids(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's index among the distinct columns of words (as _key writes them), in
    lexicographic order (words[0] first), and for each distinct column one column equal to it.

    An argsort (a lexsort for several words) and a comparison of
    neighbours: a 1-D np.unique would import numpy.ma (numpy >= 2), which
    costs more than the sort.
    """
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])
    ordered = words[:, order]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(fresh) - 1
    return ids, order[fresh]


def _lookup(table: np.ndarray, queries: np.ndarray, q: int, base: int) -> np.ndarray:
    """The index of each row of queries among the rows of table, or -1 where it is none of them;
    both hold the sorted point ids (below base) of subspaces of one dimension, told apart by _key."""
    ids, first = _ids(np.concatenate([_key(table, q, base), _key(queries, q, base)], axis=1))
    index = np.full(len(first), -1)
    index[ids[: len(table)]] = np.arange(len(table))
    return index[ids[len(table) :]]


def build_adjacency(bases: np.ndarray, ctx: FieldCtx) -> IntMatrix:
    """Adjacency matrix: 1 where two subspaces intersect trivially.

    Symmetric 0/1 with a zero diagonal: the strips of
    Incidence.adjacency_strips, which --dump writes.  Two subspaces meet
    trivially iff they share no projective point of PG(v-1, q)
    (Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 9.3).  The tests
    assert that this agrees with intersection_dim == 0, and use it as the
    dense reference of the certificate, which never forms it.
    """
    strips = Incidence(bases, ctx).adjacency_strips()
    return IntMatrix(np.concatenate(list(strips)).view(np.uint8))


@dataclass(eq=False)  # compared by identity: == on arrays is elementwise
class Automorphism:
    """One generator's action: vertices is the vertex permutation sigma, and
    flats[j] the permutation tau_j of the ids of Incidence.flats[j], for each
    level j = 0..k (flats[1] = tau on the points)."""

    vertices: np.ndarray
    flats: tuple[np.ndarray, ...]


def vertex_automorphisms(graph: Incidence) -> list[Automorphism]:
    """One Automorphism per generator of a subgroup of GL(v, q) that contains SL(v, q).

    The generators are the cyclic shift of coordinates, the swap of
    coordinates 0 and 1, and the transvections x_1 += c x_0 for c = p^i,
    i < e (the field elements x^i, an additive basis of GF(q) over GF(p)).
    Each acts on the projective points through FieldCtx element ops, each
    image renormalised to a leading 1; a j-subspace goes where its sorted
    point ids go (found by _lookup), and sigma is tau_k, since level k is
    keyed by the vertex.  An image that is no vertex raises
    InvariantError.  certify_spectrum checks what it relies on (that each
    map is a permutation carrying the subspaces of every vertex x to those
    of sigma x, and that the sigmas are transitive), so nothing here is
    taken on trust.
    """
    ctx, q, v = graph.ctx, graph.ctx.q, graph.v
    if graph.n == 1:  # nothing to carry anywhere
        return []
    weights = q ** np.arange(v)  # a code reads the coordinates base q
    vectors = (graph.points[:, None] // weights % q).tolist()

    def point(y):  # y scaled to a leading 1
        scale = ctx.inv(next(t for t in y if t))
        return [ctx.mul(scale, t) for t in y]

    generators = [lambda x: [x[-1], *x[:-1]], lambda x: [x[1], x[0], *x[2:]]]
    generators += [lambda x, c=ctx.p**i: [x[0], ctx.add(x[1], ctx.mul(c, x[0])), *x[2:]] for i in range(ctx.e)]
    automorphisms = []
    for g, generator in enumerate(generators):
        tau = _point_ids(graph.points, np.array([point(generator(x)) for x in vectors]) @ weights)
        flats = tuple(_lookup(key, np.sort(tau[key], axis=1), q, len(graph.points)) for key in graph.keys)
        sigma = flats[-1]  # level k is keyed by the vertex
        if (sigma < 0).any():
            raise InvariantError(f"generator {g} maps vertex {int(np.argmin(sigma))} to a point set that is no vertex")
        automorphisms.append(Automorphism(sigma, flats))
    return automorphisms


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


def _prediction(predicted: SpectrumTable) -> tuple[list[int], list[int]]:
    """The eigenvalues and multiplicities of an evaluated prediction; ValueError unless distinct and positive."""
    if predicted.q is None:
        raise ValueError("predicted spectrum must be evaluated at a concrete q")
    eigenvalues = [int(e) for e in predicted.eigenvalues()]
    multiplicities = [int(m) for m in predicted.multiplicities()]
    if len(set(eigenvalues)) != len(eigenvalues):
        raise ValueError(f"predicted eigenvalues must be distinct, got {eigenvalues}")
    if any(m <= 0 for m in multiplicities):
        raise ValueError(f"predicted multiplicities must be positive, got {multiplicities}")
    return eigenvalues, multiplicities


def _is_permutation(perm, size: int) -> bool:
    perm = np.asarray(perm)
    return perm.shape == (size,) and perm.dtype.kind in "iu" and np.array_equal(np.sort(perm), np.arange(size))


def _check_automorphisms(graph: Incidence, automorphisms) -> None:
    """Raise InvariantError unless every automorphism is a family of permutations, sigma of the
    vertices and tau_j of the j-subspaces at each level j = 0..k, that carries the j-subspaces of
    every vertex x to those of sigma x, and the sigmas together carry vertex 0 to every vertex.

    The orbit of vertex 0 grows breadth-first, each vertex entering the frontier once.
    """
    n, perms = graph.n, []
    for g, automorphism in enumerate(automorphisms):
        sigma = np.asarray(automorphism.vertices)
        if not _is_permutation(sigma, n):
            raise InvariantError(f"automorphism {g} is not a permutation of range({n})")
        if len(automorphism.flats) != len(graph.flats):
            raise InvariantError(f"automorphism {g} acts on {len(automorphism.flats)} levels of subspace, "
                                 f"not on the {len(graph.flats)} levels 0..{graph.k}")
        for j, (table, key, tau) in enumerate(zip(graph.flats, graph.keys, automorphism.flats)):
            if not _is_permutation(tau, len(key)):
                raise InvariantError(f"automorphism {g} is not a permutation of the {len(key)} {j}-subspaces")
            moved = (np.sort(np.asarray(tau)[table], axis=1) != table[sigma]).any(axis=1)
            if moved.any():
                x = int(np.argmax(moved))
                raise InvariantError(f"automorphism {g} does not carry the {j}-subspaces of vertex {x} "
                                     f"to those of vertex {sigma[x]}")
        perms.append(sigma)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        fresh = np.zeros(n, dtype=bool)
        for sigma in perms:
            fresh[sigma[frontier]] = True
        fresh &= ~reached
        reached |= fresh
        frontier = np.flatnonzero(fresh)
    if not reached.all():
        raise InvariantError(f"the automorphisms carry vertex 0 to {int(reached.sum())} of {n} vertices, not to all")


def _coefficient(q: int, j: int) -> int:
    """(-1)^j q^C(j, 2), the weight of the j-subspaces in the inclusion factorisation of A."""
    return (-1) ** j * q ** (j * (j - 1) // 2)


def _apply(graph: Incidence, x: np.ndarray, dtype) -> np.ndarray:
    """Op x in dtype, for Op = sum_{j=0..k} (-1)^j q^C(j,2) W_j^T W_j.

    W_j is the j-subspace x vertex incidence.  W_j x is a scatter-add of x
    onto the ids of graph.flats[j], and W_j^T y a gather of y and a row sum.
    With w_j = [k j]_q the width of that table, every term and partial sum
    is at most sum_j q^C(j,2) w_j ||x||_1 in absolute value, so this is
    exact in _dtype of that bound.
    """
    x = _cast(x, dtype)
    result = np.zeros(len(x), dtype=dtype)
    for j, (table, key) in enumerate(zip(graph.flats, graph.keys)):
        sums = np.zeros(len(key), dtype=dtype)
        np.add.at(sums, table, x[:, None])
        result += _coefficient(graph.ctx.q, j) * sums[table].sum(axis=1)
    return result


def _krylov(apply, column: list[np.ndarray], bounds: list[int]) -> list[np.ndarray]:
    """column extended by one apply(x, _dtype(bound)) of its last vector per bound, in order."""
    for bound in bounds:
        column.append(apply(column[-1], _dtype(bound)))
    return column


def _column_certificate(predicted: SpectrumTable, column: list[np.ndarray], top: int,
                        degree: int | None) -> CertificationResult:
    """The certificate read off the Krylov column A^m e_0, m = 0..max(k, number of eigenvalues).

    The moments are n (A^m e_0)_0, and P(A) e_0 is the column's combination
    with the coefficients of prod_j (x - lambda_j), formed in
    _dtype(prod_j (top + |lambda_j|)); top must bound |A^m e_0| by top^m.
    """
    eigenvalues, multiplicities = _prediction(predicted)
    n, k = len(column[0]), predicted.k
    moments = [n * int(x[0]) for x in column[: k + 1]]
    coeffs, bound = [1], 1  # of prod_j (x - lambda_j), lowest degree first; prod_j (top + |lambda_j|)
    for lam in eigenvalues:
        coeffs = [shifted - lam * c for shifted, c in zip([0, *coeffs], [*coeffs, 0])]
        bound *= top + abs(lam)
    dtype = _dtype(bound)
    product = sum(c * _cast(x, dtype) for c, x in zip(coeffs, column))  # P(A) e_0
    nonzero = np.flatnonzero(product)
    residual = (0, int(nonzero[0]), int(product[nonzero[0]])) if nonzero.size else None
    expected = [sum(mult * lam**m for lam, mult in zip(eigenvalues, multiplicities)) for m in range(k + 1)]
    offending = [(m, e, a) for m, (e, a) in enumerate(zip(expected, moments)) if e != a]
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


def certify_spectrum(graph: Incidence, predicted: SpectrumTable, automorphisms) -> CertificationResult:
    """Certify that predicted is exactly the spectrum of qK(v, k), given as its Incidence.

    Requires an evaluated prediction with distinct eigenvalues and positive
    multiplicities (ValueError otherwise), and Automorphisms (as
    vertex_automorphisms returns them) that carry the subspaces of every
    vertex to those of its image and act transitively, and a factored
    operator whose column 0 is the brute-force column: InvariantError
    otherwise.  Runs the annihilating product and the moment checks on
    column 0 in exact integer arithmetic; a mismatch is reported as data,
    with the offending moment or a nonzero residual entry.
    """
    eigenvalues, _ = _prediction(predicted)  # refused before any work
    _check_automorphisms(graph, automorphisms)
    column = graph.adjacency_rows(0, 1)[0]  # A e_0, row 0 of a block of one: A is symmetric
    degree = int(column.sum())
    growth = sum(abs(_coefficient(graph.ctx.q, j)) * table.shape[1] for j, table in enumerate(graph.flats))

    def apply(x, dtype):
        return _apply(graph, x, dtype)

    start = (np.arange(graph.n) == 0).astype(_dtype(1))  # e_0
    krylov = _krylov(apply, [start], [growth])
    mismatch = np.flatnonzero(krylov[1] != column)
    if mismatch.size:
        i = int(mismatch[0])
        raise InvariantError(f"the factored operator's column 0 has {int(krylov[1][i])} at vertex {i}, "
                             f"the brute-force column {int(column[i])}")
    # Op = A now, so A^m e_0 >= 0 and ||A^m e_0||_1 = degree^m: A is regular, being vertex-transitive
    steps = max(predicted.k, len(eigenvalues))
    krylov = _krylov(apply, krylov, [growth * degree ** (m - 1) for m in range(2, steps + 1)])
    return _column_certificate(predicted, krylov, graph.n, degree)


# ----------------------------------------------------------------------
# serialization


def dump_vertices(bases: np.ndarray, path: str | Path) -> None:
    """One RREF basis per line: entry encodings, row-major, space-separated.

    Each entry is looked up in a table of str(0..max) as NUL-padded bytes
    and followed by a space; the last space of a line is a NUL, a newline
    column follows, and the buffer is written without its NULs.
    """
    flat = bases.reshape(len(bases), -1)
    table = np.array([str(e) for e in range(int(flat.max(initial=0)) + 1)], dtype="S")
    cells = np.zeros((*flat.shape, table.itemsize + 1), dtype=np.uint8)
    cells[..., :-1] = table[flat].view(np.uint8).reshape(*flat.shape, table.itemsize)
    cells[:, :-1, -1] = ord(" ")
    text = np.concatenate([cells.reshape(len(flat), -1), np.full((len(flat), 1), ord("\n"), dtype=np.uint8)], axis=1)
    Path(path).write_bytes(text[text != 0])


def dump_adjacency(strips, path: str | Path) -> None:
    """One 0/1 row per line, space-separated, from consecutive strips of rows (2-D arrays,
    as Incidence.adjacency_strips yields them); other entries raise ValueError.

    An entry e is the little-endian uint16 0x2030 + e, the bytes "0 " or
    "1 ", and the last of a row is XORed to "0\\n" or "1\\n": each strip's
    text is one array, written as it is.
    """
    with open(path, "wb") as out:
        for strip in strips:
            if strip.size and (strip.max() > 1 or strip.min() < 0):
                raise ValueError("adjacency dump needs 0/1 entries")
            text = np.add(strip, 0x2030, dtype="<u2", casting="unsafe", order="C")
            text[:, -1] ^= 0x2030 ^ 0x0A30
            out.write(text)


def dump_certification(result: CertificationResult, path: str | Path) -> None:
    Path(path).write_text(json.dumps(result.to_json_dict(), indent=2) + "\n", encoding="utf-8")
