"""Brute-force ground truth for q-Kneser spectra.

This module builds qK(v, k) from scratch: it enumerates every
k-dimensional subspace of F_q^v as a canonical reduced-row-echelon basis,
lists the projective points of each vertex, and certifies a predicted
spectrum of the adjacency matrix A (x ~ y iff x != y share no point, as
_packed_adjacency computes it) with zero numerical tolerance:

  * annihilation: the exact integer product P(A) = prod_j (A - lambda_j I)
    must be the zero matrix; since A is symmetric (hence diagonalizable) this
    proves every eigenvalue of A lies among the predicted values;
  * moments: tr(A^m) must equal sum_j mult_j * lambda_j^m for m = 0..k;
    the (k+1) x (k+1) Vandermonde matrix on distinct eigenvalues is
    invertible, so matching moments pins the multiplicities exactly.

Both checks passing means the predicted spectrum IS the spectrum.

Both checks read one column of A, through checked automorphisms.  GL(v, q)
permutes the k-subspaces transitively and preserves trivial intersection
(Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 9.3), and
vertex_automorphisms turns generators of it into permutations tau of the
points and sigma of the vertices.  Nothing is taken on trust:
certify_spectrum checks that each is a permutation, that the points of
sigma x are tau of those of x for every vertex x (so sigma preserves A),
and that the sigmas together carry vertex 0 to every vertex.  A commutes
with each sigma as a permutation matrix S, hence so does every polynomial
in A: P(A) e_sigma(i) = S P(A) e_i and (A^m)_ii = (A^m)_sigma(i)sigma(i), so

  * P(A) = 0 iff P(A) e_0 = 0, and tr(A^m) = n (A^m)_00;
  * P(A) is symmetric, so when it is not zero its row 0 is not zero, and
    its row-major first nonzero entry is (0, j, P(A)[j, 0]) for the first
    nonzero j of P(A) e_0: the entry the sequential product reports.

The column is read through a quotient (Godsil-Royle, Algebraic Graph
Theory, ch. 9; Brouwer-Haemers, Spectra of Graphs, ch. 2).  The checked
sigmas that fix vertex 0 generate a group H of automorphisms; its orbits
form an equitable partition, and vertex 0 is an orbit of its own, O_0.
With B[O][O'] = |N(u) & O'| for the smallest u in O (the same for every u
in O, since H preserves A and O'), A lift(y) = lift(B y) for every vector
y on the r orbits, lift(y) being y[O] at each vertex of O.  So A^m e_0 is
the lift of B^m e_O0, the moments are n (B^m)_O0O0, and P(A) e_0 is the
lift of P(B) e_O0: its first nonzero entry is at the smallest vertex of
the first orbit (orbits are numbered by their smallest vertex) where
P(B) e_O0 is nonzero.  B takes r rows of A, all from one free-point
table of their r columns and one AND pass over every vertex, and the
Krylov column B^m e_O0, m = 0..max(k, number of eigenvalues), is r
Python ints a step: no n x n array and no bound.  A smaller H only
makes r larger; nothing assumes r = k + 1.  Only --dump forms A: it
builds the free-point table of every column once, points * ceil(n / 8)
bytes, and unpacks a strip of about 2^18 entries of rows at a time.

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

import functools
import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .gf import FieldCtx
from .intmatrix import IntMatrix
from .laurent import InvariantError
from .qbinom import gauss_eval_product
from .spectrum import SpectrumTable

DEFAULT_VERTEX_BUDGET = 2000
_STRIP_ENTRIES = 2**18  # entries of A per strip of Incidence.adjacency_strips


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


class _FieldArrays:
    """GF(q) arithmetic on int64 arrays of element encodings, built from the scalar ops of a FieldCtx.

    antilog[i] is g^i for a generator g of the multiplicative group: the
    first element whose powers run through all q - 1 nonzero elements
    before they return to 1 (see _antilog).  log inverts it
    (log[0] is unused) and inverse[a] = g^(-log a) for a != 0, inverse[0]
    = 0.  Prime fields add and multiply by % p; otherwise mul adds logs,
    0 times anything being 0, and add is XOR when p = 2, else
    fold[spread[a] + spread[b]]: spread reads base-p digits base 2p - 1,
    so the sum never carries, and fold reads it back mod p, base p.  fold
    has (2p - 1)^e < 2^e q entries, every other table at most q.
    """

    __slots__ = ("p", "e", "q", "log", "antilog", "inverse", "spread", "fold")

    def __init__(self, ctx: FieldCtx):
        self.p, self.e, self.q = ctx.p, ctx.e, ctx.q
        self.antilog = _antilog(ctx)
        self.log = np.zeros(ctx.q, dtype=np.int64)
        self.log[self.antilog] = np.arange(ctx.q - 1)
        self.inverse = np.zeros(ctx.q, dtype=np.int64)
        self.inverse[self.antilog] = self.antilog[-np.arange(ctx.q - 1) % (ctx.q - 1)]
        odd, wide, digits = self.p > 2 and self.e > 1, 2 * self.p - 1, np.arange(self.e)  # empty unless odd
        self.spread = np.arange(ctx.q * odd)[:, None] // self.p**digits % self.p @ wide**digits
        self.fold = np.arange(wide**self.e * odd)[:, None] // wide**digits % wide % self.p @ self.p**digits
        for table in (self.antilog, self.log, self.inverse, self.spread, self.fold):  # shared through _field_arrays
            table.flags.writeable = False

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.fold[self.spread[a] + self.spread[b]]

    def mul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        return np.where((a == 0) | (b == 0), 0, self.antilog[(self.log[a] + self.log[b]) % (self.q - 1)])

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The matrix product a @ b over GF(q) of a 2-D a and a stack of matrices b, shape
        b.shape[:-2] + (len(a), b.shape[-1]).

        A prime field takes the integer product mod p.  Its sums of v terms
        below p^2 overflow int64 only when v p^2 >= 2^63, and F_q^v then
        has more than 2^30 points, far more than fit in memory.  Otherwise
        row r of b is multiplied once by each distinct entry of column r
        of a, and those multiples are gathered and added.
        """
        if self.e == 1:
            product = np.matmul(a, b)
            return np.remainder(product, self.p, out=product)
        total = np.matmul(a[:, :0], b[..., :0, :])  # zeros of the product's shape
        for r in range(a.shape[1]):
            values = np.flatnonzero(np.bincount(a[:, r], minlength=self.q))
            multiples = self.mul(values[:, None], b[..., r, None, :])
            total = self.add(total, multiples[..., np.searchsorted(values, a[:, r]), :])
        return total


def _antilog(ctx: FieldCtx) -> np.ndarray:
    """g^0, ..., g^(q-2) for the first g of 1, 2, ... whose powers run through all q - 1 nonzero elements.

    A prime field whose products fit int64 takes the powers of each
    candidate in blocks of B = ceil(sqrt(q - 1)): g^0..g^(B-1) and the
    steps g^(Bi) in Python, then every g^(Bi) g^j mod p in one numpy
    product; a candidate is a generator when 1 does not come back.  Any
    other field takes successive ctx.mul powers.
    """
    q = ctx.q
    for g in range(1, q):
        if ctx.e == 1 and (q - 1) ** 2 < 2**63:
            block = math.isqrt(q - 2) + 1
            head = [1]
            for _ in range(block):  # g^0..g^B, the last one the step
                head.append(head[-1] * g % q)
            steps = [1]
            for _ in range(block - 1):
                steps.append(steps[-1] * head[-1] % q)
            powers = (np.array(steps)[:, None] * np.array(head[:-1]) % q).ravel()[:q - 1]
            if not (powers[1:] == 1).any():
                return powers
        else:
            powers = [1]
            while len(powers) < q - 1 and (power := ctx.mul(powers[-1], g)) != 1:
                powers.append(power)
            if len(powers) == q - 1:
                return np.array(powers, dtype=np.int64)
    raise InvariantError(f"GF({q}) has no generator of its multiplicative group")


@functools.lru_cache(maxsize=8)
def _field_arrays(ctx: FieldCtx) -> _FieldArrays:
    """The _FieldArrays of ctx, built once per field."""
    return _FieldArrays(ctx)


def _point_codes(ctx: FieldCtx, bases: np.ndarray) -> np.ndarray:
    """The projective points of each vertex, as an (n, [k 1]_q) int64 array.

    The points of a subspace are the combinations of its RREF rows whose
    first nonzero coefficient is 1.  That coefficient is also the
    vector's first nonzero coordinate, so equal points of different
    subspaces get equal codes: the vector's coordinates read base q,
    coordinate 0 least significant.  The coefficient vectors are the RREF
    bases of the 1-subspaces of F_q^k, in enumeration order, and every
    vertex's combinations are formed at once with the _FieldArrays ops, a
    block of vertices at a time (at most 2^18, and about 2^16 vector
    entries), so no (n, [k 1]_q, v) array is built.  Codes are below
    q^v, which fits int64 whenever the result fits in memory: q^v <= n^2
    for 1 <= k < v, and q^v <= [v 1]_q^2 for k = v >= 2.
    """
    n, k, v = bases.shape
    field, coefficients = _field_arrays(ctx), _rref_bases(ctx.q, k, 1)[:, 0]
    weights = ctx.q ** np.arange(v)
    codes = np.empty((n, len(coefficients)), dtype=np.int64)
    step = min(2**18, max(1, 2**16 // max(1, codes.shape[1] * v)))
    for start in range(0, n, step):
        codes[start : start + step] = field.dot(coefficients, bases[start : start + step]) @ weights
    return codes


class Incidence:
    """qK(v, k) as the projective points of its vertices, the form the certificate reads.

    points holds the codes of the projective points of F_q^v (as
    _point_codes writes them) in the order of enumerate_subspaces(ctx, v,
    1); a point's id is its index there.  members is the (n, [k 1]_q) array
    of the point ids of each vertex, every row sorted (for k = 1 vertex x of
    the full enumeration is point x).
    """

    __slots__ = ("ctx", "v", "k", "points", "members")

    def __init__(self, bases: np.ndarray, ctx: FieldCtx):
        n, k, v = bases.shape
        if n == 0:
            raise ValueError("empty vertex list")
        self.ctx, self.v, self.k = ctx, v, k
        self.points = _rref_bases(ctx.q, v, 1)[:, 0] @ ctx.q ** np.arange(v)
        self.members = _point_ids(self.points, _point_codes(ctx, bases))
        self.members.sort(axis=1)

    @property
    def n(self) -> int:
        return len(self.members)

    def adjacency_strips(self):
        """A as consecutive C-contiguous bool strips of rows, about 2^18 entries each.

        Each strip is _packed_adjacency of its rows against the free-point
        table of every column, built once (points * ceil(n / 8) bytes),
        unpacked along the columns.
        """
        free = self._free_points(np.arange(self.n))
        rows = max(1, _STRIP_ENTRIES // self.n)
        for start in range(0, self.n, rows):
            yield np.unpackbits(_packed_adjacency(free, self.members[start : start + rows]), axis=1,
                                count=self.n).view(bool)

    def _free_points(self, columns: np.ndarray) -> np.ndarray:
        """The free-point table of the vertices columns, an int array: a (points, ceil(len(columns) / 8))
        uint8 array, packed as np.packbits packs along its last axis, whose bit b of row p says that
        point p is no point of vertex columns[b].

        The bits are cleared in place, one bit position of the bytes at a
        time, so no fancy-indexed AND names a byte twice; no unpacked
        (points, len(columns)) array is formed.
        """
        table = np.full((len(self.points), -(-len(columns) // 8)), 0xFF, dtype=np.uint8)
        for i in range(8):  # entry 8c + i is bit 7 - i of byte c
            members = self.members[columns[i::8]]
            table[members, np.arange(len(members))[:, None]] &= np.uint8(0xFF ^ 0x80 >> i)
        return table


def _packed_adjacency(free: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The rows of A of the vertices whose sorted point ids are the rows of members, packed as the
    free-point table free (Incidence._free_points) of some columns is: the AND of free's rows
    at each vertex's point ids.  This is A's one definition.

    Bit b of the AND is set iff column b's vertex contains none of the
    vertex's points, i.e. the two share no projective point and so meet
    trivially (Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 9.3).  A
    vertex's own points clear its own bit, so the diagonal is zero for
    k >= 1; the zero subspace, the one vertex of k = 0, has no points and
    gets a zero row.
    """
    rows = np.full((len(members), free.shape[1]), 0xFF if members.shape[1] else 0, dtype=np.uint8)
    for slot in members.T:
        rows &= free[slot]
    return rows


def _point_ids(points: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The index of each nonnegative code in points, an array of distinct nonnegative codes, or -1
    where it is none of them: read off a table indexed by code when that is no larger than codes
    (its last slot, -1, stands for every code above the points), else a sorted search."""
    if points.max() < codes.size:
        table = np.full(int(points.max()) + 2, -1, dtype=np.intp)
        table[points] = np.arange(len(points))
        return table[np.minimum(codes, len(table) - 1)]
    order = np.argsort(points)
    at = order[np.searchsorted(points, codes, sorter=order).clip(max=len(points) - 1)]
    return np.where(points[at] == codes, at, -1)


def _lookup(table: np.ndarray, q: int, k: int, base: int):
    """A function from queries to the index of each of their rows among the rows of table, or -1
    where it is none of them; both hold the sorted point ids (below base) of k-subspaces over GF(q).

    A row is keyed by its ids at the positions s_i = [k 1]_q - [k-i 1]_q,
    i < k, read base `base` into one int64, first id most significant.
    Point ids run in order of pivot column, so the points of a k-subspace
    whose pivot is p_i, RREF row i plus combinations of the rows below it,
    are its q^(k-1-i) ids from position s_i on, and the least of them is
    row i itself, the one zero at every later pivot.  So the key reads the
    RREF rows, which name the subspace.  The table's keys are sorted once;
    each call finds its queries' keys with one np.searchsorted.
    ValueError, before any query, when base^k > 2^63 and keys could
    overflow int64.  For v >= 2k, [v 1]_q^k <= [v k]_q^2, so that takes
    over 3 * 10^9 vertices; only v < 2k reaches it, as qK(9,8) q=2 does.
    """
    if base**k > 2**63:
        raise ValueError(f"keys of {k} point ids below {base} do not fit int64")
    positions = [(q**k - q ** (k - i)) // (q - 1) for i in range(k)]
    weights = base ** np.arange(k - 1, -1, -1)
    keys = table[:, positions] @ weights
    order = np.argsort(keys)
    ordered = keys[order]

    def find(queries: np.ndarray) -> np.ndarray:
        value = queries[:, positions] @ weights
        at = np.searchsorted(ordered, value).clip(max=len(ordered) - 1)
        return np.where(ordered[at] == value, order[at], -1)

    return find


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
    points the permutation tau of the ids of Incidence.points."""

    vertices: np.ndarray
    points: np.ndarray


def vertex_automorphisms(graph: Incidence) -> list[Automorphism]:
    """One Automorphism per generator of a subgroup of GL(v, q), for 0 < k < v.

    Vertex 0 is span(e_0..e_{k-1}).  The first generator, the cyclic shift
    of coordinates, moves it; the others fix it, acting on the blocks of
    coordinates 0..k-1 and k..v-1 together: the shift within each block,
    the swap of the first two coordinates of each (when a block has at
    least 3 coordinates), and for each c = p^i, i < e (the field elements
    x^i, an additive basis of GF(q) over GF(p)), the transvection
    x_{lo+1} += c x_lo at the start lo of each block of at least 2
    coordinates, then x_0 += c x_k; for p > 2, then x_0 *= 2, so that
    orbits take O(log p) breadth-first levels, not p.  When v = 2k >= 4
    the shift of coordinates 0..k-1 alone comes last: acting on both
    blocks at once, the others keep the stabiliser's orbits finer than the
    k + 1 of intersection dimension.  Each generator is a v x v matrix, a
    column permutation of the identity, transvections or the doubling of
    x_0, and all of them are applied together to the coordinates of a
    block of points (about 2^16 image entries) with the _FieldArrays ops;
    each image is rescaled to a leading 1 through the inverse table, and a
    vertex goes where its sorted point ids go: to the vertex whose RREF
    rows, read off the ids at k fixed sorted positions as one int64 key
    (_lookup), are those of the image.  An image that is no vertex raises
    InvariantError, and a point whose image is no point gets the id -1.
    ValueError, before any lookup, when those keys could overflow int64
    (only for v < 2k).  certify_spectrum checks what it relies on (that
    each map is a permutation carrying all the points of every vertex x to
    those of sigma x, and that the sigmas are transitive), so nothing
    here, the key included, is taken on trust.
    """
    ctx, q, v, k = graph.ctx, graph.ctx.q, graph.v, graph.k
    if graph.n == 1:  # nothing to carry anywhere
        return []
    find = _lookup(graph.members, q, k, len(graph.points))
    field = _field_arrays(ctx)
    weights = q ** np.arange(v)  # a code reads the coordinates base q
    vectors = graph.points[:, None] // weights % q
    starts = [lo for lo, size in ((0, k), (k, v - k)) if size >= 2]  # blocks with a swap and a transvection
    swap = np.arange(v)
    for lo in starts:
        swap[[lo, lo + 1]] = lo + 1, lo
    # generator matrices g, a point x going to x g: column permutations of the identity, and
    # transvections, the identity with c at (source, target) for y_target = x_target + c x_source
    eye = np.eye(v, dtype=np.int64)
    generators = [eye[:, np.roll(np.arange(v), 1)], eye[:, [k - 1, *range(k - 1), v - 1, *range(k, v - 1)]]]
    if max(k, v - k) >= 3:
        generators.append(eye[:, swap])
    for c in (ctx.p**i for i in range(ctx.e)):
        for pairs in ([(lo, lo + 1) for lo in starts], [(k, 0)]):
            if pairs:
                transvection = eye.copy()
                transvection[tuple(zip(*pairs))] = c
                generators.append(transvection)
    if ctx.p > 2:  # x_0 *= 2, with which x_0 += c x_k reaches every multiple of c in O(log p) steps
        generators.append(np.diag([2, *[1] * (v - 1)]))
    if v == 2 * k >= 4:
        generators.append(eye[:, [k - 1, *range(k - 1), *range(k, v)]])
    codes = np.empty((len(generators), len(vectors)), dtype=np.int64)
    step = max(1, 2**16 // (len(generators) * v))  # points whose images are formed together
    for start in range(0, len(vectors), step):
        images = field.dot(vectors[start : start + step], np.array(generators))  # (generator, point, coordinate)
        leads = np.take_along_axis(images, (images != 0).argmax(axis=2)[..., None], axis=2)
        codes[:, start : start + step] = field.mul(field.inverse[leads], images) @ weights
    taus = _point_ids(graph.points, codes)
    automorphisms = []
    for g, tau in enumerate(taus):
        image = tau[graph.members]
        image.sort(axis=1)
        sigma = find(image)
        if (sigma < 0).any():
            raise InvariantError(f"generator {g} maps vertex {int(np.argmin(sigma))} to a point set that is no vertex")
        automorphisms.append(Automorphism(sigma, tau))
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


def _check_automorphisms(graph: Incidence, automorphisms) -> list[np.ndarray]:
    """The sigmas of the automorphisms; InvariantError unless each is a pair of permutations, sigma of
    the vertices and tau of the points, that carries the points of every vertex x to those of sigma x,
    and the sigmas together carry vertex 0 to every vertex."""
    n, perms = graph.n, []
    for g, automorphism in enumerate(automorphisms):
        sigma, tau = np.asarray(automorphism.vertices), np.asarray(automorphism.points)
        if not _is_permutation(sigma, n):
            raise InvariantError(f"automorphism {g} is not a permutation of range({n})")
        if not _is_permutation(tau, len(graph.points)):
            raise InvariantError(f"automorphism {g} is not a permutation of the {len(graph.points)} 1-subspaces")
        image = tau[graph.members]
        image.sort(axis=1)
        moved = (image != graph.members[sigma]).any(axis=1)
        if moved.any():
            x = int(np.argmax(moved))
            raise InvariantError(f"automorphism {g} does not carry the 1-subspaces of vertex {x} "
                                 f"to those of vertex {sigma[x]}")
        perms.append(sigma)
    orbit, _ = _orbits(perms, n)
    if orbit.any():
        raise InvariantError(f"the automorphisms carry vertex 0 to {int((orbit == 0).sum())} of {n} vertices, "
                             f"not to all")
    return perms


def _orbits(perms, n: int) -> tuple[np.ndarray, list[int]]:
    """The orbits on range(n) of the group the permutations generate: each vertex's orbit and each
    orbit's smallest vertex, the orbits numbered in the order of those.

    Each orbit grows breadth-first from its smallest vertex, each vertex
    entering the frontier once (a finite group's orbit is the set of images
    under words in the generators).
    """
    orbit, smallest, start = np.full(n, -1, dtype=np.intp), [], 0
    while orbit[start] < 0:  # start is the smallest vertex in no orbit yet
        orbit[start] = len(smallest)
        frontier = np.array([start])
        while frontier.size:
            fresh = np.zeros(n, dtype=bool)
            for sigma in perms:
                fresh[sigma[frontier]] = True
            fresh &= orbit < 0
            orbit[fresh] = len(smallest)
            frontier = np.flatnonzero(fresh)
        smallest.append(start)
        start = int(np.argmax(orbit < 0))  # 0, in an orbit, once every vertex is
    return orbit, smallest


def _quotient(graph: Incidence, sigmas) -> tuple[np.ndarray, list[int], list[list[int]]]:
    """The orbits of the sigmas that fix vertex 0 (as _orbits numbers them), and the quotient
    B[O][O'] = |N(u) & O'| for the smallest vertex u of O, read off row u of A (all from one table)."""
    orbit, smallest = _orbits([sigma for sigma in sigmas if sigma[0] == 0], graph.n)
    packed = _packed_adjacency(graph._free_points(np.array(smallest)), graph.members)
    rows = np.unpackbits(packed, axis=1, count=len(smallest)).T.view(bool)  # A is symmetric
    counts = [np.bincount(orbit[row], minlength=len(smallest)) for row in rows]
    return orbit, smallest, [row.tolist() for row in counts]


def _column_certificate(predicted: SpectrumTable, quotient: list[list[int]], n: int,
                        smallest: list[int]) -> CertificationResult:
    """The certificate read off the Krylov column B^m e_O0, m = 0..max(k, number of eigenvalues), of
    the quotient B of a graph on n vertices; smallest holds each orbit's smallest vertex, O_0 = {0}
    first (B = A and a single vertex per orbit when smallest is range(n)).

    The moments are n (B^m e_O0)_O0, the degree is the sum of row O_0, and
    P(B) e_O0 is the column's combination with the coefficients of
    prod_j (x - lambda_j): all in Python ints.
    """
    eigenvalues, multiplicities = _prediction(predicted)
    k = predicted.k
    column = [[int(o == 0) for o in range(len(smallest))]]  # e_O0
    for _ in range(max(k, len(eigenvalues))):
        column.append([sum(b * x for b, x in zip(row, column[-1])) for row in quotient])
    moments = [n * x[0] for x in column[: k + 1]]
    coeffs = [1]  # of prod_j (x - lambda_j), lowest degree first
    for lam in eigenvalues:
        coeffs = [shifted - lam * c for shifted, c in zip([0, *coeffs], [*coeffs, 0])]
    product = [sum(c * x[o] for c, x in zip(coeffs, column)) for o in range(len(smallest))]  # P(B) e_O0
    nonzero = next((o for o, value in enumerate(product) if value), None)
    residual = None if nonzero is None else (0, smallest[nonzero], product[nonzero])
    expected = [sum(mult * lam**m for lam, mult in zip(eigenvalues, multiplicities)) for m in range(k + 1)]
    offending = [(m, e, a) for m, (e, a) in enumerate(zip(expected, moments)) if e != a]
    return CertificationResult(
        v=predicted.v,
        k=k,
        q=predicted.q,
        vertex_count=n,
        degree=sum(quotient[0]),
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
    vertex_automorphisms returns them) that carry the points of every
    vertex to those of its image and act transitively (InvariantError
    otherwise).  Runs the annihilating product and the moment checks on
    column 0, through the quotient on the orbits of the automorphisms that
    fix vertex 0, in exact integer arithmetic; a mismatch is reported as
    data, with the offending moment or a nonzero residual entry.
    """
    _prediction(predicted)  # refused before any work
    _, smallest, quotient = _quotient(graph, _check_automorphisms(graph, automorphisms))
    return _column_certificate(predicted, quotient, graph.n, smallest)


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
    """One 0/1 row per line, space-separated, from consecutive bool strips of rows (2-D arrays,
    as Incidence.adjacency_strips yields them); a strip of any other dtype raises ValueError.

    An entry e is the little-endian uint16 0x2030 + e, the bytes "0 " or
    "1 ", and the last of a row is XORed to "0\\n" or "1\\n": each strip's
    text is one array, written as it is.
    """
    with open(path, "wb") as out:
        for strip in strips:
            if strip.dtype != bool:
                raise ValueError(f"adjacency dump needs bool strips, got {strip.dtype}")
            text = np.add(strip, 0x2030, dtype="<u2", casting="unsafe", order="C")
            text[:, -1] ^= 0x2030 ^ 0x0A30
            out.write(text)


def dump_certification(result: CertificationResult, path: str | Path) -> None:
    Path(path).write_text(json.dumps(result.to_json_dict(), indent=2) + "\n", encoding="utf-8")
