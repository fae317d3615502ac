"""Gaussian binomial coefficients [n choose i]_q as exact Laurent polynomials.

gauss(n, i) is defined for every integer n and nonnegative integer i:

  * n >= 2i >= 0: the classical Gaussian binomial, computed by the
    Pascal-type recurrence  [n i] = [n-1 i-1] + q^i [n-1 i]  with
    [n 0] = 1, staying inside the polynomial ring the whole way;
  * i <= n < 2i: the mirror [n i] = [n n-i], a cell of the case above;
  * 0 <= n < i: identically zero;
  * n < 0: the reflection to a nonnegative top,
        [n i] = (-1)^i q^(n*i - i(i-1)/2) [i-1-n i],
    where i-1-n >= i, so the reduced coefficient is an honest polynomial
    and the monomial factor contributes the negative exponents.

Only the canonical cells [n i] with n >= 2i are computed.  A mirrored
cell is looked up as its canonical one, before any sweep, and the memo
hands out that same object under both keys; a negative top is reflected
first, so [-5 14] is served from [18 14], which is [18 4].

The recurrence runs bottom-up, not by recursion, as one in-place column
sweep (_sweep).  The canonical cell [c+r c] stands in column c, row r; a
list holds one column's cells by row, and column c overwrites column
c-1, rows ascending from the diagonal:

    [2c c]  = [2c-1 c-1] + q^c [2c-1 c-1]     (its right parent, read as its mirror)
    [c+r c] = [c+r-1 c-1] + q^c [c+r-1 c]     (r > c)

where [c+r-1 c-1] is the row's entry from column c-1 and [c+r-1 c] the
new entry of the row above; column 0 is [r 0] = 1.  Asked for several
cells, the sweep runs over the union of their boxes: column c only as
deep as the deepest cell asked for in columns c and beyond, and it hands
out the cells asked for in column c as soon as column c is finished.
The cells are priced first, in the order given, as refuse_oversized
prices them: the first estimated above MEMO_BYTE_LIMIT bytes (by
_memo_bytes) is refused with MemoRefused, a ValueError naming the cell
as asked, before any column is computed.

The cells are Kronecker images (see laurent.py), not polynomials: a
sweep runs at one slot width W = _slot_bytes(C(n, i)) for the largest
C(n, i) asked for, and a cell is two big-integer operations, a shift by
8W*c bits and an addition.  This is exact because every cell [c+r c] of
the sweep has nonnegative coefficients summing to C(c+r, c), at most the
C(n, i) of an asked cell whose box holds it, < 2^(8W-1).  No cell is
re-slotted, and each carries C(c+r, c) as its norm (laurent.py).

What gauss's memo keeps.  Its lru_cache holds exactly the keys gauss
was called on, and the canonical cell that a mirrored or reflected key is
served from: gauss(-5, 14) leaves (-5, 14), (18, 14) and (18, 4).  A miss
on a canonical cell sweeps that cell alone and keeps nothing of its box.
stream(cells) is the one path that sweeps several cells, and it fills no
memo: it hands each column's cells to its caller.  Its two callers are in
spectrum.py: spectrum_table, for its 2k+2 cells, and the Delsarte column,
which forms each sum as soon as its last column is out and drops its
terms, so no Delsarte term is ever held past its sum.

gauss_eval_product evaluates the defining product
prod_{j=0}^{i-1} (q0^(n-j) - 1)/(q0^(i-j) - 1) exactly at a concrete
integer point, as the Fraction N / q0^e of _eval_product.  That one
function, memoized by (n, i, q0), computes in integers: a factor with a
negative top n-j is (1 - q0^(j-n)) / q0^(j-n), whose power of q0 goes to
e, and the numerator it collects must divide exactly by the denominator,
or it raises InvariantError.  It shares no code with gauss and serves as
its independent oracle in the test suite and, as (N, e) pairs compared
without fractions, in the pascal and lemma1 cross-checks of
identities.py.

alternating_sum is theorem 2's left side as written, m + 1 products in one
sum_of_products, behind four identities (identities.py).
full_alternating_sum is the same sum run to s = m by Cauchy's q-binomial
theorem, m shift-and-subtract passes and no product, behind the Delsarte
eigenvalue form (spectrum.py); the literal sum is its reference in the
tests.  refuse_oversized prices cells as gauss does, without a sweep.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator

from .laurent import ONE, ZERO, InvariantError, LaurentPoly, _slot_bytes, sum_of_products


# Largest q-Pascal box, in estimated bytes (_memo_bytes), that one cell may be swept through.
MEMO_BYTE_LIMIT = 1 << 30

# Bytes per cell of a box beside its coefficients (see _memo_bytes).
_CELL_BYTES = 256


class MemoRefused(ValueError):
    """A call of gauss refused up front: its q-Pascal memo is estimated above MEMO_BYTE_LIMIT."""

    def __init__(self, n: int, i: int, estimate: int):
        super().__init__(f"[{n} {i}]_q needs a q-Pascal memo of about {estimate} bytes, "
                         f"above the limit of {MEMO_BYTE_LIMIT}")
        self.estimate = estimate


@lru_cache(maxsize=None)
def gauss(n: int, i: int) -> LaurentPoly:
    """[n choose i]_q, exactly, for any integer n and i >= 0.

    Results are memoized under the keys called and the canonical cells
    they are served from, nothing else; the cache is safe to share because
    values are immutable and the function is pure.  Only the canonical
    cells [n i] with n >= 2i are computed, each by a sweep of its own: a
    mirrored cell, i <= n < 2i, is the same object as [n n-i], and a
    negative top is first reflected to a nonnegative one.  Raises
    MemoRefused, a ValueError naming [n i], before any work, when the box
    of its canonical cell is estimated above MEMO_BYTE_LIMIT.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"top index must be an int, got {n!r}")
    if isinstance(i, bool) or not isinstance(i, int):
        raise TypeError(f"lower index must be an int, got {i!r}")
    if i < 0:
        raise ValueError(f"lower index must be nonnegative, got {i}")
    if i == 0:
        return ONE
    if n < 0:
        reflected = _served_from(n, i, i - 1 - n, i)
        shifted = reflected.shift(n * i - i * (i - 1) // 2)
        return -shifted if i % 2 else shifted
    if n < i:
        return ZERO
    if n < 2 * i:
        return _served_from(n, i, n, n - i)
    *_, last = _sweep(((n, i),))  # a sweep of [n i] alone, its last column holding [n i]
    # the coefficients of [n i] are nonnegative and sum to C(n, i), its norm
    width, image = last[(n, i)]
    return LaurentPoly._from_image(0, width, image, comb(n, i))


def _served_from(n: int, i: int, top: int, low: int) -> LaurentPoly:
    # gauss(top, low), which [n i] is computed from; a refusal names [n i]
    try:
        return gauss(top, low)
    except MemoRefused as exc:
        raise MemoRefused(n, i, exc.estimate) from None


def stream(cells: Iterable[tuple[int, int]]) -> Iterator[dict[tuple[int, int], LaurentPoly]]:
    """The canonical cells of cells, column by column, from one q-Pascal sweep that fills no memo.

    Yields, for c = 0, 1, ... up to the last column asked for, the dict
    {(n, c): [n c]} of the canonical cells asked for in column c, as soon
    as the sweep has finished that column; column 0 is always empty, as
    its cells are 1 (gauss's ONE).  The cells are priced in their order by
    refuse_oversized before the first column, and the first refused raises
    gauss's MemoRefused.  Nothing of the sweep enters gauss's memo: a
    caller that drops a column's cells holds none of them.
    """
    for column in _sweep(cells):
        # the coefficients of [n c] are nonnegative and sum to C(n, c), its norm
        yield {(n, c): LaurentPoly._from_image(0, width, image, comb(n, c))
               for (n, c), (width, image) in column.items()}


def _sweep(cells: Iterable[tuple[int, int]]) -> Iterator[dict[tuple[int, int], tuple[int, int]]]:
    # The canonical cells of cells as (slot width, image), priced first,
    # from one in-place column sweep over the union of their boxes at the
    # width of the largest C(n, i) among them (see the module docstring):
    # one dict for each column c = 0, 1, ... up to the last asked for, of
    # the cells asked for in it, handed out when the column is finished.
    cells = tuple(cells)
    refuse_oversized(cells)
    asked: dict[int, set[int]] = {}  # rows asked for, by column
    for n, i in cells:
        top = n if n >= 0 else i - 1 - n
        low = min(i, top - i)
        if low >= 1:  # not zero (top < i) and not 1 (low = 0)
            asked.setdefault(low, set()).add(top - low)
    width = _slot_bytes(max((comb(c + max(rows), c) for c, rows in asked.items()), default=1))
    last = max(asked, default=0)
    depth = [0] * (last + 2)  # depth[c]: the deepest row asked for in columns c and beyond
    for c in range(last, 0, -1):
        depth[c] = max((depth[c + 1], *asked.get(c, ())))
    yield {}
    column = [1] * (depth[1] + 1)
    for c in range(1, last + 1):
        shift = 8 * width * c
        column[c] += column[c] << shift
        for r in range(c + 1, depth[c] + 1):
            column[r] += column[r - 1] << shift
        yield {(c + r, c): (width, column[r]) for r in asked.get(c, ())}


def refuse_oversized(cells: Iterable[tuple[int, int]]) -> None:
    """Raise gauss's MemoRefused for the first cell (n, i) whose memo is estimated above the limit.

    Nothing is computed: a cell is reflected and mirrored as gauss does it,
    and the box of its canonical cell is priced by _memo_bytes, as gauss
    prices it.  Every key of gauss's memo passed this pricing when gauss
    was called on it, so a cell refused here is a cell gauss refuses.
    """
    for n, i in cells:
        top = n if n >= 0 else i - 1 - n
        if 1 <= i <= top:
            estimate = _memo_bytes(top, i)
            if estimate > MEMO_BYTE_LIMIT:
                raise MemoRefused(n, i, estimate)


def _memo_bytes(n: int, i: int) -> int:
    """Upper estimate of the bytes of the box of [n i], for n >= i >= 1: the price of its sweep.

    A sweep of [n i] holds at most one cell of each row of the box at a
    time and keeps [n i] alone, so the whole box is an upper bound on it;
    stream prices each of its cells by its own box the same way.  The box
    is that of the canonical cell, so i is first taken as min(i, n - i).
    Its cells [c+r c] with
    1 <= c <= i and c <= r <= n-i, i(n - i) - i(i - 1)/2 of them, have
    c*r + 1 coefficients each, and the n - i base cells [r 0] share the
    single polynomial 1.  A cell's image holds one W-byte slot per
    coefficient, with W = _slot_bytes(C(n, i)) <= bits // 8 + 1, since
    every coefficient is at most C(n, i) <= min(2^n, n^i); CPython stores
    the image in 30-bit digits of 4 bytes, 16/15 of that.  Each cell also costs its
    LaurentPoly, the image's int header and the memo entry, under
    _CELL_BYTES (about 180 to 210 bytes, measured with tracemalloc).
    """
    i = min(i, n - i)
    rest = n - i
    cells = i * rest - i * (i - 1) // 2 + rest
    # sum of c*r over the cells: T(i) T(rest) less the sum of c T(c-1), c <= i
    products = (i * (i + 1) // 2) * (rest * (rest + 1) // 2) - (i - 1) * i * (i + 1) * (3 * i + 2) // 24
    bits = min(n, i * n.bit_length())
    return (products + cells) * (bits // 8 + 1) * 16 // 15 + cells * _CELL_BYTES


def alternating_sum(m: int, a: int, t: int, top: int) -> LaurentPoly:
    """sum_{s=0}^{top} (-1)^s q^C(s,2) [m s][a-s t], as one sum_of_products.

    Lemma 2 at (n, a) = (3, 2) is q^(na) [a-n a] = q^6 [-1 2]; the j = 1
    Delsarte sum of qK(4, 2), at (k-j, v-2j, v-k-j, k-j), is the
    eigenvalue -q^2 over (-1)^j q^((k-j)j + C(j,2)) = -q:

    >>> alternating_sum(3, 2, 0, 2)
    LaurentPoly('q^3')
    >>> alternating_sum(1, 2, 1, 1)
    LaurentPoly('q')
    """
    return sum_of_products(((-1) ** s, s * (s - 1) // 2, gauss(m, s), gauss(a - s, t)) for s in range(top + 1))


def full_alternating_sum(m: int, a: int, t: int, terms: list[LaurentPoly] | None = None) -> LaurentPoly:
    """alternating_sum(m, a, t, m), computed by the q-binomial theorem without a product.

    Cauchy's  prod_{i<m} (1 - q^i y) = sum_s (-1)^s q^C(s,2) [m s] y^s,
    with y the shift E: B_s -> B_(s+1) on B_s = [a-s t], makes the sum
    (prod_{i<m} (1 - q^i E) B)_0.  Pass i sets B_s -= q^i B_(s+1) for s
    ascending to m-1-i, in place, on the images of the B_s.  Evaluation at
    2^(8w) is a ring homomorphism, so only the final image has to decode,
    and the sum's coefficients add up to at most alternating_sum's bound
    sum_s C(m, s) norm(B_s).  The passes run at the width of that bound,
    or at the terms' own width where it is wider (one sweep makes every
    term at one width), and then only the result is re-slotted: it has
    alternating_sum's valuation, width, image and norm.  terms, if given,
    are the B_s, s = 0..m, as the caller has them (the Delsarte column
    streams them, spectrum.py); they are read from gauss otherwise.

    >>> full_alternating_sum(1, 2, 1)
    LaurentPoly('q')
    >>> full_alternating_sum(2, -1, 1) == alternating_sum(2, -1, 1, 2)
    True
    """
    if terms is None:
        terms = [gauss(a - s, t) for s in range(m + 1)]
    bound = sum(comb(m, s) * term._norm for s, term in enumerate(terms))
    if not bound:
        return ZERO
    width = _slot_bytes(bound)
    wide = max(width, *(term._width for term in terms if term._image))
    bits = 8 * wide
    low = min(term._low for term in terms if term._image)
    images = [term._image_at(wide) << bits * (term._low - low) if term._image else 0 for term in terms]
    for i in range(m):
        shift = bits * i
        for s in range(m - i):
            images[s] -= images[s + 1] << shift
    result = LaurentPoly._from_image(low, wide, images[0], bound)
    return result if wide == width else LaurentPoly._from_image(result._low, width, result._image_at(width), bound)


def gauss_eval_product(n: int, i: int, q0: int) -> Fraction:
    """The defining product for [n choose i]_q evaluated exactly at q = q0.

    The empty product (i = 0) is 1.  Requires i >= 0 and q0 >= 2; the
    result is an exact rational, an integer whenever n >= 0.  It is
    _eval_product's (N, e) as N / q0^e, after the arguments are checked.
    """
    if isinstance(i, bool) or not isinstance(i, int) or i < 0:
        raise ValueError(f"lower index must be a nonnegative int, got {i!r}")
    if isinstance(q0, bool) or not isinstance(q0, int) or q0 < 2:
        raise ValueError(f"evaluation point must be an int >= 2, got {q0!r}")
    numerator, e = _eval_product(n, i, q0)
    return Fraction(numerator, q0**e)


@lru_cache(maxsize=None)
def _eval_product(n: int, i: int, q0: int) -> tuple[int, int]:
    """The defining product at q0 as (N, e), its value N / q0^e, memoized by (n, i, q0).

    For n < 0 every top n - j is negative and e is the sum of the j - n;
    for n >= 0, e = 0, and a product with a zero factor, 0 <= n < i, is
    (0, 0).  Raises InvariantError when N does not come out an integer.
    """
    num, den, e = _product_terms(n, i, q0)
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InvariantError(f"the defining product of [{n} {i}]_q at q={q0} is not an integer over {q0}^{e}")
    return quotient, e


def _product_terms(n: int, i: int, q0: int) -> tuple[int, int, int]:
    # The product as num / (den q0^e).  Its denominators q0^(i-j) - 1 run
    # over q0^m - 1, m = 1..i.  For n >= i its tops n-j are m = n-i+1..n;
    # for n < 0 every top is negative and q0^(n-j) - 1 = -(q0^m - 1) / q0^m
    # with m = j-n = -n..i-1-n, whose powers of q0 make e = C(i,2) - ni.
    if 0 <= n < i:
        return 0, 1, 0  # the factor j = n is q0^0 - 1 = 0
    low, sign, e = (n - i + 1, 1, 0) if n >= 0 else (-n, (-1) ** i, i * (i - 1) // 2 - n * i)
    num = den = 1
    top, bottom = q0**low, q0
    for _ in range(i):
        num *= top - 1
        den *= bottom - 1
        top *= q0
        bottom *= q0
    return sign * num, den, e
