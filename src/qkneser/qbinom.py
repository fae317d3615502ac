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

Only the canonical cells [n i] with n >= 2i are computed and kept.  A
mirrored cell is looked up as its canonical one, before any fill, and
the memo hands out that same object under both keys; a negative top is
reflected first, so [-5 14] is served from [18 14], which is [18 4].

The recurrence is run bottom-up, not by recursion: a call that misses
the memo first calls gauss on every canonical cell [c+r c] with
1 <= c <= r that the recurrence reaches from [n i], columns c ascending
and rows r ascending within a column.  A mirrored cell r < c of the same
box is [c+r r], also canonical and in the box; the recurrence meets one
only on the diagonal, where [2c c] reads its right parent [2c-1 c] as
[2c-1 c-1].  Each of those calls finds its two cells in the memo or among
the base cells [r 0] = 1, so no call nests more than two deep.  A call
whose memo is estimated (by _memo_bytes) above MEMO_BYTE_LIMIT bytes is
refused with MemoRefused, a ValueError naming the cell asked for, before
any cell is computed.

The cells are added as Kronecker images (see laurent.py), not as
polynomials: one fill runs at one slot width W = _slot_bytes(C(n, i)),
and a cell is  [c+r c] = [c+r-1 c-1] + ([c+r-1 c] << 8W*c),  two big-integer
operations.  This is exact because every cell [c+r c] of the fill has
nonnegative coefficients summing to C(c+r, c) <= C(n, i) < 2^(8W-1).  A
cell that an earlier fill left in the memo at another width is
re-slotted to W, widened or narrowed, which the same bound allows.  Each
cell carries C(c+r, c), the sum of its parents', as its norm (laurent.py).

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
tests.  refuse_oversized prices cells as gauss would, without a fill.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable

from .laurent import ONE, ZERO, InvariantError, LaurentPoly, _slot_bytes, sum_of_products


# Largest memo, in estimated bytes, that one call of gauss may build.
MEMO_BYTE_LIMIT = 1 << 30

# Bytes per memo cell beside its coefficients (see _memo_bytes).
_CELL_BYTES = 256

# The slot width of the fill in progress, so the calls it makes add their
# images at that width and do not start fills of their own.
_filling = threading.local()


class MemoRefused(ValueError):
    """A call of gauss refused up front: its q-Pascal memo is estimated above MEMO_BYTE_LIMIT."""

    def __init__(self, n: int, i: int, estimate: int):
        super().__init__(f"[{n} {i}]_q needs a q-Pascal memo of about {estimate} bytes, "
                         f"above the limit of {MEMO_BYTE_LIMIT}")
        self.estimate = estimate


@lru_cache(maxsize=None)
def gauss(n: int, i: int) -> LaurentPoly:
    """[n choose i]_q, exactly, for any integer n and i >= 0.

    Results are memoized; the cache is safe to share because values are
    immutable and the function is pure.  Only the canonical cells
    [n i] with n >= 2i are computed: a mirrored cell, i <= n < 2i, is the
    same object as [n n-i], and a negative top is first reflected to a
    nonnegative one.  Raises MemoRefused, a ValueError naming [n i],
    before any work, when the memo the call needs is estimated above
    MEMO_BYTE_LIMIT.
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
    width = getattr(_filling, "width", None) or _fill(n, i)
    # [n i] = [n-1 i-1] + q^i [n-1 i] on the images, lowest coefficient 1;
    # on the diagonal n = 2i the right parent [2i-1 i] is read as [2i-1 i-1].
    # The norm is C(n-1, i-1) + C(n-1, i) = C(n, i), the coefficient sum.
    left, right = gauss(n - 1, i - 1), gauss(n - 1, min(i, n - 1 - i))
    image = left._image_at(width) + (right._image_at(width) << 8 * width * i)
    return LaurentPoly._from_image(0, width, image, left._norm + right._norm)


def _served_from(n: int, i: int, top: int, low: int) -> LaurentPoly:
    # gauss(top, low), which [n i] is computed from; a refusal names [n i]
    try:
        return gauss(top, low)
    except MemoRefused as exc:
        raise MemoRefused(n, i, exc.estimate) from None


def _fill(n: int, i: int) -> int:
    # Every canonical cell [c+r c] below [n i], 1 <= c <= r with c <= i and
    # r <= n-i, lowest first; the base cells [r 0] = 1 need no fill, and the
    # mirrored cells r < c are read as [c+r r], which lies in the same box.
    # All of them are added at the width of [n i], returned: their
    # coefficients are nonnegative and sum to C(c+r, c) <= C(n, i).
    refuse_oversized(((n, i),))
    _filling.width = width = _slot_bytes(comb(n, i))
    try:
        for col in range(1, i + 1):
            for r in range(col, n - i + (col < i)):
                gauss(col + r, col)
    finally:
        _filling.width = None
    return width


def refuse_oversized(cells: Iterable[tuple[int, int]]) -> None:
    """Raise gauss's MemoRefused for the first cell (n, i) whose memo is estimated above the limit.

    Nothing is computed: a cell is reflected and mirrored as gauss does it,
    and its canonical fill is priced by _memo_bytes.  A cell that the memo
    holds lies in the box of the fill that made it, and is priced no higher
    than that fill, so a cell refused here would have been refused by gauss.
    """
    for n, i in cells:
        top = n if n >= 0 else i - 1 - n
        if 1 <= i <= top:
            estimate = _memo_bytes(top, i)
            if estimate > MEMO_BYTE_LIMIT:
                raise MemoRefused(n, i, estimate)


def _memo_bytes(n: int, i: int) -> int:
    """Upper estimate of the bytes the memo of [n i] needs, for n >= i >= 1.

    The fill that runs is that of the canonical cell, so i is first taken
    as min(i, n - i).  Its cells [c+r c] with 1 <= c <= i and c <= r <= n-i,
    i(n - i) - i(i - 1)/2 of them, have c*r + 1 coefficients each, and the
    n - i base cells [r 0] share the single polynomial 1.  A cell's image
    holds one W-byte slot per coefficient, with
    W = _slot_bytes(C(n, i)) <= bits // 8 + 1, since every coefficient is
    at most C(n, i) <= min(2^n, n^i); CPython stores the image in 30-bit
    digits of 4 bytes, 16/15 of that.  Each cell also costs its
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


def full_alternating_sum(m: int, a: int, t: int) -> LaurentPoly:
    """alternating_sum(m, a, t, m), computed by the q-binomial theorem without a product.

    Cauchy's  prod_{i<m} (1 - q^i y) = sum_s (-1)^s q^C(s,2) [m s] y^s,
    with y the shift E: B_s -> B_(s+1) on B_s = [a-s t], makes the sum
    (prod_{i<m} (1 - q^i E) B)_0.  Pass i sets B_s -= q^i B_(s+1) for s
    ascending to m-1-i, in place, on the images of the B_s at the width of
    alternating_sum's bound sum_s C(m, s) norm(B_s).  Evaluation at
    2^(8w) is a ring homomorphism, so only the final image has to decode,
    and the sum's coefficients add up to at most that bound.  The result
    has alternating_sum's valuation, width, image and norm.

    >>> full_alternating_sum(1, 2, 1)
    LaurentPoly('q')
    >>> full_alternating_sum(2, -1, 1) == alternating_sum(2, -1, 1, 2)
    True
    """
    terms = [gauss(a - s, t) for s in range(m + 1)]
    bound = sum(comb(m, s) * term._norm for s, term in enumerate(terms))
    if not bound:
        return ZERO
    width = _slot_bytes(bound)
    bits = 8 * width
    low = min(term._low for term in terms if term._image)
    images = [term._image_at(width) << bits * (term._low - low) if term._image else 0 for term in terms]
    for i in range(m):
        shift = bits * i
        for s in range(m - i):
            images[s] -= images[s + 1] << shift
    return LaurentPoly._from_image(low, width, images[0], bound)


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
