"""Gaussian binomial coefficients [n choose i]_q as exact Laurent polynomials.

gauss(n, i) is defined for every integer n and nonnegative integer i:

  * n >= i >= 0: the classical Gaussian binomial, computed by the
    Pascal-type recurrence  [n i] = [n-1 i-1] + q^i [n-1 i]  with
    [n 0] = 1, staying inside the polynomial ring the whole way;
  * 0 <= n < i: identically zero;
  * n < 0: the reflection to a nonnegative top,
        [n i] = (-1)^i q^(n*i - i(i-1)/2) [i-1-n i],
    where i-1-n >= i, so the reduced coefficient is an honest polynomial
    and the monomial factor contributes the negative exponents.

The recurrence is run bottom-up, not by recursion: a call that misses
the memo first calls gauss on every cell [n' i'] with n' >= i' >= 1 that
the recurrence reaches from [n i], columns i' ascending and tops n'
ascending within a column.  Each of those calls finds its two cells in
the memo or among the base cases i' = 0 and n' < i', so no call nests
more than two deep.  The memo ends up holding the same cells as a
recursive evaluation would.  A call whose memo is estimated (by
_memo_bytes) above MEMO_BYTE_LIMIT bytes is refused with ValueError
before any cell is computed.

The cells are added as Kronecker images (see laurent.py), not as
polynomials: one fill runs at one slot width W = _slot_bytes(C(n, i)),
and a cell is  [c+r c] = [c+r-1 c-1] + ([c+r-1 c] << 8W*c),  two big-integer
operations.  This is exact because every cell [c+r c] of the fill has
nonnegative coefficients summing to C(c+r, c) <= C(n, i) < 2^(8W-1).  A
cell that an earlier fill left in the memo at another width is
re-slotted to W, widened or narrowed, which the same bound allows.

gauss_eval_product evaluates the defining product
prod_{j=0}^{i-1} (q0^(n-j) - 1)/(q0^(i-j) - 1) exactly at a concrete
integer point, collecting the numerator and the denominator as integers
and dividing once; its results are memoized by (n, i, q0), after its
arguments are checked.  It shares no code with gauss and serves as its
independent oracle in the test suite and in the pascal and lemma1
cross-checks of identities.py.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb

from .laurent import ONE, ZERO, LaurentPoly, _slot_bytes


# Largest memo, in estimated bytes, that one call of gauss may build.
MEMO_BYTE_LIMIT = 1 << 30

# Bytes per memo cell beside its coefficients (see _memo_bytes).
_CELL_BYTES = 256

# The slot width of the fill in progress, so the calls it makes add their
# images at that width and do not start fills of their own.
_filling = threading.local()


@lru_cache(maxsize=None)
def gauss(n: int, i: int) -> LaurentPoly:
    """[n choose i]_q, exactly, for any integer n and i >= 0.

    Results are memoized; the cache is safe to share because values are
    immutable and the function is pure.  Raises ValueError, before any
    work, when the memo the call needs is estimated above MEMO_BYTE_LIMIT.
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
        reflected = gauss(i - 1 - n, i)
        shifted = reflected.shift(n * i - i * (i - 1) // 2)
        return -shifted if i % 2 else shifted
    if n < i:
        return ZERO
    width = getattr(_filling, "width", None) or _fill(n, i)
    # [n i] = [n-1 i-1] + q^i [n-1 i] on the images, lowest coefficient 1
    image = gauss(n - 1, i - 1)._image_at(width) + (gauss(n - 1, i)._image_at(width) << 8 * width * i)
    return LaurentPoly._from_image(0, width, image)


def _fill(n: int, i: int) -> int:
    # Every cell [c+r c] below [n i] with 1 <= c <= i and 0 <= r <= n-i,
    # lowest first; the base cells [r 0] = 1 and [c-1 c] = 0 need no fill.
    # All of them are added at the width of [n i], returned: their
    # coefficients are nonnegative and sum to C(c+r, c) <= C(n, i).
    estimate = _memo_bytes(n, i)
    if estimate > MEMO_BYTE_LIMIT:
        raise ValueError(f"[{n} {i}]_q needs a q-Pascal memo of about {estimate} bytes, "
                         f"above the limit of {MEMO_BYTE_LIMIT}")
    _filling.width = width = _slot_bytes(comb(n, i))
    try:
        for col in range(1, i + 1):
            for r in range(n - i + (col < i)):
                gauss(col + r, col)
    finally:
        _filling.width = None
    return width


def _memo_bytes(n: int, i: int) -> int:
    """Upper estimate of the bytes the memo of [n i] needs, for n >= i >= 1.

    The cells [c+r c] of _fill and the base cells, about (i + 1)(n - i + 2)
    of them with one spare cell per column, have c*r + 1 coefficients
    each.  A cell's image holds one W-byte slot per coefficient, with
    W = _slot_bytes(C(n, i)) <= bits // 8 + 1, since every coefficient is
    at most C(n, min(i, n-i)) <= min(2^n, n^min(i, n-i)); CPython stores
    the image in 30-bit digits of 4 bytes, 16/15 of that.  Each cell also
    costs its LaurentPoly, the image's int header and the memo entry,
    under _CELL_BYTES (about 180 to 210 bytes, measured with tracemalloc).
    """
    rest = n - i
    cells = (i + 1) * (rest + 2)
    coefficients = (i * (i + 1) // 2) * (rest * (rest + 1) // 2) + cells
    bits = min(n, min(i, rest) * n.bit_length())
    return coefficients * (bits // 8 + 1) * 16 // 15 + cells * _CELL_BYTES


def gauss_eval_product(n: int, i: int, q0: int) -> Fraction:
    """The defining product for [n choose i]_q evaluated exactly at q = q0.

    The empty product (i = 0) is 1.  Requires i >= 0 and q0 >= 2; the
    result is an exact rational, an integer whenever n >= i.  Results are
    memoized by (n, i, q0), after the arguments are checked.
    """
    if isinstance(i, bool) or not isinstance(i, int) or i < 0:
        raise ValueError(f"lower index must be a nonnegative int, got {i!r}")
    if isinstance(q0, bool) or not isinstance(q0, int) or q0 < 2:
        raise ValueError(f"evaluation point must be an int >= 2, got {q0!r}")
    return _eval_product(n, i, q0)


@lru_cache(maxsize=None)
def _eval_product(n: int, i: int, q0: int) -> Fraction:
    num = den = 1
    for j in range(i):
        top = n - j
        if top >= 0:
            num *= q0**top - 1
        else:
            # q0^top - 1 = (1 - q0^-top) / q0^-top
            num *= 1 - q0**-top
            den *= q0**-top
        den *= q0 ** (i - j) - 1
    return Fraction(num, den)
