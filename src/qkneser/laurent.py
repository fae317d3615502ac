"""Exact Laurent polynomials in one indeterminate q over the integers.

A polynomial is stored as its valuation `_low` (the smallest exponent)
and its Kronecker image: one big integer with one w-byte slot per
coefficient,  image = sum_k c_k * 2^(8wk),  where c_k is the coefficient
of q^(_low+k) and w (`_width`) is wide enough that |c_k| < 2^(8w-1).
Adding 2^(8w-1) to every slot puts each one in [0, 2^(8w)), so the
base-2^(8w) digits of the biased image are the biased coefficients; the
map is linear at a fixed width and one-to-one.  Every operation computes
on the image; coefficients are unpacked from it, and not kept, only to
be read (items, evaluate, coefficient_sum, rendering, hashing), and
coefficient(e) reads one slot.  The lowest slot is nonzero, the zero
polynomial is (0, image 0), and the top slot is nonzero by construction:
an image of K + 1 slots with a nonzero top has 2^(8wK-1) < |image| <
2^(8w(K+1)-1), so K = bit_length(|image|) // 8w.  Interior zeros are
stored, so a hand-built q^(10^9) + 1 would hold a billion slots.

Each instance carries `_norm`, a proven upper bound on the sum of its
|coefficients|, set by its constructor and never recomputed: the exact
sum for a value built from coefficients, |c| for a monomial, the
operand's for a negation or a shift, C(n, i) for a Gaussian-binomial
cell (qbinom.py), and the width bound below for a sum of products.  Its
width holds its norm, and so every coefficient.

A signed, shifted sum of products  sum_t (+-1) q^(e_t) a_t * b_t
(sum_of_products) is one big-integer sum: the operands' images at one
common width are multiplied, and each product is shifted into place by
8w bits per exponent and added or subtracted.  Every coefficient of the
sum is at most sum_t ||a_t||_1 ||b_t||_1 <= sum_t norm(a_t) norm(b_t),
which fixes w and is the result's norm.  Zero slots that cancellation
leaves at the low end are cut off; the top ones vanish by themselves.  A
product is the one-term sum and a sum or difference the two-term sum
against 1; shift and negation act on the image directly.

An image moves to another width by re-slotting: biased at the narrower
width, every slot is its low bytes, which one strided bytes copy per
byte moves into slots of the new width, where the bias comes off.  Each
instance keeps its last re-slot (`_alt`), because the Gaussian-binomial
memo hands the same operands to many sums: without it `verify identities
--max 18` ran 1.4 times slower.  Equality compares the two images at
the wider width; width, norm and re-slot are invisible to equality,
hashing and rendering.

Instances are immutable and may be shared freely.  Evaluation at an
integer point q0 >= 2 is exact and yields a Fraction whose denominator
is a power of q0 (an integer when no exponent is negative).  The module
computes on Python integers and bytes only: no numpy and no float.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Mapping


class InvariantError(RuntimeError):
    """An exactness guard failed: a value the mathematics fixes came out otherwise.

    This signals a defect in the program, never bad input; the CLI reports
    it as a verification failure (exit 1).
    """


def _check_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")
    return value


def _slot_bytes(bound: int) -> int:
    """Bytes per Kronecker slot: the fewest w with 2^(8w-1) > bound >= 0."""
    return bound.bit_length() // 8 + 1


def _slot_count(image: int, width: int) -> int:
    """Number of slots of a normalized image: its top slot is the last nonzero one."""
    return image.bit_length() // (8 * width) + 1 if image else 0


def _bias(width: int, size: int, narrow: int | None = None) -> int:
    """2^(8*narrow-1) in each of size slots of width bytes (narrow defaults to width)."""
    half = 1 << (8 * (width if narrow is None else narrow) - 1)
    return int.from_bytes(half.to_bytes(width, "little") * size, "little")


def _pack(coeffs: tuple[int, ...], width: int) -> int:
    """sum_k coeffs[k] * 2^(8*width*k) as one int, for |coeffs[k]| < 2^(8*width-1)."""
    half = 1 << (8 * width - 1)
    raw = b"".join(map(int.to_bytes, map(half.__add__, coeffs), repeat(width), repeat("little")))
    return int.from_bytes(raw, "little") - _bias(width, len(coeffs))


def _reslot(image: int, size: int, old: int, new: int) -> int:
    """The same coefficients, |c| < 2^(8*min(old, new)-1), in slots of new bytes instead of old ones."""
    if size <= 1:
        return image  # a single slot is the coefficient itself at every width
    narrow = min(old, new)
    raw = (image + _bias(old, size, narrow)).to_bytes(size * old, "little")
    out = bytearray(size * new)
    for byte in range(narrow):
        out[byte::new] = raw[byte::old]
    return int.from_bytes(out, "little") - _bias(new, size, narrow)


class LaurentPoly:
    """A normalized, immutable Laurent polynomial in q, held as its Kronecker image.

    >>> LaurentPoly({1: 1, 0: 1}) * LaurentPoly({1: 1, 0: -1})
    LaurentPoly('q^2 - 1')
    >>> LaurentPoly({-1: 2}).evaluate(2)
    Fraction(1, 1)
    """

    __slots__ = ("_low", "_width", "_image", "_len", "_norm", "_alt")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        pairs = terms.items() if isinstance(terms, Mapping) else (terms or ())
        summed: dict[int, int] = {}
        for exp, coeff in pairs:
            _check_int(exp, "exponent")
            _check_int(coeff, "coefficient")
            summed[exp] = summed.get(exp, 0) + coeff
        nonzero = {exp: coeff for exp, coeff in summed.items() if coeff}
        low, coeffs = 0, ()
        if nonzero:
            low = min(nonzero)
            dense = [0] * (max(nonzero) - low + 1)
            for exp, coeff in nonzero.items():
                dense[exp - low] = coeff
            coeffs = tuple(dense)
        norm = sum(map(abs, coeffs))
        width = _slot_bytes(norm)
        self._low, self._width, self._image, self._len = low, width, _pack(coeffs, width), len(coeffs)
        self._norm, self._alt = norm, None

    @classmethod
    def _from_image(cls, low: int, width: int, image: int, norm: int) -> "LaurentPoly":
        # Internal constructor: image holds the coefficients of q^low, q^(low+1), ... in width-byte
        # slots, maybe zero ones first (cut off here); norm < 2^(8*width-1) bounds the sum of their |c|.
        poly = object.__new__(cls)
        bits = 8 * width
        if not image:
            low, norm = 0, 0
        elif not image & ((1 << bits) - 1):
            skip = ((image & -image).bit_length() - 1) // bits
            image >>= bits * skip
            low += skip
        poly._low, poly._width, poly._image, poly._len = low, width, image, _slot_count(image, width)
        poly._norm, poly._alt = norm, None
        return poly

    def _image_at(self, width: int) -> int:
        """The image at another slot width; every coefficient must fit it."""
        if width == self._width:
            return self._image
        alt = self._alt
        if alt is None or alt[0] != width:
            alt = self._alt = (width, _reslot(self._image, self._len, self._width, width))
        return alt[1]

    def _coefficients(self) -> tuple[int, ...]:
        """The coefficient tuple, lowest exponent first, unpacked from the biased image."""
        width, size = self._width, self._len
        if width <= 8:  # re-slotted to 8 bytes, the biased slots are little-endian uint64s
            digits = (_reslot(self._image, size, width, 8) + _bias(8, size)).to_bytes(8 * size, "little")
            return tuple(slot - (1 << 63) for slot in struct.unpack(f"<{size}Q", digits))
        half, from_bytes = 1 << (8 * width - 1), int.from_bytes
        digits = (self._image + _bias(width, size)).to_bytes(size * width, "little")
        return tuple([from_bytes(digits[k:k + width], "little") - half for k in range(0, size * width, width)])

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._from_image(0, 1, 0, 0)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls.monomial(c, 0)

    @classmethod
    def monomial(cls, coeff: int, exponent: int) -> "LaurentPoly":
        """The single-term polynomial coeff * q^exponent."""
        _check_int(coeff, "coefficient")
        _check_int(exponent, "exponent")
        return cls._from_image(exponent, _slot_bytes(abs(coeff)), coeff, abs(coeff))

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self._image

    def items(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs, highest exponent first."""
        low, coeffs = self._low, self._coefficients()
        return tuple((low + k, coeffs[k]) for k in range(len(coeffs) - 1, -1, -1) if coeffs[k])

    def coefficient(self, exponent: int) -> int:
        k = exponent - self._low
        if not 0 <= k < self._len:
            return 0
        # the image divided by 2^(8wk) and rounded: the slots below k add up
        # to less than half of that, so the quotient's lowest slot is c_k
        bits = 8 * self._width
        slot = ((self._image >> (bits * k - 1)) + 1) >> 1 if k else self._image
        half = 1 << (bits - 1)
        return ((slot & ((1 << bits) - 1)) ^ half) - half

    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return self._low + self._len - 1 if self._image else None

    def valuation(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return self._low if self._image else None

    def coefficient_sum(self) -> int:
        """Sum of all coefficients, i.e. the exact value at q = 1."""
        return sum(self._coefficients())

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((1, 0, self, ONE), (1, 0, other, ONE)))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_image(self._low, self._width, -self._image, self._norm)

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((1, 0, self, ONE), (-1, 0, other, ONE)))

    def __rsub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((1, 0, self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        _check_int(n, "power")
        if n < 0:
            raise ValueError("negative powers of a general Laurent polynomial are not defined")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by the monomial q^e (translate every exponent by e)."""
        _check_int(e, "shift")
        if not self._image:
            return self
        return LaurentPoly._from_image(self._low + e, self._width, self._image, self._norm)

    def evaluate(self, q0: int) -> Fraction:
        """Exact value at q = q0 for an integer q0 >= 2, as a Fraction."""
        _check_int(q0, "evaluation point")
        if q0 < 2:
            raise ValueError(f"evaluation point must be >= 2, got {q0}")
        value = 0
        for coeff in reversed(self._coefficients()):
            value = value * q0 + coeff
        return value * Fraction(q0) ** self._low

    def evaluate_int(self, q0: int) -> int:
        """Exact value at q = q0 where it must be an integer; InvariantError otherwise."""
        value = self.evaluate(q0)
        if value.denominator != 1:
            raise InvariantError(f"{self} at q={q0} is {value}, expected an integer")
        return int(value)

    # ------------------------------------------------------------------
    # comparison and rendering

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self._low != other._low or self._len != other._len:
            return False
        width = max(self._width, other._width)
        return self._image_at(width) == other._image_at(width)

    def __hash__(self) -> int:
        return hash((self._low, self._coefficients()))

    def __bool__(self) -> bool:
        return bool(self._image)

    def __str__(self) -> str:
        """Canonical rendering: terms in decreasing exponent order.

        Examples: 'q^4 + q^3 + 2*q^2 + q + 1', '-q^-1 - q^-2', '0'.
        """
        if not self._image:
            return "0"
        # one pass over the coefficients, highest first, each term with its
        # separator; the leading " + " or " - " becomes "" or "-" at the end
        parts: list[str] = []
        exp = self._low + self._len
        for coeff in reversed(self._coefficients()):
            exp -= 1
            if not coeff:
                continue
            sign = " + "
            if coeff < 0:
                sign, coeff = " - ", -coeff
            if exp == 0:
                parts.append(f"{sign}{coeff}")
            else:
                power = "q" if exp == 1 else f"q^{exp}"
                parts.append(sign + power if coeff == 1 else f"{sign}{coeff}*{power}")
        text = "".join(parts)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


def sum_of_products(terms: Iterable[tuple[int, int, LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """sum of sign * q^shift * a * b over (sign, shift, a, b) terms, sign = 1 or -1.

    One Kronecker sum: a single slot width for all terms, one image per
    operand at that width and one big-integer accumulator, which is the
    result's image (see the module docstring for the width bound).
    """
    live = []
    bound = 0
    for sign, shift, a, b in terms:
        if sign != 1 and sign != -1:
            raise ValueError(f"sign must be 1 or -1, got {sign!r}")
        if a._image and b._image:
            live.append((sign, shift + a._low + b._low, a, b))
            bound += a._norm * b._norm
    if not live:
        return ZERO
    width = _slot_bytes(bound)
    bits = 8 * width
    low = min(term[1] for term in live)
    total = 0
    for sign, at, a, b in live:
        product = a._image_at(width) * b._image_at(width) << bits * (at - low)
        total = total + product if sign == 1 else total - product
    return LaurentPoly._from_image(low, width, total, bound)


def _coerce(value: "LaurentPoly | int") -> "LaurentPoly":
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return LaurentPoly.constant(value)
    return NotImplemented


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.monomial(1, 1)
