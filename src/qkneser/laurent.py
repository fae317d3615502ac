"""Exact Laurent polynomials in one indeterminate q over the integers.

A polynomial is stored densely as its valuation `_low` (the smallest
exponent) and the tuple `_coeffs` of the coefficients of q^_low, q^(_low+1),
... up to the degree, with integer exponents of either sign and
arbitrary-precision integer coefficients.  Normalization is eager: neither
end of `_coeffs` is zero and the zero polynomial is `(0, ())`, so
structural equality is semantic equality.  Interior zeros are stored, so
memory grows with degree - valuation rather than with the number of terms:
Gaussian binomials have no gaps, but a hand-built q^(10^9) + 1 would hold
a billion slots.

Products use Kronecker substitution: each operand becomes one big integer
with one w-byte slot per coefficient, CPython multiplies the two integers
once, and the slots of the result are the product's coefficients.  It is
exact because every product coefficient is a sum of at most
min(len a, len b) terms a_i*b_j, so its magnitude is at most
min(len a, len b) * max|a| * max|b| < 2^(8w-1); adding 2^(8w-1) to every
slot puts each one in [0, 2^(8w)), so the base-2^(8w) digits of the biased
product are the biased coefficients.

The map to big integers is linear at a fixed slot width, so a whole
signed, shifted sum  sum_t (+-1) q^(e_t) a_t * b_t  (sum_of_products) is
one big-integer sum: each product is moved into place by a left shift of
8w bits per exponent and added or subtracted.  Every coefficient of the
sum is bounded by the sum of the per-term bounds,
sum_t min(len a_t, len b_t) * max|a_t| * max|b_t|, which fixes w; the
sum is unpacked once and trimmed at both ends, since terms may cancel.
A product is the one-term sum, so there is a single product path.

Each instance caches its packed form for the last slot width it was
packed at (one slot, `_packed`), because the Gaussian-binomial memo hands
the same operands to many sums; the cache is invisible to equality,
hashing and rendering.

Instances are immutable and may be shared freely; every operation returns
a fresh value.  Evaluation at an integer point q0 >= 2 is exact and yields
a Fraction whose denominator is a power of q0 (an integer whenever the
polynomial has no negative exponents).  There is deliberately no float
anywhere in this module.
"""

from __future__ import annotations

import operator
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


def _bias(width: int, size: int) -> int:
    """2^(8*width-1) in each of size slots of width bytes."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * size, "little")


def _pack(coeffs: tuple[int, ...], width: int) -> int:
    """sum_k coeffs[k] * 2^(8*width*k) as one int, for |coeffs[k]| < 2^(8*width-1)."""
    half = 1 << (8 * width - 1)
    raw = b"".join(map(int.to_bytes, map(half.__add__, coeffs), repeat(width), repeat("little")))
    return int.from_bytes(raw, "little") - _bias(width, len(coeffs))


class LaurentPoly:
    """A dense, normalized, immutable Laurent polynomial in q.

    >>> LaurentPoly({1: 1, 0: 1}) * LaurentPoly({1: 1, 0: -1})
    LaurentPoly('q^2 - 1')
    >>> LaurentPoly({-1: 2}).evaluate(2)
    Fraction(1, 1)
    """

    __slots__ = ("_low", "_coeffs", "_packed")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        pairs = terms.items() if isinstance(terms, Mapping) else (terms or ())
        summed: dict[int, int] = {}
        for exp, coeff in pairs:
            _check_int(exp, "exponent")
            _check_int(coeff, "coefficient")
            summed[exp] = summed.get(exp, 0) + coeff
        nonzero = {exp: coeff for exp, coeff in summed.items() if coeff}
        self._low, self._coeffs, self._packed = 0, (), None
        if nonzero:
            self._low = min(nonzero)
            dense = [0] * (max(nonzero) - self._low + 1)
            for exp, coeff in nonzero.items():
                dense[exp - self._low] = coeff
            self._coeffs = tuple(dense)

    @classmethod
    def _wrap(cls, low: int, coeffs: tuple[int, ...]) -> "LaurentPoly":
        # Internal constructor for coefficient tuples already free of end zeros.
        poly = object.__new__(cls)
        poly._low = low if coeffs else 0
        poly._coeffs = coeffs
        poly._packed = None
        return poly

    def _packed_at(self, width: int) -> int:
        # the Kronecker image at this slot width, cached for the last width asked
        packed = self._packed
        if packed is None or packed[0] != width:
            packed = self._packed = (width, _pack(self._coeffs, width))
        return packed[1]

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._wrap(0, ())

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
        return cls._wrap(exponent, (coeff,) if coeff else ())

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs, highest exponent first."""
        low, coeffs = self._low, self._coeffs
        return tuple((low + k, coeffs[k]) for k in range(len(coeffs) - 1, -1, -1) if coeffs[k])

    def coefficient(self, exponent: int) -> int:
        k = exponent - self._low
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else 0

    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return self._low + len(self._coeffs) - 1 if self._coeffs else None

    def valuation(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return self._low if self._coeffs else None

    def coefficient_sum(self) -> int:
        """Sum of all coefficients, i.e. the exact value at q = 1."""
        return sum(self._coeffs)

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        low = min(self._low, other._low)
        out = [0] * (max(self._low + len(self._coeffs), other._low + len(other._coeffs)) - low)
        start = self._low - low
        out[start:start + len(self._coeffs)] = self._coeffs
        start = other._low - low
        stop = start + len(other._coeffs)
        out[start:stop] = map(operator.add, out[start:stop], other._coeffs)
        return _trimmed(low, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._wrap(self._low, tuple(map(operator.neg, self._coeffs)))

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int) and not isinstance(other, bool):
            if other == 0:
                return ZERO
            return LaurentPoly._wrap(self._low, tuple(c * other for c in self._coeffs))
        if not isinstance(other, LaurentPoly):
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
        return LaurentPoly._wrap(self._low + e, self._coeffs)

    def evaluate(self, q0: int) -> Fraction:
        """Exact value at q = q0 for an integer q0 >= 2, as a Fraction."""
        _check_int(q0, "evaluation point")
        if q0 < 2:
            raise ValueError(f"evaluation point must be >= 2, got {q0}")
        value = 0
        for coeff in reversed(self._coeffs):
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
        return self._low == other._low and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._low, self._coeffs))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __str__(self) -> str:
        """Canonical rendering: terms in decreasing exponent order.

        Examples: 'q^4 + q^3 + 2*q^2 + q + 1', '-q^-1 - q^-2', '0'.
        """
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for exp, coeff in self.items():
            sep = ("-" if coeff < 0 else "") if not parts else (" - " if coeff < 0 else " + ")
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                power = "q" if exp == 1 else f"q^{exp}"
                body = power if mag == 1 else f"{mag}*{power}"
            parts.append(sep + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


def sum_of_products(terms: Iterable[tuple[int, int, LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """sum of sign * q^shift * a * b over (sign, shift, a, b) terms, sign = 1 or -1.

    One Kronecker sum: a single slot width for all terms, one packed image
    per operand, one big-integer accumulator and one unpack (see the
    module docstring for the width bound).
    """
    live = []
    bound = 0
    for sign, shift, a, b in terms:
        if sign != 1 and sign != -1:
            raise ValueError(f"sign must be 1 or -1, got {sign!r}")
        ca, cb = a._coeffs, b._coeffs
        if ca and cb:
            live.append((sign, shift + a._low + b._low, a, b))
            bound += min(len(ca), len(cb)) * max(map(abs, ca)) * max(map(abs, cb))
    if not live:
        return ZERO
    width = _slot_bytes(bound)
    bits = 8 * width
    low = min(term[1] for term in live)
    total = size = 0
    for sign, at, a, b in live:
        product = a._packed_at(width) * b._packed_at(width) << bits * (at - low)
        total = total + product if sign == 1 else total - product
        size = max(size, at - low + len(a._coeffs) + len(b._coeffs) - 1)
    digits = (total + _bias(width, size)).to_bytes(size * width, "little")
    half = 1 << (bits - 1)
    return _trimmed(low, [int.from_bytes(digits[k:k + width], "little") - half
                          for k in range(0, size * width, width)])


def _trimmed(low: int, coeffs: list[int]) -> LaurentPoly:
    """sum_k coeffs[k] q^(low+k), with the zeros at either end dropped."""
    start, stop = 0, len(coeffs)
    while start < stop and not coeffs[start]:
        start += 1
    while stop > start and not coeffs[stop - 1]:
        stop -= 1
    return LaurentPoly._wrap(low + start, tuple(coeffs[start:stop]))


def _coerce(value: "LaurentPoly | int") -> "LaurentPoly":
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return LaurentPoly.constant(value)
    return NotImplemented


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.monomial(1, 1)
