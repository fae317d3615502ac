"""Exact Laurent polynomials in one indeterminate q over the integers.

Terms are stored sparsely as a map {exponent: coefficient}, with integer
exponents of either sign and arbitrary-precision integer coefficients.
Normalization is eager: zero coefficients are never stored, so structural
equality of the term maps is semantic equality, and the zero polynomial is
the empty map.

Instances are immutable and may be shared freely; every operation returns
a fresh value.  Evaluation at an integer point q0 >= 2 is exact and yields
a Fraction whose denominator is a power of q0 (an integer whenever the
polynomial has no negative exponents).  There is deliberately no float
anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
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


class LaurentPoly:
    """A sparse, normalized, immutable Laurent polynomial in q.

    >>> LaurentPoly({1: 1, 0: 1}) * LaurentPoly({1: 1, 0: -1})
    LaurentPoly('q^2 - 1')
    >>> LaurentPoly({-1: 2}).evaluate(2)
    Fraction(1, 1)
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        pairs = terms.items() if isinstance(terms, Mapping) else (terms or ())
        cleaned: dict[int, int] = {}
        for exp, coeff in pairs:
            _check_int(exp, "exponent")
            _check_int(coeff, "coefficient")
            total = cleaned.get(exp, 0) + coeff
            if total:
                cleaned[exp] = total
            else:
                cleaned.pop(exp, None)
        self._terms = cleaned

    @classmethod
    def _wrap(cls, terms: dict[int, int]) -> "LaurentPoly":
        # Internal constructor for dicts that are already normalized.
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._wrap({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        _check_int(c, "coefficient")
        return cls._wrap({0: c} if c else {})

    @classmethod
    def monomial(cls, coeff: int, exponent: int) -> "LaurentPoly":
        """The single-term polynomial coeff * q^exponent."""
        _check_int(coeff, "coefficient")
        _check_int(exponent, "exponent")
        return cls._wrap({exponent: coeff} if coeff else {})

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs, highest exponent first."""
        return tuple(sorted(self._terms.items(), reverse=True))

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return max(self._terms) if self._terms else None

    def valuation(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return min(self._terms) if self._terms else None

    def coefficient_sum(self) -> int:
        """Sum of all coefficients, i.e. the exact value at q = 1."""
        return sum(self._terms.values())

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            total = out.get(exp, 0) + coeff
            if total:
                out[exp] = total
            else:
                out.pop(exp, None)
        return LaurentPoly._wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._wrap({exp: -coeff for exp, coeff in self._terms.items()})

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
                return LaurentPoly._wrap({})
            return LaurentPoly._wrap({exp: coeff * other for exp, coeff in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = e1 + e2
                total = out.get(exp, 0) + c1 * c2
                if total:
                    out[exp] = total
                else:
                    out.pop(exp, None)
        return LaurentPoly._wrap(out)

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
        if e == 0:
            return self
        return LaurentPoly._wrap({exp + e: coeff for exp, coeff in self._terms.items()})

    def evaluate(self, q0: int) -> Fraction:
        """Exact value at q = q0 for an integer q0 >= 2, as a Fraction."""
        _check_int(q0, "evaluation point")
        if q0 < 2:
            raise ValueError(f"evaluation point must be >= 2, got {q0}")
        total = Fraction(0)
        base = Fraction(q0)
        for exp, coeff in self._terms.items():
            total += coeff * base**exp
        return total

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
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        """Canonical rendering: terms in decreasing exponent order.

        Examples: 'q^4 + q^3 + 2*q^2 + q + 1', '-q^-1 - q^-2', '0'.
        """
        if not self._terms:
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


def _coerce(value: "LaurentPoly | int") -> "LaurentPoly":
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return LaurentPoly.constant(value)
    return NotImplemented


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.monomial(1, 1)
