"""Arithmetic in GF(p^e) for small prime powers.

A field context carries the prime p, the extension degree e, and a monic
irreducible modulus of degree e over GF(p), stored as a coefficient list
from the constant term up (so x^2 + x + 1 is (1, 1, 1)).  The modulus is
chosen deterministically: the lexicographically smallest coefficient
tuple, constant term first, that is irreducible.  Irreducibility is
decided by trial division against all monic irreducibles of degree at
most e/2, which is exhaustive and cheap at the degrees in scope.

Field elements are canonical integers in [0, q): the base-p digits of the
integer are the residue-polynomial coefficients, constant term in the
least significant digit.  This encoding is what appears in every
serialized matrix.  add, neg, mul and inv act on single elements through
the polynomial routines below, for every q; the array arithmetic of the
brute-force oracle (oracle._FieldArrays) builds its tables from them.
Contexts are immutable and all arithmetic is pure, on Python ints only.
"""

from __future__ import annotations

import math
from typing import Iterator

MAX_EXTENSION_DEGREE = 4


# Miller-Rabin to these bases, the first 13 primes, proves primality below
# PRIME_TEST_LIMIT (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981

# Largest field order, in decimal digits, that goes to the prime test: at
# 1000 digits a probable prime takes about 1.6 s over the 13 bases (2-CPU
# x86-64 host, Python 3.11), and at 4000 digits about 7 s.
MAX_ORDER_DIGITS = 1000


def is_prime(n: int) -> bool:
    """Whether n is prime, decided exactly; ValueError where it cannot be.

    A Miller-Rabin witness among the first 13 primes proves n composite at
    any size; their passing the test proves n prime below PRIME_TEST_LIMIT,
    and a larger n that passes is refused.
    """
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: the Miller-Rabin test to the first 13 "
                         f"prime bases is a proof only below {PRIME_TEST_LIMIT}")
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, e) with p prime and q = p^e, or raise ValueError.

    An order with a prime factor up to 41 is split exactly at any size.
    Any other order above MAX_ORDER_DIGITS digits is refused before the
    root search and the Miller-Rabin test, whose cost grows with the cube
    of the digit count.
    """
    if isinstance(q, bool) or not isinstance(q, int) or q < 2:
        raise ValueError(f"field order must be an int >= 2, got {q!r}")
    for p in _PRIME_BASES:
        if q % p == 0:
            e, rest = 0, q
            while rest % p == 0:
                rest //= p
                e += 1
            if rest != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    if q >= 10**MAX_ORDER_DIGITS:
        raise ValueError(f"field order with more than {MAX_ORDER_DIGITS} digits and no prime factor up to "
                         f"{_PRIME_BASES[-1]}: refused before the prime test")
    # Every prime factor of q now exceeds 41 > 2^5, so q = p^e has e <= bits/5.
    # The largest e with an exact root leaves a root that is no perfect
    # power, so q is a prime power iff that root is prime.
    for e in range(q.bit_length() // 5, 1, -1):
        p = _iroot(q, e)
        if p**e == q:
            break
    else:
        p, e = q, 1
    if not is_prime(p):
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _iroot(q: int, e: int) -> int:
    """floor(q^(1/e)) for q >= 1 and e >= 2, by Newton's method from above."""
    bits = q.bit_length()
    if bits <= 1000 * e:
        # a seed above the root (float errors here are ~1e-12); the iteration is exact
        root = int(2.0 ** (math.log2(q) / e) * (1 + 1e-9)) + 1
    else:
        root = 1 << -(-bits // e)
    while True:
        nxt = ((e - 1) * root + q // root ** (e - 1)) // e
        if nxt >= root:
            return root
        root = nxt


# ----------------------------------------------------------------------
# polynomials over GF(p): coefficient lists, constant term first, trimmed


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    # Remainder of a modulo m; m need not be monic.
    a = _trim(list(a))
    dm = len(m) - 1
    lead_inv = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * lead_inv) % p
        for i, mi in enumerate(m):
            a[i + shift] = (a[i + shift] - factor * mi) % p
        _trim(a)
    return a


def _monic_irreducibles(p: int, degree: int) -> Iterator[list[int]]:
    # Candidates in lexicographic order of their coefficient tuples, constant
    # term first: the base-p digits of 0, 1, 2, ..., most significant first,
    # made one at a time so that no list of p values is built.  The
    # lower-degree irreducibles are enumerated once.
    lower = [irr for d in range(1, degree // 2 + 1) for irr in _monic_irreducibles(p, d)]
    for index in range(p**degree):
        cand = [index // p ** (degree - 1 - i) % p for i in range(degree)] + [1]
        if all(_poly_mod(cand, irr, p) for irr in lower):
            yield cand


# ----------------------------------------------------------------------


class FieldCtx:
    """Immutable GF(p^e) context; elements are ints in [0, q)."""

    __slots__ = ("p", "e", "q", "modulus")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus

    # -- canonical integer encoding

    def decode(self, a: int) -> tuple[int, ...]:
        """Base-p digits of a, constant coefficient first, length e."""
        digits = []
        for _ in range(self.e):
            digits.append(a % self.p)
            a //= self.p
        return tuple(digits)

    def encode(self, coeffs: tuple[int, ...] | list[int]) -> int:
        value = 0
        for c in reversed(coeffs):
            value = value * self.p + c % self.p
        return value

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic on encodings

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        da, db = self.decode(a), self.decode(b)
        return self.encode([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self.encode([(-x) % self.p for x in self.decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        prod = _poly_mul(list(self.decode(a)), list(self.decode(b)), self.p)
        rem = _poly_mod(prod, list(self.modulus), self.p)
        return self.encode(rem + [0] * (self.e - len(rem)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(a, self.q - 2)  # the multiplicative group has order q - 1

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    # -- identity and rendering

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.q}) = GF({self.p})[x]/({_poly_str(self.modulus)})"


def _poly_str(coeffs: tuple[int, ...]) -> str:
    parts = []
    for exp in range(len(coeffs) - 1, -1, -1):
        c = coeffs[exp]
        if not c:
            continue
        if exp == 0:
            parts.append(str(c))
        else:
            power = "x" if exp == 1 else f"x^{exp}"
            parts.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(parts) if parts else "0"


def make_field(p: int, e: int) -> FieldCtx:
    """Construct GF(p^e) with the deterministic smallest irreducible modulus.

    For e = 1 the modulus is x (arithmetic is plain mod p).  Rejects
    composite p and extension degrees outside [1, MAX_EXTENSION_DEGREE].
    """
    if isinstance(p, bool) or not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"field characteristic must be prime, got {p!r}")
    if isinstance(e, bool) or not isinstance(e, int) or not 1 <= e <= MAX_EXTENSION_DEGREE:
        raise ValueError(f"extension degree must be in [1, {MAX_EXTENSION_DEGREE}], got {e!r}")
    return FieldCtx(p, e, tuple(next(_monic_irreducibles(p, e))))


def field_of_order(q: int) -> FieldCtx:
    """GF(q) for a prime power q; rejects q = 1 and non-prime-powers."""
    p, e = factor_prime_power(q)
    return make_field(p, e)
