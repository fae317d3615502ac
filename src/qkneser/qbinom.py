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

gauss_eval_product evaluates the defining product
prod_{j=0}^{i-1} (q0^(n-j) - 1)/(q0^(i-j) - 1) exactly at a concrete
integer point, collecting the numerator and the denominator as integers
and dividing once.  It shares no code with gauss and serves as its
independent oracle in the test suite and in the pascal and lemma1
cross-checks of identities.py.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .laurent import ONE, ZERO, LaurentPoly


@lru_cache(maxsize=None)
def gauss(n: int, i: int) -> LaurentPoly:
    """[n choose i]_q, exactly, for any integer n and i >= 0.

    Results are memoized; the cache is safe to share because values are
    immutable and the function is pure.
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
    return gauss(n - 1, i - 1) + gauss(n - 1, i).shift(i)


def gauss_eval_product(n: int, i: int, q0: int) -> Fraction:
    """The defining product for [n choose i]_q evaluated exactly at q = q0.

    The empty product (i = 0) is 1.  Requires i >= 0 and q0 >= 2; the
    result is an exact rational, an integer whenever n >= i.
    """
    if isinstance(i, bool) or not isinstance(i, int) or i < 0:
        raise ValueError(f"lower index must be a nonnegative int, got {i!r}")
    if isinstance(q0, bool) or not isinstance(q0, int) or q0 < 2:
        raise ValueError(f"evaluation point must be an int >= 2, got {q0!r}")
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
