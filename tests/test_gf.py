"""Finite field construction and arithmetic, exhaustively at small orders."""

import functools
import hashlib
import time

import numpy as np
import pytest

from qkneser import oracle
from qkneser.gf import PRIME_TEST_LIMIT, factor_prime_power, field_of_order, is_prime, make_field


def test_prime_field():
    ctx = make_field(2, 1)
    assert ctx.q == 2 and list(ctx.elements()) == [0, 1]
    assert ctx.add(1, 1) == 0
    assert ctx.mul(1, 1) == 1


def test_gf4_modulus_and_arithmetic():
    ctx = make_field(2, 2)
    assert ctx.modulus == (1, 1, 1)  # x^2 + x + 1; smaller tuples all have roots
    # x * x = x + 1 under that modulus; x encodes to 2, x+1 to 3
    assert ctx.mul(2, 2) == 3
    assert ctx.decode(2) == (0, 1)
    assert ctx.encode((1, 1)) == 3


def test_gf9_modulus():
    ctx = make_field(3, 2)
    assert ctx.modulus == (1, 0, 1)  # x^2 + 1 has no root mod 3 and is lex-smallest


def test_gf5_inverse():
    ctx = make_field(5, 1)
    assert ctx.inv(2) == 3


def test_additive_inverse_everywhere():
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_of_order(q)
        for a in ctx.elements():
            assert ctx.add(a, ctx.neg(a)) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    ctx = field_of_order(q)
    elements = list(ctx.elements())
    assert len(set(elements)) == q
    for a in elements:
        assert ctx.add(a, 0) == a and ctx.mul(a, 1) == a
        for b in elements:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in elements:
                assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_multiplicative_group_order(q):
    ctx = field_of_order(q)
    for a in range(1, q):
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.pow(a, q - 1) == 1


def test_inverse_of_zero_fails():
    ctx = make_field(3, 2)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(4, 1)  # composite characteristic
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 5)  # beyond MAX_EXTENSION_DEGREE
    with pytest.raises(ValueError):
        field_of_order(32)


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(16) == (2, 4)
    assert factor_prime_power(49) == (7, 2)
    for bad in (1, 0, 6, 12, 100):
        with pytest.raises(ValueError):
            factor_prime_power(bad)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert is_prime(1000000000000000003) and not is_prime(1000000000000000001)
    # the smallest strong pseudoprimes to the first 12 and to the first 13 prime bases
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(PRIME_TEST_LIMIT)


def _trial_division(q):
    # the factorisation by trial division up to sqrt(q), result or error text
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    e, rest = 0, q
    while rest % p == 0:
        rest //= p
        e += 1
    return (p, e) if rest == 1 else f"{q} is not a prime power"


def _factor_or_error(q):
    try:
        return factor_prime_power(q)
    except ValueError as exc:
        return str(exc)


def test_factor_prime_power_agrees_with_trial_division():
    assert all(_factor_or_error(q) == _trial_division(q) for q in range(2, 2 * 10**5))
    # large orders with a small prime factor, where trial division stops early
    for q in (2**100, 3**200, 43**300, 1009**40, 10**30, 1009 * (2**89 - 1), 7919 * 1000000000000000003):
        assert _factor_or_error(q) == _trial_division(q), q


def test_factor_prime_power_refuses_what_it_cannot_prove():
    # a probable prime above the limit of the prime test, or a power of one
    for q in (2**89 - 1, (2**127 - 1) ** 2):
        with pytest.raises(ValueError, match="cannot decide"):
            factor_prime_power(q)
    assert factor_prime_power(1000000000000000003**2) == (1000000000000000003, 2)


def test_orders_past_the_digit_limit_are_refused_before_the_prime_test():
    # 10^4000 + 1 has no prime factor up to 41; the Miller-Rabin test on it
    # took 7 s before it said "not a prime power".  43^700 (1144 digits) is
    # a prime power, refused for its size alone
    start = time.perf_counter()
    for q in (10**4000 + 1, 43**700):
        with pytest.raises(ValueError, match="more than 1000 digits"):
            factor_prime_power(q)
    assert time.perf_counter() - start < 0.2
    # powers of small primes still split at any size, and below the limit
    # so do powers of larger ones
    assert factor_prime_power(2**4000) == (2, 4000)
    assert factor_prime_power(43**600) == (43, 600)


def test_larger_extension_field():
    # GF(16): sanity on a degree-4 modulus without full tables of axioms
    ctx = make_field(2, 4)
    assert ctx.q == 16
    assert len(ctx.modulus) == 5 and ctx.modulus[-1] == 1
    for a in range(1, 16):
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.pow(a, 15) == 1


def test_moduli_are_pinned():
    # the modulus of every GF(p^e) with q <= 10^4 and e <= 4, as the
    # candidate search chose it when it still ran on itertools.product
    moduli = []
    for q in range(2, 10**4 + 1):
        try:
            p, e = factor_prime_power(q)
        except ValueError:
            continue
        if e <= 4:
            moduli.append((q, make_field(p, e).modulus))
    assert len(moduli) == 1266
    assert hashlib.sha256(repr(moduli).encode()).hexdigest() == (
        "3ec9695f2037fc7617c1ba4c65e424357b8e8778d03a49df63d3786847b10a45")


def test_prime_modulus_needs_no_list_of_candidates():
    # a large prime p: the modulus x is the first candidate, found at once
    assert make_field(10000000000037, 1).modulus == (0, 1)


def test_context_equality():
    assert make_field(2, 2) == make_field(2, 2)
    assert make_field(2, 2) != make_field(3, 2)
    assert field_of_order(9) == make_field(3, 2)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 41, 101, 1999, 7919, 100003])
def test_prime_field_antilog_is_the_walk_of_successive_products(q):
    # the blocks g^(Bi) g^j mod p against the walk g^0, g^1, ... of ctx.mul,
    # from the first g whose walk meets every nonzero element before 1
    ctx = field_of_order(q)
    for g in range(1, q):
        walk = [1]
        while len(walk) < q - 1 and (power := ctx.mul(walk[-1], g)) != 1:
            walk.append(power)
        if len(walk) == q - 1:
            break
    field = oracle._FieldArrays(ctx)
    assert field.antilog.dtype == np.int64 and field.antilog.tolist() == walk
    assert field.log[field.antilog].tolist() == list(range(q - 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 49, 81, 121, 125, 169, 289, 1999])
def test_tables_match_raw_arithmetic(q):
    # the oracle's array ops (% p, or log and antilog tables and XOR or
    # digits base 2p - 1 that add without a carry) against add, mul and inv,
    # which run the polynomial routines, on every pair of elements; 289 lies
    # past the old q <= 256 cutoff, and GF(1999) has 4 million pairs
    ctx = field_of_order(q)
    field = oracle._FieldArrays(ctx)
    assert all(len(table) <= q for table in (field.log, field.antilog, field.inverse))
    odd_extension = ctx.p > 2 and ctx.e > 1  # the fields that add through spread and fold
    assert (len(field.spread), len(field.fold)) == ((q, (2 * ctx.p - 1) ** ctx.e) if odd_extension else (0, 0))
    assert len(field.fold) < 2**ctx.e * q
    a, b = np.divmod(np.arange(q * q), q)
    assert field.add(a, b).tolist() == list(map(ctx.add, a.tolist(), b.tolist()))
    assert field.mul(a, b).tolist() == list(map(ctx.mul, a.tolist(), b.tolist()))
    assert field.inverse.tolist() == [0, *map(ctx.inv, range(1, q))]
    # the matrix product of a 2-D factor and a stack of 3
    rng = np.random.default_rng(q)
    x, y = rng.integers(q, size=(2, 4)), rng.integers(q, size=(3, 4, 5)).tolist()
    expected = [[[functools.reduce(ctx.add, [ctx.mul(row[r], matrix[r][j]) for r in range(4)]) for j in range(5)]
                 for row in x.tolist()] for matrix in y]
    assert field.dot(x, np.array(y)).tolist() == expected
