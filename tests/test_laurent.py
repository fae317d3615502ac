"""Laurent polynomial arithmetic: ring axioms, exact evaluation, rendering."""

import random
from fractions import Fraction

import pytest

from qkneser.laurent import ONE, Q, ZERO, InvariantError, LaurentPoly


def P(terms):
    return LaurentPoly(terms)


def random_poly(rng):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        terms[rng.randint(-6, 8)] = rng.randint(-9, 9)
    return LaurentPoly(terms)


def test_normalization_drops_zero_coefficients():
    assert P({3: 0, 1: 2, 0: 0}) == P({1: 2})
    assert P({5: 1, 5: -1}) == P({5: -1})  # mapping keeps the last key
    assert LaurentPoly([(2, 1), (2, -1)]) == ZERO


def test_zero_polynomial_is_empty_map():
    assert ZERO.is_zero()
    assert ZERO.items() == ()
    assert ZERO.degree() is None and ZERO.valuation() is None
    assert not ZERO


def test_add_examples():
    assert P({1: 1, 0: 1}) + P({0: -1}) == Q  # (q + 1) + (-1) = q
    p = P({3: 2, -1: 5})
    assert ZERO + p == p
    assert P({-1: 1}) + P({-1: 1}) == P({-1: 2})


def test_mul_examples():
    assert P({1: 1, 0: 1}) * P({1: 1, 0: -1}) == P({2: 1, 0: -1})  # difference of squares
    assert P({-1: 1}) * Q == ONE
    assert P({4: 7, -2: 3}) * ZERO == ZERO


def test_scalar_arithmetic():
    p = P({2: 3, 0: -1})
    assert p * 2 == P({2: 6, 0: -2})
    assert 2 * p == p * 2
    assert p * 0 == ZERO
    assert p + 1 == P({2: 3})
    assert 1 - ONE == ZERO


def test_shift_examples():
    assert P({1: 1, 0: 1}).shift(-2) == P({-1: 1, -2: 1})
    assert ZERO.shift(5) == ZERO
    assert ONE.shift(3) == P({3: 1})


def test_pow():
    assert (Q + ONE) ** 2 == P({2: 1, 1: 2, 0: 1})
    assert Q**0 == ONE
    with pytest.raises(ValueError):
        (Q + ONE) ** -1


def test_eval_examples():
    p = P({4: 1, 3: 1, 2: 2, 1: 1, 0: 1})
    assert p.evaluate(2) == 35
    assert P({-1: -1}).evaluate(2) == Fraction(-1, 2)
    assert ZERO.evaluate(7) == 0


def test_evaluate_int_guards_integrality():
    assert P({4: 1, 3: 1, 2: 2, 1: 1, 0: 1}).evaluate_int(2) == 35
    assert P({-1: 4}).evaluate_int(2) == 2
    with pytest.raises(InvariantError):
        P({-1: -1}).evaluate_int(2)


def test_eval_rejects_small_points():
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            ONE.evaluate(bad)
    with pytest.raises(TypeError):
        ONE.evaluate(2.0)


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240901)
    for _ in range(200):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a + (-a) == ZERO


def test_eval_is_ring_homomorphism():
    rng = random.Random(77)
    for _ in range(60):
        a, b = random_poly(rng), random_poly(rng)
        for q0 in (2, 3, 4, 5):
            assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)
            assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)


def test_renormalization_is_idempotent():
    rng = random.Random(5)
    for _ in range(50):
        p = random_poly(rng) * random_poly(rng) + random_poly(rng)
        assert LaurentPoly(dict(p.items())) == p


def test_rendering_canonical():
    assert str(P({4: 1, 3: 1, 2: 2, 1: 1, 0: 1})) == "q^4 + q^3 + 2*q^2 + q + 1"
    assert str(P({-1: -1, -2: -1})) == "-q^-1 - q^-2"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(P({0: -3})) == "-3"
    assert str(Q) == "q"
    assert str(P({1: -1})) == "-q"
    assert str(P({-2: 3})) == "3*q^-2"
    assert str(P({2: 1, 0: -1})) == "q^2 - 1"


def test_equality_and_hash():
    a = P({2: 1, 0: -1})
    b = P({0: -1, 2: 1})
    assert a == b and hash(a) == hash(b)
    assert a != P({2: 1})
    assert len({a, b}) == 1


def test_constructor_rejects_non_integers():
    with pytest.raises(TypeError):
        LaurentPoly({0.5: 1})
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})
    with pytest.raises(TypeError):
        LaurentPoly({0: True})
