"""Laurent polynomial arithmetic: ring axioms, exact evaluation, rendering."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkneser import laurent
from qkneser.laurent import ONE, Q, ZERO, InvariantError, LaurentPoly, sum_of_products


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


def _render_terms(poly):
    # reference rendering, term by term from items(), highest exponent first
    parts = []
    for exp, coeff in poly.items():
        sep = ("-" if coeff < 0 else "") if not parts else (" - " if coeff < 0 else " + ")
        mag = abs(coeff)
        power = "q" if exp == 1 else f"q^{exp}"
        parts.append(sep + (str(mag) if exp == 0 else power if mag == 1 else f"{mag}*{power}"))
    return "".join(parts) or "0"


def test_rendering_matches_the_term_by_term_reference():
    rng = random.Random(7)
    polys = [random_poly(rng) * random_poly(rng) - random_poly(rng) for _ in range(300)]
    polys += [P({e: c}) for e in (-2, -1, 0, 1, 2) for c in (-10**30, -2, -1, 1, 2, 10**30)]
    for poly in polys:
        assert str(poly) == _render_terms(poly), poly.items()


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


# ----------------------------------------------------------------------
# reference model: the sparse {exponent: coefficient} dict with a double-loop
# product, against which the dense Kronecker representation is checked

def _model(terms):
    return {exp: coeff for exp, coeff in terms.items() if coeff}


def _model_add(a, b):
    out = dict(a)
    for exp, coeff in b.items():
        out[exp] = out.get(exp, 0) + coeff
    return _model(out)


def _model_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _model(out)


def _model_pow(a, n):
    out = {0: 1}
    for _ in range(n):
        out = _model_mul(out, a)
    return out


def _model_items(a):
    return tuple(sorted(_model(a).items(), reverse=True))


def _model_evaluate(a, q0):
    return sum((coeff * Fraction(q0) ** exp for exp, coeff in a.items()), Fraction(0))


def _model_neg(a):
    return {exp: -coeff for exp, coeff in a.items()}


def _model_shift(a, e):
    return {exp + e: coeff for exp, coeff in a.items()}


def _model_norm(a):
    return sum(map(abs, a.values()))


def _model_len(a):
    return max(a) - min(a) + 1 if a else 0


def _assert_matches(got, want, q0, op=None):
    # got against the model: terms, both ends, a norm that bounds the sum
    # of |coefficient| and fits the width, equality and hash against the
    # value built from coefficients (at its own width, with the exact
    # norm), and the value at q0
    want = _model(want)
    assert got.items() == _model_items(want), op
    assert (got.valuation(), got.degree()) == ((min(want), max(want)) if want else (None, None)), op
    assert _model_norm(want) <= got._norm < 2 ** (8 * got._width - 1), op
    built = LaurentPoly(want)
    assert built._norm == _model_norm(want), op
    assert got == built and built == got and hash(got) == hash(built), op
    assert got.evaluate(q0) == _model_evaluate(want, q0), op


# magnitudes just below and at 2^(8w-1), the largest value a w-byte slot
# holds and the smallest that needs one more byte
_SLOT_EDGES = [sign * (2 ** (8 * w - 1) - d) for w in (1, 2, 8, 9) for d in (1, 0) for sign in (1, -1)]

_coefficients = st.one_of(
    st.integers(-9, 9),
    st.sampled_from(_SLOT_EDGES),
    st.integers(-(10**40), 10**40),
)
# sparse keys over a wide range give interior zeros; {} is the zero polynomial
_terms = st.dictionaries(st.integers(-12, 12), _coefficients, max_size=8)


@settings(max_examples=300, deadline=None, database=None, report_multiple_bugs=False)
@given(a=_terms, b=_terms, power=st.integers(0, 3), e=st.integers(-30, 30), q0=st.sampled_from([2, 3, 7]))
@example(a={0: 2**63 - 1}, b={0: 1}, power=1, e=0, q0=2)
@example(a={-3: -(2**63)}, b={5: -1}, power=2, e=-1, q0=3)
@example(a={0: 2**71 - 1, 1: 2**71 - 1}, b={0: 1, 1: -1}, power=1, e=4, q0=2)
@example(a={-2: 127, 4: -128}, b={-1: 1, 2: 1, 9: -1}, power=3, e=2, q0=7)
def test_operations_match_the_dict_model(a, b, power, e, q0):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    ma, mb = _model(a), _model(b)
    results = {
        "+": (pa + pb, _model_add(ma, mb)),
        "-": (pa - pb, _model_add(ma, _model_neg(mb))),
        "neg": (-pa, _model_neg(ma)),
        "*": (pa * pb, _model_mul(ma, mb)),
        "**": (pa**power, _model_pow(ma, power)),
        "shift": (pa.shift(e), _model_shift(ma, e)),
    }
    for op, (got, want) in results.items():
        _assert_matches(got, want, q0, op)
    assert pa.items() == _model_items(ma)
    assert (pa == pb) == (ma == mb)
    assert pa.evaluate(q0) == _model_evaluate(ma, q0)


def _model_sum(terms):
    out = {}
    for sign, shift, a, b in terms:
        term = {exp + shift: sign * coeff for exp, coeff in _model_mul(_model(a), _model(b)).items()}
        out = _model_add(out, term)
    return out


_sum_terms = st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(-20, 20), _terms, _terms), max_size=6)


@settings(max_examples=200, deadline=None, database=None, report_multiple_bugs=False)
@given(terms=_sum_terms, cancelled=st.integers(0, 6), q0=st.sampled_from([2, 3, 7]))
@example(terms=[(1, 0, {0: 2**63 - 1}, {0: 1}), (1, 0, {0: 2**63 - 1}, {0: 1})], cancelled=0, q0=2)
@example(terms=[(1, 3, {0: 1, 2: -1}, {1: 5}), (-1, 1, {2: 1, 4: -1}, {1: 5})], cancelled=0, q0=3)
@example(terms=[(-1, -4, {-2: 127, 4: -128}, {0: 127}), (1, 2, {0: -(2**71)}, {3: 2**71 - 1})], cancelled=1, q0=7)
def test_sums_of_products_match_the_dict_model(terms, cancelled, q0):
    # the first `cancelled` terms come back with the opposite sign, so the
    # sum loses whole terms, its top or bottom coefficients, or everything
    terms = terms + [(-sign, shift, a, b) for sign, shift, a, b in terms[:cancelled]]
    got = sum_of_products((sign, shift, LaurentPoly(a), LaurentPoly(b)) for sign, shift, a, b in terms)
    _assert_matches(got, _model_sum(terms), q0)
    # the slot width and the norm (0 once all cancels) are the sum of the terms' norm products
    bound = sum(_model_norm(_model(a)) * _model_norm(_model(b)) for _, _, a, b in terms)
    if bound:
        assert got._width == laurent._slot_bytes(bound) and got._norm == (bound if got else 0)


_CHAIN_OPS = st.sampled_from(["+", "-", "sum", "shift", "neg"])
_chain = st.lists(st.tuples(_CHAIN_OPS, _terms, st.integers(-20, 20), st.sampled_from([1, -1])), max_size=8)


@settings(max_examples=200, deadline=None, database=None, report_multiple_bugs=False)
@given(start=_terms, steps=_chain, q0=st.sampled_from([2, 3, 7]))
@example(start={0: 1, 1: -1}, steps=[("+", {0: 2**71}, 0, 1), ("-", {0: 2**71}, 0, 1)], q0=2)
@example(start={3: -128}, steps=[("sum", {-1: 127, 2: -1}, 4, -1), ("neg", {}, 0, 1), ("shift", {}, -9, 1),
                                 ("-", {2: -128}, 0, 1)], q0=3)
def test_chains_of_operations_stay_images_and_match_the_dict_model(start, steps, q0):
    # every intermediate value is the output of an operation, so its width
    # and norm come from the bounds alone; they drift along the chain,
    # while equality and hashing must not see them
    value = LaurentPoly(start) + ZERO
    want = _model(start)
    for op, terms, e, sign in steps:
        other, mother = LaurentPoly(terms), _model(terms)
        if op == "+":
            value, want = value + other, _model_add(want, mother)
        elif op == "-":
            value, want = value - other, _model_add(want, _model_neg(mother))
        elif op == "sum":
            value = sum_of_products([(1, 0, value, ONE), (sign, e, value, other)])
            want = _model_add(want, {exp + e: sign * c for exp, c in _model_mul(want, mother).items()})
        elif op == "shift":
            value, want = value.shift(e), _model_shift(want, e)
        else:
            value, want = -value, _model_neg(want)
    _assert_matches(value, want, q0)
    for extra in (1, 2, 5):
        # the same value re-slotted wider is still the same value
        width = value._width + extra
        wider = LaurentPoly._from_image(value._low, width, value._image_at(width), value._norm)
        assert wider._width != value._width
        assert wider == value and value == wider and hash(wider) == hash(value)
        _assert_matches(wider, want, q0)


def test_sum_of_products_edge_cases():
    assert sum_of_products([]) == ZERO
    assert sum_of_products([(1, 5, ZERO, Q), (-1, 0, Q, ZERO)]) == ZERO
    assert sum_of_products([(1, 2, Q, Q), (-1, 0, Q.shift(2), Q)]) == ZERO
    assert sum_of_products([(-1, -3, Q + ONE, Q - ONE)]) == LaurentPoly({-1: -1, -3: 1})
    for bad in (0, 2, -2):
        with pytest.raises(ValueError):
            sum_of_products([(bad, 0, ONE, ONE)])


def test_a_narrower_slot_fails_the_model_check(monkeypatch):
    # Negative control: one byte less than the exactness bound asks for
    # must break the products and the sums, so both model comparisons
    # above have teeth.
    exact = laurent._slot_bytes
    monkeypatch.setattr(laurent, "_slot_bytes", lambda bound: exact(bound) - 1)
    with pytest.raises((AssertionError, OverflowError)):
        test_operations_match_the_dict_model()
    with pytest.raises((AssertionError, OverflowError)):
        test_sums_of_products_match_the_dict_model()


# a * NARROW needs 1-byte slots (norm bound 120 < 2^7), a * WIDE 2-byte slots (bound 240)
_CACHED = {0: 40, 1: -40, 3: 40}
_NARROW, _WIDE = {0: 1}, {2: 2}


def test_a_packed_operand_is_repacked_at_a_new_width():
    # a keeps its own 1-byte image and re-slots it for the 2-byte sum,
    # keeping that copy for the next sum at the same width
    a = LaurentPoly(_CACHED)
    assert a._width == 1
    for other, width in ((_NARROW, 1), (_WIDE, 2), (_NARROW, 1)):
        product = a * LaurentPoly(other)
        assert product._width == width
        assert product.items() == _model_items(_model_mul(_CACHED, other))
        assert a._image_at(width) == laurent._pack(a._coefficients(), width)
    assert a._alt == (2, laurent._pack((40, -40, 0, 40), 2))


def test_a_stale_packed_image_fails_the_model_check():
    # Negative control: the 1-byte image relabelled as the 2-byte one must
    # break the product, so the width in the cache key matters.
    a = LaurentPoly(_CACHED)
    a * LaurentPoly(_WIDE)
    a._alt = (2, a._image)
    with pytest.raises((AssertionError, OverflowError)):
        assert (a * LaurentPoly(_WIDE)).items() == _model_items(_model_mul(_CACHED, _WIDE))


def _model_tests():
    test_operations_match_the_dict_model()
    test_sums_of_products_match_the_dict_model()
    test_chains_of_operations_stay_images_and_match_the_dict_model()


def _reslot_without_bias(image, size, old, new):
    # the slots of the two's-complement image copied as they are: a
    # negative coefficient borrows from the slot above, which this loses
    raw = image.to_bytes(size * old + 1, "little", signed=True)[:size * old]
    out = bytearray(size * new)
    for byte in range(min(old, new)):
        out[byte::new] = raw[byte::old]
    return int.from_bytes(out, "little", signed=True)


def _max_as_norm(original):
    # a value built from coefficients with max|c| as its norm and width
    def init(self, terms=None):
        original(self, terms)
        coeffs = self._coefficients()
        self._norm = max(map(abs, coeffs), default=0)
        self._width = laurent._slot_bytes(self._norm)
        self._image = laurent._pack(coeffs, self._width)
    return init


@pytest.mark.parametrize("mutation", ["reslot without bias", "top slot dropped", "top slot added",
                                      "norm is the max"])
def test_broken_image_handling_fails_the_model_checks(monkeypatch, mutation):
    # Negative controls: each defect must be caught by the model tests above.
    if mutation == "reslot without bias":
        monkeypatch.setattr(laurent, "_reslot", _reslot_without_bias)
    elif mutation.startswith("top slot"):
        exact, off = laurent._slot_count, -1 if mutation == "top slot dropped" else 1
        monkeypatch.setattr(laurent, "_slot_count", lambda image, width: exact(image, width) + off if image else 0)
    else:
        # max|c| bounds a coefficient of the value but not one of its products
        monkeypatch.setattr(LaurentPoly, "__init__", _max_as_norm(LaurentPoly.__init__))
        with pytest.raises((AssertionError, OverflowError)):
            test_products_at_the_slot_edge(1)
    with pytest.raises((AssertionError, OverflowError, ValueError)):
        _model_tests()


@pytest.mark.parametrize("w", [1, 2, 8, 9])
def test_products_at_the_slot_edge(w):
    # coefficients of the product reach +-(2^(8w-1) - 1), the most a w-byte
    # slot holds, and -2^(8w-1), which the bound sends one slot wider
    top = 2 ** (8 * w - 1)
    for a, b in [({0: top - 1}, {3: 1}), ({0: top - 1}, {-2: -1}), ({0: -top}, {1: 1}),
                 ({0: top // 2, 1: top // 2}, {0: 1, 1: 1}), ({-1: top, 1: -top}, {0: top, 2: top})]:
        assert (LaurentPoly(a) * LaurentPoly(b)).items() == _model_items(_model_mul(a, b))


@pytest.mark.parametrize("w", [1, 2, 8, 9])
def test_reslot_round_trips_at_the_slot_edge(w):
    # narrow -> wide -> narrow keeps every coefficient of either sign up to
    # 2^(8w-1) - 1, the most a w-byte slot holds, next to small ones and zeros
    edge = 2 ** (8 * w - 1) - 1
    for coeffs in [(edge,), (-edge,), (edge, -edge, 0, 1, -1, 0, -edge, edge), (-1, edge, -edge, 1)]:
        image = laurent._pack(coeffs, w)
        for wide in (w + 1, 2 * w + 3):
            widened = laurent._reslot(image, len(coeffs), w, wide)
            assert widened == laurent._pack(coeffs, wide)
            assert laurent._reslot(widened, len(coeffs), wide, w) == image


@settings(max_examples=30, deadline=None, database=None, report_multiple_bugs=False)
@given(a=_terms, b=_terms)
@example(a={-2: -(2**63), 0: 2**63 - 1, 3: -1}, b={0: 1})
@example(a={0: -127, 1: 127, 2: -127}, b={5: -1, 6: 1})
def test_coefficient_reads_the_slot_that_items_report(a, b):
    # inside the exponent range, at both ends and outside it
    for poly in (LaurentPoly(a), LaurentPoly(a) * LaurentPoly(b), LaurentPoly(a) - LaurentPoly(b)):
        terms = dict(poly.items())
        span = range(min(terms, default=0) - 3, max(terms, default=0) + 4)
        assert [poly.coefficient(e) for e in span] == [terms.get(e, 0) for e in span], poly
