"""Spectrum formulas: both closed forms, multiplicities, spectral sums."""

import json

import pytest

from qkneser import qbinom
from qkneser.cli import main
from qkneser.identities import IDENTITIES, theorem2_sides
from qkneser.laurent import ONE, LaurentPoly
from qkneser.qbinom import MemoRefused, gauss
from qkneser.spectrum import (
    delsarte_eigenvalue,
    delsarte_terms,
    multiplicity,
    simple_eigenvalue,
    spectrum_table,
)


def test_delsarte_examples():
    assert delsarte_eigenvalue(4, 2, 1) == LaurentPoly({2: -1})
    assert delsarte_eigenvalue(4, 2, 2) == LaurentPoly({1: 1})
    assert delsarte_eigenvalue(4, 2, 0) == LaurentPoly({4: 1})


def test_simple_examples():
    assert simple_eigenvalue(4, 2, 0) == LaurentPoly({4: 1})
    assert simple_eigenvalue(4, 2, 1) == LaurentPoly({2: -1})
    assert simple_eigenvalue(4, 2, 2) == LaurentPoly({1: 1})
    assert simple_eigenvalue(5, 2, 1) == LaurentPoly({3: -1, 2: -1})  # -q^2 (q+1)
    for k in range(1, 5):
        assert simple_eigenvalue(2 * k, k, 0) == LaurentPoly({k * k: 1})


def test_forms_agree_on_grid():
    for k in range(0, 5):
        for v in range(2 * k, 11):
            for j in range(0, k + 1):
                assert delsarte_eigenvalue(v, k, j) == simple_eigenvalue(v, k, j), (v, k, j)


def test_both_forms_are_the_sides_of_theorem2():
    # The Delsarte form runs the q-binomial theorem's passes, theorem2's left
    # side the literal sum of products, so their match checks one route
    # against the other; the closed form reads the mirror cell [v-k-j v-2k],
    # so its match with the right side [v-k-j k-j] is a check in its own right.
    theorem2 = IDENTITIES["theorem2"]
    for k in range(1, 6):
        for v in range(2 * k, 15):
            for j in range(k + 1):
                params = (k - j, v - 2 * j, v - k - j)
                assert theorem2.precondition(*params), (v, k, j)
                lhs, rhs = theorem2_sides(*params)
                factor = LaurentPoly.monomial((-1) ** j, (k - j) * j + j * (j - 1) // 2)
                assert delsarte_eigenvalue(v, k, j) == factor * lhs, (v, k, j)
                assert simple_eigenvalue(v, k, j) == factor * rhs, (v, k, j)


def test_multiplicity_values():
    assert multiplicity(4, 2, 0) == ONE
    assert multiplicity(4, 2, 1).evaluate(2) == 14
    assert multiplicity(4, 2, 2).evaluate(2) == 20
    assert multiplicity(4, 2, 1) == gauss(4, 1) - gauss(4, 0)


def test_multiplicity_sum_is_vertex_count():
    for k in range(1, 5):
        for v in range(2 * k, 11):
            total = ONE * 0
            for j in range(k + 1):
                total = total + multiplicity(v, k, j)
            assert total == gauss(v, k), (v, k)


def test_trace_is_zero():
    for k in range(1, 5):
        for v in range(2 * k, 11):
            total = ONE * 0
            for j in range(k + 1):
                total = total + multiplicity(v, k, j) * simple_eigenvalue(v, k, j)
            assert total.is_zero(), (v, k)


def test_second_moment_is_n_times_degree():
    for k in range(1, 5):
        for v in range(2 * k, 11):
            total = ONE * 0
            for j in range(k + 1):
                lam = simple_eigenvalue(v, k, j)
                total = total + multiplicity(v, k, j) * lam * lam
            expected = gauss(v, k) * gauss(v - k, k).shift(k * k)
            assert total == expected, (v, k)


def test_degree_identity():
    for k in range(1, 5):
        for v in range(2 * k, 11):
            assert simple_eigenvalue(v, k, 0) == gauss(v - k, k).shift(k * k)


def test_leading_sign_alternates():
    for k in range(1, 5):
        for v in range(2 * k, 11):
            for j in range(k + 1):
                lam = simple_eigenvalue(v, k, j)
                lead = lam.coefficient(lam.degree())
                assert (lead > 0) == (j % 2 == 0), (v, k, j)


def test_entries_are_honest_polynomials():
    for k in range(1, 5):
        for v in range(2 * k, 11):
            for j in range(k + 1):
                assert simple_eigenvalue(v, k, j).valuation() >= 0
                assert multiplicity(v, k, j).valuation() >= 0


def test_spectrum_table_evaluated():
    frozen = {
        (4, 2, 2): [(0, 16, 1), (1, -4, 14), (2, 2, 20)],
        (5, 2, 2): [(0, 112, 1), (1, -12, 30), (2, 2, 124)],
        (4, 2, 3): [(0, 81, 1), (1, -9, 39), (2, 3, 90)],
    }
    for (v, k, q0), rows in frozen.items():
        table = spectrum_table(v, k, q0)
        assert [(e.j, e.eigenvalue, e.multiplicity) for e in table.entries] == rows
        assert table.q == q0


def test_spectrum_table_symbolic():
    table = spectrum_table(4, 2)
    assert table.q is None
    assert len(table.entries) == 3
    assert [e.j for e in table.entries] == [0, 1, 2]
    assert table.entries[0].eigenvalue == LaurentPoly({4: 1})
    assert table.entries[0].multiplicity == ONE


def test_evaluated_eigenvalues_distinct_and_multiplicities_positive():
    for k in range(1, 5):
        for v in range(2 * k, 11):
            for q0 in (2, 3, 4, 5):
                table = spectrum_table(v, k, q0)
                eigenvalues = table.eigenvalues()
                assert len(set(eigenvalues)) == k + 1, (v, k, q0)
                assert all(m >= 1 for m in table.multiplicities())


def test_rejects_null_graph_range():
    with pytest.raises(ValueError, match="null graph"):
        spectrum_table(3, 2)
    with pytest.raises(ValueError, match="null graph"):
        simple_eigenvalue(3, 2, 0)
    with pytest.raises(ValueError, match="null graph"):
        delsarte_eigenvalue(5, 3, 1)
    with pytest.raises(ValueError):
        spectrum_table(1, 2)  # v < k


def test_rejects_bad_j_and_k():
    with pytest.raises(ValueError):
        simple_eigenvalue(8, 2, 3)
    with pytest.raises(ValueError):
        delsarte_eigenvalue(8, 2, -1)
    with pytest.raises(ValueError):
        multiplicity(8, 2, 5)
    with pytest.raises(ValueError):
        spectrum_table(4, 0)  # table requires k >= 1


def test_rejects_non_prime_power_q():
    for bad in (6, 10, 12, 1, 0):
        with pytest.raises(ValueError):
            spectrum_table(4, 2, bad)


def test_json_schema(capsys):
    # the table's JSON form is the one `eigenvalues --format json` prints
    def payload(*argv):
        assert main(["eigenvalues", "4", "2", *argv, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    assert payload("--q", "2") == {
        "v": 4, "k": 2, "q": 2,
        "entries": [
            {"j": 0, "eigenvalue": 16, "multiplicity": 1},
            {"j": 1, "eigenvalue": -4, "multiplicity": 14},
            {"j": 2, "eigenvalue": 2, "multiplicity": 20},
        ],
    }
    symbolic = payload()
    assert symbolic["q"] is None
    assert symbolic["entries"][0]["eigenvalue"] == "q^4"


def _read_lazily(v, k):
    # the cells of the table of qK(v, k), each read through gauss in the table's order
    for j in range(k + 1):
        simple_eigenvalue(v, k, j)
        multiplicity(v, k, j)


def _first_refusal(table, v, k):
    # the refusal of table(v, k) and its streamed Delsarte column and the
    # memo's size then, or None; the memo is left empty
    gauss.cache_clear()
    try:
        table(v, k)
        for j, terms in delsarte_terms(v, k):
            delsarte_eigenvalue(v, k, j, terms)
        return None
    except MemoRefused as exc:
        return str(exc), gauss.cache_info().currsize
    finally:
        gauss.cache_clear()


@pytest.mark.parametrize("limit", [2000, 10**4, 2 * 10**4, 4 * 10**4])
def test_up_front_pricing_refuses_what_the_fills_would(monkeypatch, limit):
    # Pricing every cell the table reads before its stream, and the Delsarte
    # terms before theirs, refuses exactly where reading the table lazily,
    # each gauss miss pricing its own cell, is refused, with the same
    # message, but with the memo still empty: a memo hit is a cell that
    # passed the same pricing, and no Delsarte term is priced above [v k].
    # Pricing [v k] alone would not do: [4 1] is priced above [4 2], its box
    # has one more row.  Some of the lazy refusals come after misses that
    # filled the memo and some before any.
    monkeypatch.setattr(qbinom, "MEMO_BYTE_LIMIT", limit)
    refused = []
    for v in range(2, 31):
        for k in range(1, v // 2 + 1):
            up_front = _first_refusal(spectrum_table, v, k)
            fill_by_fill = _first_refusal(_read_lazily, v, k)
            assert (up_front is None) == (fill_by_fill is None), (v, k)
            if up_front:
                assert up_front == (fill_by_fill[0], 0), (v, k)
                refused.append(fill_by_fill[1] > 0)
    assert any(refused) and not all(refused)


def test_no_delsarte_term_is_priced_above_v_k():
    # The terms [v-2j-s v-k-j] are served from [v-2j-s k-j-s], whose box has
    # k-j-s <= k columns and v-k-j <= v-k rows, so none is priced above the
    # [v k] that the table reads: a Delsarte column is never refused where
    # its table was not, and `eigenvalues --form both` is refused, if at all,
    # by the table's pricing, before any sweep
    for v in range(2, 121):
        for k in range(1, v // 2 + 1):
            top = qbinom._memo_bytes(v, k)
            for j in range(k + 1):
                for s in range(k - j):  # s = k-j is [v-k-j v-k-j] = 1, never priced
                    assert qbinom._memo_bytes(v - 2 * j - s, v - k - j) <= top, (v, k, j, s)


def test_streamed_column_is_the_literal_sum():
    # every j of the column that delsarte_terms streams is the Delsarte sum
    # as written, alternating_sum's m + 1 products, in valuation, width,
    # image and norm, and its eigenvalue the closed form's
    cases = [(v, k) for v in range(15) for k in range(v // 2 + 1)] + [(60, 15)]
    gauss.cache_clear()
    for v, k in cases:
        seen = []
        for j, terms in delsarte_terms(v, k):
            seen.append(j)
            m, a, t = k - j, v - 2 * j, v - k - j
            assert terms == [gauss(a - s, t) for s in range(m + 1)], (v, k, j)
            streamed = qbinom.full_alternating_sum(m, a, t, terms)
            literal = qbinom.alternating_sum(m, a, t, m)
            assert _internals(streamed) == _internals(literal), (v, k, j)
            assert delsarte_eigenvalue(v, k, j, terms) == simple_eigenvalue(v, k, j), (v, k, j)
        assert seen == list(range(k, -1, -1)), (v, k)
    gauss.cache_clear()


def _internals(poly):
    return poly._low, poly._width, poly._image, poly._norm
