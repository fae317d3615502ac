"""Brute-force oracle: enumeration, intersections, adjacency, certification."""

import pytest

from qkneser import oracle
from qkneser.cli import main
from qkneser.gf import field_of_order, make_field
from qkneser.intmatrix import IntMatrix
from qkneser.laurent import InvariantError
from qkneser.oracle import (
    BudgetExceededError,
    Subspace,
    build_adjacency,
    certify_spectrum,
    dump_adjacency,
    dump_certification,
    dump_vertices,
    enumerate_subspaces,
    gf_rank,
    intersection_dim,
    predicted_vertex_count,
)
from qkneser.qbinom import gauss
from qkneser.spectrum import SpectrumEntry, SpectrumTable, spectrum_table


def assert_rref(s):
    k, v = s.k, s.v
    assert list(s.pivots) == sorted(set(s.pivots))
    assert len(s.pivots) == k
    for r in range(k):
        row = s.rows[r]
        assert row[s.pivots[r]] == 1
        assert all(x == 0 for x in row[: s.pivots[r]])
        for other in range(k):
            if other != r:
                assert s.rows[other][s.pivots[r]] == 0


def test_enumerate_lines_of_f2_cubed():
    ctx = make_field(2, 1)
    subs = enumerate_subspaces(ctx, 3, 1)
    assert len(subs) == 7  # one line per nonzero vector
    for s in subs:
        assert_rref(s)
    assert len(set(subs)) == 7


def test_enumerate_planes_of_f2_fourth():
    ctx = make_field(2, 1)
    subs = enumerate_subspaces(ctx, 4, 2)
    assert len(subs) == 35
    for s in subs:
        assert_rref(s)
    assert subs == sorted(subs, key=lambda s: (s.pivots, s.rows))


def test_enumerate_zero_subspace():
    ctx = make_field(2, 1)
    subs = enumerate_subspaces(ctx, 3, 0)
    assert len(subs) == 1
    assert subs[0].rows == () and subs[0].pivots == ()


@pytest.mark.parametrize("v,k,q", [(4, 2, 2), (5, 2, 2), (6, 2, 2), (4, 2, 3),
                                   (5, 2, 3), (4, 2, 4), (2, 1, 2), (2, 1, 3),
                                   (2, 1, 9), (3, 1, 9)])
def test_counts_match_formula(v, k, q):
    ctx = field_of_order(q)
    subs = enumerate_subspaces(ctx, v, k)
    expected = gauss(v, k).evaluate(q)
    assert len(subs) == expected == predicted_vertex_count(v, k, q)


def test_budget_guardrail():
    ctx = make_field(2, 1)
    with pytest.raises(BudgetExceededError) as err:
        enumerate_subspaces(ctx, 6, 3, budget=100)
    assert err.value.predicted == 1395
    assert err.value.budget == 100


def test_enumeration_count_mismatch_is_a_verification_failure(monkeypatch, capsys):
    # The count check must survive python -O, and the CLI must report it
    # as exit 1 (a real failure) with one error line and no traceback.
    real = oracle.predicted_vertex_count
    monkeypatch.setattr(oracle, "predicted_vertex_count", lambda v, k, q: real(v, k, q) + 1)
    with pytest.raises(InvariantError, match="enumerated 7 1-subspaces"):
        enumerate_subspaces(make_field(2, 1), 3, 1)
    assert main(["count-subspaces", "3", "1", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_enumerate_rejects_k_above_v():
    ctx = make_field(2, 1)
    with pytest.raises(ValueError):
        enumerate_subspaces(ctx, 3, 4)


def test_gf_rank():
    ctx = make_field(2, 1)
    assert gf_rank(ctx, [[1, 0, 1], [0, 1, 1], [1, 1, 0]]) == 2
    assert gf_rank(ctx, [[0, 0], [0, 0]]) == 0
    ctx3 = make_field(3, 1)
    assert gf_rank(ctx3, [[1, 2], [2, 1]]) == 1  # second row is 2 * first over GF(3)
    assert gf_rank(ctx3, [[1, 2], [2, 2]]) == 2


def test_intersection_dim_examples():
    ctx = make_field(2, 1)
    planes = enumerate_subspaces(ctx, 4, 2)
    for s in planes:
        assert intersection_dim(s, s) == s.k
    lines2 = enumerate_subspaces(ctx, 2, 1)
    for a in lines2:
        for b in lines2:
            assert intersection_dim(a, b) == (1 if a == b else 0)
    e12 = next(s for s in planes if s.rows == ((1, 0, 0, 0), (0, 1, 0, 0)))
    e23 = next(s for s in planes if s.rows == ((0, 1, 0, 0), (0, 0, 1, 0)))
    assert intersection_dim(e12, e23) == 1


def test_intersection_dim_bounds_and_symmetry():
    ctx = make_field(2, 1)
    planes = enumerate_subspaces(ctx, 4, 2)
    for a in planes[:12]:
        for b in planes[:12]:
            d = intersection_dim(a, b)
            assert d == intersection_dim(b, a)
            assert max(0, 2 * a.k - a.v) <= d <= a.k
            assert (d == a.k) == (a == b)


def test_intersection_dim_rejects_mixed_ambient():
    ctx = make_field(2, 1)
    a = enumerate_subspaces(ctx, 3, 1)[0]
    b = enumerate_subspaces(ctx, 4, 1)[0]
    with pytest.raises(ValueError):
        intersection_dim(a, b)
    c = enumerate_subspaces(ctx, 4, 2)[0]
    with pytest.raises(ValueError):
        intersection_dim(b, c)


def test_adjacency_is_triangle_for_qk_2_1_2():
    ctx = make_field(2, 1)
    adjacency = build_adjacency(enumerate_subspaces(ctx, 2, 1))
    assert adjacency.to_rows() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_adjacency_regular_of_degree_16():
    ctx = make_field(2, 1)
    adjacency = build_adjacency(enumerate_subspaces(ctx, 4, 2))
    assert set(adjacency.row_sums()) == {16}
    assert adjacency.is_symmetric()
    assert all(adjacency.entry(i, i) == 0 for i in range(adjacency.n))


def test_adjacency_k0_is_single_vertex():
    ctx = make_field(2, 1)
    adjacency = build_adjacency(enumerate_subspaces(ctx, 3, 0))
    assert adjacency.to_rows() == [[0]]


def rank_route_mismatch(subs, adjacency):
    # first (i, j) where the adjacency disagrees with stacked-rank intersection
    for i in range(len(subs)):
        for j in range(len(subs)):
            expected = 1 if i != j and intersection_dim(subs[i], subs[j]) == 0 else 0
            if adjacency.entry(i, j) != expected:
                return i, j
    return None


@pytest.mark.parametrize("v,k,q", [(4, 2, 2), (2, 1, 3), (4, 2, 3), (3, 1, 4), (2, 1, 9)])
def test_adjacency_agrees_with_rank_route(v, k, q):
    # the point-incidence product must match stacked-rank intersection
    ctx = field_of_order(q)
    subs = enumerate_subspaces(ctx, v, k)
    assert rank_route_mismatch(subs, build_adjacency(subs)) is None


@pytest.mark.parametrize("v,k,q", [(4, 2, 3), (3, 2, 4)])
def test_point_codes_are_the_canonical_points(v, k, q):
    ctx = field_of_order(q)
    points_per_vertex = int(gauss(k, 1).evaluate(q))
    for s in enumerate_subspaces(ctx, v, k):
        codes = oracle._point_codes(s)
        assert len(codes) == len(set(codes)) == points_per_vertex
        for code in codes:
            vec = [code // q**t % q for t in range(v)]
            assert next(x for x in vec if x) == 1
            assert gf_rank(ctx, [*s.rows, vec]) == k  # the point lies in s


def test_dropped_point_is_caught(monkeypatch):
    # negative control for the incidence product: vertex 0 loses one of its
    # points (replaced by a repeat of another), so it looks adjacent to the
    # lines through that point
    ctx = make_field(2, 1)
    subs = enumerate_subspaces(ctx, 4, 2)
    honest = oracle._point_codes

    def lossy(s):
        codes = honest(s)
        if s is subs[0]:
            codes[0] = codes[1]
        return codes

    monkeypatch.setattr(oracle, "_point_codes", lossy)
    adjacency = build_adjacency(subs)
    assert rank_route_mismatch(subs, adjacency) is not None
    assert not certify_spectrum(adjacency, spectrum_table(4, 2, 2)).certified


def test_regularity_matches_predicted_degree():
    for v, k, q in [(4, 2, 2), (5, 2, 2), (2, 1, 5), (4, 2, 3)]:
        ctx = field_of_order(q)
        adjacency = build_adjacency(enumerate_subspaces(ctx, v, k))
        degree = gauss(v - k, k).shift(k * k).evaluate(q)
        assert set(adjacency.row_sums()) == {int(degree)}


def test_certify_qk_4_2_2():
    ctx = make_field(2, 1)
    adjacency = build_adjacency(enumerate_subspaces(ctx, 4, 2))
    result = certify_spectrum(adjacency, spectrum_table(4, 2, 2))
    assert result.certified
    assert result.annihilation_ok and result.moments_ok
    assert result.moments == [35, 0, 560]
    assert result.vertex_count == 35 and result.degree == 16
    assert result.certified_multiplicities == [1, 14, 20]
    assert result.offending_moments == [] and result.residual_entry is None


def test_certify_triangle():
    ctx = make_field(2, 1)
    adjacency = build_adjacency(enumerate_subspaces(ctx, 2, 1))
    result = certify_spectrum(adjacency, spectrum_table(2, 1, 2))
    assert result.certified
    assert result.predicted_eigenvalues == [2, -1]
    assert result.predicted_multiplicities == [1, 2]


@pytest.mark.parametrize("v,k,q", [(2, 1, 3), (2, 1, 4), (2, 1, 5), (5, 2, 2), (4, 2, 3)])
def test_certify_more_cases(v, k, q):
    # qK(2,1) is complete on q+1 vertices: distinct lines of a plane meet trivially
    ctx = field_of_order(q)
    adjacency = build_adjacency(enumerate_subspaces(ctx, v, k))
    result = certify_spectrum(adjacency, spectrum_table(v, k, q))
    assert result.certified
    assert sum(result.certified_multiplicities) == result.vertex_count


def _tweaked(table, j, d_eig=0, d_mult=0):
    entries = []
    for e in table.entries:
        if e.j == j:
            entries.append(SpectrumEntry(e.j, e.eigenvalue + d_eig, e.multiplicity + d_mult))
        else:
            entries.append(e)
    return SpectrumTable(v=table.v, k=table.k, q=table.q, entries=tuple(entries))


def test_certify_detects_wrong_multiplicity():
    ctx = make_field(2, 1)
    adjacency = build_adjacency(enumerate_subspaces(ctx, 4, 2))
    wrong = _tweaked(spectrum_table(4, 2, 2), j=1, d_mult=-1)  # 13 instead of 14
    result = certify_spectrum(adjacency, wrong)
    assert not result.moments_ok
    assert not result.certified
    assert any(m == 1 and expected == 4 for m, expected, _ in result.offending_moments)


def test_certify_detects_wrong_eigenvalue():
    ctx = make_field(2, 1)
    adjacency = build_adjacency(enumerate_subspaces(ctx, 4, 2))
    wrong = _tweaked(spectrum_table(4, 2, 2), j=2, d_eig=1)  # 3 instead of 2
    result = certify_spectrum(adjacency, wrong)
    assert not result.annihilation_ok
    assert result.residual_entry is not None
    assert not result.certified


def test_certify_rejects_degenerate_predictions():
    ctx = make_field(2, 1)
    adjacency = build_adjacency(enumerate_subspaces(ctx, 2, 1))
    table = spectrum_table(2, 1, 2)
    repeated = SpectrumTable(v=2, k=1, q=2, entries=(
        SpectrumEntry(0, 2, 1), SpectrumEntry(1, 2, 2)))
    with pytest.raises(ValueError):
        certify_spectrum(adjacency, repeated)
    with pytest.raises(ValueError):
        certify_spectrum(adjacency, spectrum_table(2, 1))  # symbolic table
    lopsided = IntMatrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        certify_spectrum(lopsided, table)


def test_dump_files(tmp_path):
    ctx = make_field(2, 1)
    subs = enumerate_subspaces(ctx, 2, 1)
    adjacency = build_adjacency(subs)
    result = certify_spectrum(adjacency, spectrum_table(2, 1, 2))

    vertex_path = tmp_path / "vertices.txt"
    dump_vertices(subs, vertex_path)
    assert vertex_path.read_text() == "1 0\n1 1\n0 1\n"

    adjacency_path = tmp_path / "adjacency.txt"
    dump_adjacency(adjacency, adjacency_path)
    assert adjacency_path.read_text() == "0 1 1\n1 0 1\n1 1 0\n"

    import json
    cert_path = tmp_path / "certification.json"
    dump_certification(result, cert_path)
    payload = json.loads(cert_path.read_text())
    assert payload["schema"] == "qkneser.certification@1"
    assert payload["certified"] is True
    assert payload["vertex_count"] == 3


def test_extension_field_vertices_serialize_with_element_encodings():
    ctx = make_field(2, 2)  # GF(4): encodings 0..3 appear literally
    subs = enumerate_subspaces(ctx, 2, 1)
    assert len(subs) == 5
    flat = {x for s in subs for row in s.rows for x in row}
    assert flat == {0, 1, 2, 3}
