"""Brute-force oracle: enumeration, intersections, adjacency, certification."""

import os
import random
import tracemalloc
from fractions import Fraction
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkneser import cli, intmatrix, oracle
from qkneser.cli import main
from qkneser.gf import field_of_order, make_field
from qkneser.laurent import InvariantError
from qkneser.oracle import (
    Automorphism,
    BudgetExceededError,
    Incidence,
    build_adjacency,
    certify_spectrum,
    check_vertex_budget,
    dump_adjacency,
    dump_certification,
    dump_vertices,
    enumerate_subspaces,
    gf_rank,
    intersection_dim,
    predicted_vertex_count,
    vertex_automorphisms,
)
from qkneser.qbinom import gauss
from qkneser.spectrum import SpectrumEntry, SpectrumTable, spectrum_table

pytestmark = pytest.mark.usefixtures("no_matrix_products")  # the certificate forms no matrix product


def pivots_of(basis):
    # the column of each row's first nonzero entry
    return tuple(int(np.flatnonzero(row)[0]) for row in basis)


def assert_rref(basis):
    pivots = pivots_of(basis)
    assert list(pivots) == sorted(set(pivots))
    for r, col in enumerate(pivots):
        assert basis[r, col] == 1
        assert basis[:, col].tolist() == [int(other == r) for other in range(len(basis))]


def sorted_order(bases):
    # (pivot columns, entries) order, by a plain Python sort
    return sorted(bases.tolist(), key=lambda rows: (pivots_of(np.array(rows)), rows))


def test_enumerate_lines_of_f2_cubed():
    ctx = make_field(2, 1)
    subs = enumerate_subspaces(ctx, 3, 1)
    assert subs.shape == (7, 1, 3) and subs.dtype == np.int64  # one line per nonzero vector
    for s in subs:
        assert_rref(s)
    assert len(np.unique(subs, axis=0)) == 7


def test_enumerate_planes_of_f2_fourth():
    ctx = make_field(2, 1)
    subs = enumerate_subspaces(ctx, 4, 2)
    assert subs.shape == (35, 2, 4)
    for s in subs:
        assert_rref(s)
    assert subs.tolist() == sorted_order(subs)


@pytest.mark.parametrize("v,k,q", [(4, 2, 3), (6, 3, 2), (4, 2, 4), (3, 1, 9), (5, 3, 3), (4, 0, 2), (4, 4, 3)])
def test_enumeration_is_generated_sorted(v, k, q):
    # the docstring's order comes from the generation itself, with no sort
    subs = enumerate_subspaces(field_of_order(q), v, k)
    assert subs.tolist() == sorted_order(subs)
    for s in subs:
        assert_rref(s)
    assert len(np.unique(subs.reshape(len(subs), -1), axis=0)) == len(subs)


def test_enumerate_zero_subspace():
    ctx = make_field(2, 1)
    subs = enumerate_subspaces(ctx, 3, 0)
    assert subs.shape == (1, 0, 3) and subs.dtype == np.int64


@pytest.mark.parametrize("v,q", [(1, 2), (3, 2), (3, 5), (2, 4)])
def test_enumerate_whole_space(v, q):
    subs = enumerate_subspaces(field_of_order(q), v, v)
    assert subs.shape == (1, v, v) and subs.dtype == np.int64
    assert subs[0].tolist() == np.eye(v, dtype=np.int64).tolist()


def test_enumeration_is_read_only():
    subs = enumerate_subspaces(make_field(2, 1), 4, 2)
    assert not subs.flags.writeable
    with pytest.raises(ValueError):
        subs[0, 0, 0] = 5
    with pytest.raises(ValueError):
        subs[0][1] = 0


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_budget_check_refuses_exactly_above_budget(q):
    # the symbolic gauss is the independent count here
    for v in range(7):
        for k in range(v + 1):
            count = gauss(v, k).evaluate_int(q)
            assert check_vertex_budget(v, k, q, count) == count
            with pytest.raises(BudgetExceededError) as err:
                check_vertex_budget(v, k, q, count - 1)
            assert err.value.predicted == count


def test_budget_check_refuses_by_the_bound_alone(monkeypatch):
    # [v k]_q >= q^(k(v-k)): above budget by more than 64 bits, the count
    # is never computed, so a huge v costs nothing
    monkeypatch.setattr(oracle, "predicted_vertex_count", lambda v, k, q: pytest.fail("count computed"))
    for v, k, q, bits in [(10**12, 2, 2, 2 * (10**12 - 2)), (100, 50, 3, 2500), (68, 1, 2, 67), (3, 1, 2**80, 160)]:
        with pytest.raises(BudgetExceededError, match=rf"at least 2\^{bits} exceeds budget 2\b"):
            check_vertex_budget(v, k, q, 2)


def test_budget_check_shows_the_exact_count_near_the_bound():
    # 66 bits of bound against a 2-bit budget: within the 64-bit margin
    with pytest.raises(BudgetExceededError) as err:
        check_vertex_budget(67, 1, 2, 2)
    assert err.value.predicted == 2**67 - 1


@pytest.mark.parametrize("v,k,q,message", [(3, 4, 2, "0 <= k <= v"), (3, -1, 2, "0 <= k <= v"),
                                           (-1, 0, 2, "0 <= k <= v"), (3, 1, 1, ">= 2"), (3, 1, -4, ">= 2")])
def test_budget_check_rejects_bad_arguments(v, k, q, message):
    with pytest.raises(ValueError, match=message) as err:
        check_vertex_budget(v, k, q, 2000)
    assert not isinstance(err.value, BudgetExceededError)


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
        assert intersection_dim(ctx, s, s) == 2
    lines2 = enumerate_subspaces(ctx, 2, 1)
    for a in lines2:
        for b in lines2:
            assert intersection_dim(ctx, a, b) == (1 if np.array_equal(a, b) else 0)
    e12 = next(s for s in planes if s.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]])
    e23 = next(s for s in planes if s.tolist() == [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert intersection_dim(ctx, e12, e23) == 1


def test_intersection_dim_bounds_and_symmetry():
    ctx = make_field(2, 1)
    planes = enumerate_subspaces(ctx, 4, 2)
    for a in planes[:12]:
        for b in planes[:12]:
            d = intersection_dim(ctx, a, b)
            assert d == intersection_dim(ctx, b, a)
            assert 0 <= d <= 2
            assert (d == 2) == np.array_equal(a, b)


def test_intersection_dim_rejects_mixed_ambient():
    ctx = make_field(2, 1)
    a = enumerate_subspaces(ctx, 3, 1)[0]
    b = enumerate_subspaces(ctx, 4, 1)[0]
    with pytest.raises(ValueError):
        intersection_dim(ctx, a, b)
    planes = enumerate_subspaces(ctx, 4, 2)
    with pytest.raises(ValueError):
        intersection_dim(ctx, b, planes[0])
    with pytest.raises(ValueError):
        intersection_dim(ctx, planes, planes)  # a vertex list, not one basis


def adjacency_of(ctx, v, k):
    return build_adjacency(enumerate_subspaces(ctx, v, k), ctx)


def adjacency_rows(graph, columns):
    # the columns of A (its rows, A being symmetric) of the vertices columns, as a
    # (len(columns), n) bool array: every vertex ANDed against one free-point table
    packed = oracle._packed_adjacency(graph._free_points(columns), graph.members)
    return np.unpackbits(packed, axis=1, count=len(columns)).T.view(bool)


def graph_of(ctx, v, k):
    # the incidence and the generators' actions on it
    graph = Incidence(enumerate_subspaces(ctx, v, k), ctx)
    return graph, vertex_automorphisms(graph)


def test_adjacency_rejects_an_empty_vertex_list():
    with pytest.raises(ValueError, match="empty"):
        build_adjacency(np.zeros((0, 1, 2), dtype=np.int64), make_field(2, 1))


def test_adjacency_is_triangle_for_qk_2_1_2():
    ctx = make_field(2, 1)
    adjacency = adjacency_of(ctx, 2, 1)
    assert adjacency.to_array().tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_adjacency_regular_of_degree_16():
    ctx = make_field(2, 1)
    adjacency = adjacency_of(ctx, 4, 2)
    assert set(adjacency.row_sums()) == {16}
    assert adjacency.is_symmetric()
    assert not adjacency.to_array().diagonal().any()


def test_adjacency_k0_is_single_vertex():
    ctx = make_field(2, 1)
    adjacency = adjacency_of(ctx, 3, 0)
    assert adjacency.to_array().tolist() == [[0]]


def rank_route_mismatch(ctx, subs, adjacency):
    # first (i, j) where the adjacency disagrees with stacked-rank intersection
    entries = adjacency.to_array()
    for i in range(len(subs)):
        for j in range(len(subs)):
            expected = 1 if i != j and intersection_dim(ctx, subs[i], subs[j]) == 0 else 0
            if entries[i, j] != expected:
                return i, j
    return None


@pytest.mark.parametrize("v,k,q", [(4, 2, 2), (2, 1, 3), (4, 2, 3), (3, 1, 4), (2, 1, 9), (3, 1, 8), (2, 1, 27)])
def test_adjacency_agrees_with_rank_route(v, k, q):
    # the point-incidence product must match stacked-rank intersection
    ctx = field_of_order(q)
    subs = enumerate_subspaces(ctx, v, k)
    assert rank_route_mismatch(ctx, subs, build_adjacency(subs, ctx)) is None


@pytest.mark.parametrize("v,k,q", [(4, 2, 3), (3, 2, 4), (3, 1, 8), (4, 0, 2)])
def test_point_codes_are_the_canonical_points(v, k, q):
    ctx = field_of_order(q)
    points_per_vertex = int(gauss(k, 1).evaluate(q))
    subs = enumerate_subspaces(ctx, v, k)
    codes = oracle._point_codes(ctx, subs)
    assert codes.shape == (len(subs), points_per_vertex) and codes.dtype == np.int64
    for s, row in zip(subs, codes.tolist()):
        assert len(set(row)) == points_per_vertex
        for code in row:
            vec = [code // q**t % q for t in range(v)]
            assert next(x for x in vec if x) == 1
            assert gf_rank(ctx, [*s.tolist(), vec]) == k  # the point lies in s


def test_dropped_point_is_caught(monkeypatch, capsys):
    # negative control for the incidence: vertex 0 loses one of its points
    # (replaced by a repeat of another), so it looks adjacent to the lines
    # through that point; the honest generators then no longer carry the
    # points of every vertex to those of its image, and the CLI reports that
    # as a verification failure
    ctx = make_field(2, 1)
    subs = enumerate_subspaces(ctx, 4, 2)
    honest = oracle._point_codes
    automorphisms = vertex_automorphisms(Incidence(subs, ctx))

    def lossy(ctx, bases):
        codes = honest(ctx, bases)
        codes[0, 0] = codes[0, 1]
        return codes

    monkeypatch.setattr(oracle, "_point_codes", lossy)
    assert rank_route_mismatch(ctx, subs, build_adjacency(subs, ctx)) is not None
    with pytest.raises(InvariantError, match="does not carry the 1-subspaces of vertex"):
        certify_spectrum(Incidence(subs, ctx), spectrum_table(4, 2, 2), automorphisms)
    monkeypatch.setattr(cli, "vertex_automorphisms", lambda graph: automorphisms)
    assert_verification_failure(capsys, "4", "2", "2")


def test_a_wrong_inverse_table_is_caught(monkeypatch, capsys):
    # negative control for the rescaling of the generators' images: with the
    # identity as the inverse table of GF(5), a point whose image leads with
    # 2 is multiplied by 2 rather than 3, so the image is no point and the
    # CLI reports a verification failure
    wrong = oracle._FieldArrays(field_of_order(5))
    wrong.inverse = np.arange(5)
    monkeypatch.setattr(oracle, "_field_arrays", lambda ctx: wrong)
    assert assert_verification_failure(capsys, "4", "2", "5").endswith(" to a point set that is no vertex\n")


def assert_verification_failure(capsys, *argv):
    # exit 1 with one error line, no traceback and no report
    assert main(["verify", "spectrum", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


def _not_a_permutation(graph):
    return [Automorphism(np.zeros(graph.n, dtype=np.int64), vertex_automorphisms(graph)[0].points)]


def _swap_vertices_0_and_1(graph):
    # sigma swaps two vertices and fixes everything else
    sigma = np.arange(graph.n)
    sigma[[0, 1]] = 1, 0
    return [Automorphism(sigma, np.arange(len(graph.points)))]


def _fixes_vertex_0_and_swaps_two_others(graph):
    # the honest generators and one more that fixes vertex 0 and swaps
    # vertices 1 and 2: it would join them in one orbit of the quotient
    sigma = np.arange(graph.n)
    sigma[[1, 2]] = 2, 1
    return [*vertex_automorphisms(graph), Automorphism(sigma, np.arange(len(graph.points)))]


def _tau_of_the_wrong_length(graph):
    # the honest generators, the first one's tau short of its last point
    first, *rest = vertex_automorphisms(graph)
    return [Automorphism(first.vertices, first.points[:-1]), *rest]


@pytest.mark.parametrize("v,k,q,bad,message", [
    pytest.param(4, 2, 2, _not_a_permutation, "is not a permutation", id="not-a-permutation"),
    pytest.param(4, 2, 2, _swap_vertices_0_and_1, "does not carry the 1-subspaces of vertex 0 to those of vertex 1",
                 id="swap-two-vertices"),
    # the cyclic shift and the shift within each block of 2 coordinates:
    # the dihedral group of the square 0123 carries span(e_0, e_1) to its 4 edges
    pytest.param(4, 2, 2, lambda graph: vertex_automorphisms(graph)[:2], "to 4 of 35 vertices",
                 id="coordinate-permutations-alone"),
    # only c = 1: coordinate permutations and transvections over GF(2) carry
    # span(e_0, e_1) only to the 35 planes defined over GF(2)
    pytest.param(4, 2, 4, lambda graph: vertex_automorphisms(graph)[:4], "to 35 of 357 vertices",
                 id="gf4-without-the-transvection-by-x"),
    # qK(6,3) has v = 2k, so its honest generators are six, the last the shift of coordinates 0..2 alone
    pytest.param(6, 3, 2, _fixes_vertex_0_and_swaps_two_others,
                 "automorphism 6 does not carry the 1-subspaces of vertex 1 to those of vertex 2",
                 id="fixes-vertex-0-and-swaps-two-others"),
    pytest.param(4, 2, 2, _tau_of_the_wrong_length, "automorphism 0 is not a permutation of the 15 1-subspaces",
                 id="tau-of-the-wrong-length"),
])
def test_unchecked_automorphisms_are_refused(monkeypatch, capsys, v, k, q, bad, message):
    graph = Incidence(enumerate_subspaces(field_of_order(q), v, k), field_of_order(q))
    with pytest.raises(InvariantError, match=message):
        certify_spectrum(graph, spectrum_table(v, k, q), bad(graph))
    monkeypatch.setattr(cli, "vertex_automorphisms", bad)
    assert_verification_failure(capsys, str(v), str(k), str(q))


def test_the_single_vertex_of_qk_v_0_is_certified_with_eigenvalue_0():
    # qK(3,0) is the zero subspace alone, and A = [0] (no loop): the
    # eigenvalue 0 is certified, and 1 leaves the residual A - I = [-1]
    ctx = make_field(2, 1)
    graph = Incidence(enumerate_subspaces(ctx, 3, 0), ctx)
    results = [certify_spectrum(graph, SpectrumTable(v=3, k=0, q=2, entries=(SpectrumEntry(0, lam, 1),)),
                                vertex_automorphisms(graph)) for lam in (0, 1)]
    assert results[0].certified and results[0].moments == [1] and results[0].degree == 0
    assert not results[1].certified and results[1].residual_entry == (0, 0, -1)
    assert results[1].moments_ok  # tr(A^0) = 1 whatever the eigenvalue


def test_an_image_that_is_no_vertex_is_refused():
    # without vertex 0, some generator maps a vertex onto the missing one
    ctx = make_field(2, 1)
    subs = enumerate_subspaces(ctx, 4, 2)
    with pytest.raises(InvariantError, match="to a point set that is no vertex"):
        vertex_automorphisms(Incidence(subs[1:], ctx))


@pytest.mark.parametrize("v,k,q", [(4, 2, 2), (3, 1, 4), (4, 2, 4), (3, 2, 9), (5, 2, 3)])
def test_automorphisms_are_the_generators_action(v, k, q):
    # sigma[i] spans the image of basis i under the generator, and tau[p] the
    # image of point p, applied by field arithmetic and compared by rank
    ctx = field_of_order(q)
    subs = enumerate_subspaces(ctx, v, k)
    graph = Incidence(subs, ctx)
    points = [[code // q**t % q for t in range(v)] for code in graph.points.tolist()]
    blocks = [range(k), range(k, v)]  # each generator but the shift acts on both at once

    def within(x, action):
        y = list(x)
        for block in blocks:
            if len(block) >= 2:
                action(y, block)
        return y

    def shift(y, block):
        y[block[0] : block[-1] + 1] = [y[block[-1]], *y[block[0] : block[-1]]]

    def swap(y, block):
        y[block[0]], y[block[1]] = y[block[1]], y[block[0]]

    def transvection(c):
        def action(y, block):
            y[block[1]] = ctx.add(y[block[1]], ctx.mul(c, y[block[0]]))
        return action

    generators = [lambda x: [x[-1], *x[:-1]], lambda x: within(x, shift)]
    generators += [lambda x: within(x, swap)] if max(k, v - k) >= 3 else []
    for c in [ctx.p**i for i in range(ctx.e)]:
        generators += [lambda x, c=c: within(x, transvection(c))] if max(k, v - k) >= 2 else []
        generators += [lambda x, c=c: [ctx.add(x[0], ctx.mul(c, x[k])), *x[1:]]]
    generators += [lambda x: [ctx.mul(2, x[0]), *x[1:]]] if ctx.p > 2 else []
    generators += [lambda x: [x[k - 1], *x[: k - 1], *x[k:]]] if v == 2 * k >= 4 else []  # block 0's shift alone
    automorphisms = vertex_automorphisms(graph)
    assert len(automorphisms) == len(generators)
    assert [int(a.vertices[0]) == 0 for a in automorphisms] == [False] + [True] * (len(generators) - 1)
    for g, automorphism in zip(generators, automorphisms):
        sigma, tau = automorphism.vertices, automorphism.points
        assert sorted(sigma.tolist()) == list(range(len(subs)))
        for basis, image in zip(subs.tolist(), sigma.tolist()):
            assert gf_rank(ctx, [*map(g, basis), *subs[image].tolist()]) == k
        for point, image in zip(points, tau.tolist()):
            assert gf_rank(ctx, [g(point), points[image]]) == 1


@pytest.mark.parametrize("v,k,q", [(5, 3, 2), (6, 4, 2), (5, 3, 3), (4, 0, 3)])
def test_incidence_lists_the_subspaces_of_each_vertex(v, k, q):
    # members[x] are the [k 1]_q distinct 1-subspaces of vertex x, sorted:
    # each lies in x and together they span it, by rank
    ctx = field_of_order(q)
    subs = enumerate_subspaces(ctx, v, k)
    graph = Incidence(subs, ctx)
    points = [[code // q**t % q for t in range(v)] for code in graph.points.tolist()]
    assert len(points) == int(gauss(v, 1).evaluate(q))
    assert graph.members.shape == (len(subs), int(gauss(k, 1).evaluate(q)))
    for basis, ids in zip(subs.tolist()[::7], graph.members.tolist()[::7]):
        assert ids == sorted(set(ids))
        assert gf_rank(ctx, [points[p] for p in ids]) == k
        for p in ids:
            assert gf_rank(ctx, [*basis, points[p]]) == k


def test_regularity_matches_predicted_degree():
    for v, k, q in [(4, 2, 2), (5, 2, 2), (2, 1, 5), (4, 2, 3)]:
        ctx = field_of_order(q)
        adjacency = adjacency_of(ctx, v, k)
        degree = gauss(v - k, k).shift(k * k).evaluate(q)
        assert set(adjacency.row_sums()) == {int(degree)}


def test_certify_qk_4_2_2():
    adjacency, automorphisms = graph_of(make_field(2, 1), 4, 2)
    result = certify_spectrum(adjacency, spectrum_table(4, 2, 2), automorphisms)
    assert result.certified
    assert result.annihilation_ok and result.moments_ok
    assert result.moments == [35, 0, 560]
    assert result.vertex_count == 35 and result.degree == 16
    assert result.certified_multiplicities == [1, 14, 20]
    assert result.offending_moments == [] and result.residual_entry is None


def test_certify_triangle():
    adjacency, automorphisms = graph_of(make_field(2, 1), 2, 1)
    result = certify_spectrum(adjacency, spectrum_table(2, 1, 2), automorphisms)
    assert result.certified
    assert result.predicted_eigenvalues == [2, -1]
    assert result.predicted_multiplicities == [1, 2]


@pytest.mark.parametrize("v,k,q", [(2, 1, 3), (2, 1, 4), (2, 1, 5), (5, 2, 2), (4, 2, 3)])
def test_certify_more_cases(v, k, q):
    # qK(2,1) is complete on q+1 vertices: distinct lines of a plane meet trivially
    adjacency, automorphisms = graph_of(field_of_order(q), v, k)
    result = certify_spectrum(adjacency, spectrum_table(v, k, q), automorphisms)
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
    adjacency, automorphisms = graph_of(make_field(2, 1), 4, 2)
    wrong = _tweaked(spectrum_table(4, 2, 2), j=1, d_mult=-1)  # 13 instead of 14
    result = certify_spectrum(adjacency, wrong, automorphisms)
    assert not result.moments_ok
    assert not result.certified
    assert any(m == 1 and expected == 4 for m, expected, _ in result.offending_moments)


def test_certify_detects_wrong_eigenvalue():
    adjacency, automorphisms = graph_of(make_field(2, 1), 4, 2)
    wrong = _tweaked(spectrum_table(4, 2, 2), j=2, d_eig=1)  # 3 instead of 2
    result = certify_spectrum(adjacency, wrong, automorphisms)
    assert not result.annihilation_ok
    assert result.residual_entry is not None
    assert not result.certified


@pytest.fixture(scope="module")
def qk_6_3_2():
    return graph_of(make_field(2, 1), 6, 3)


def _perturbations(table):
    # every +-1 change of one eigenvalue or one multiplicity
    for e in table.entries:
        for d in (-1, 1):
            yield f"eigenvalue {e.j} {d:+d}", _tweaked(table, e.j, d_eig=d)
            yield f"multiplicity {e.j} {d:+d}", _tweaked(table, e.j, d_mult=d)


def test_certify_qk_6_3_2(qk_6_3_2):
    # k = 3: four eigenvalues
    adjacency, automorphisms = qk_6_3_2
    result = certify_spectrum(adjacency, spectrum_table(6, 3, 2), automorphisms)
    assert result.certified
    assert result.vertex_count == 1395 and result.degree == 512
    assert result.predicted_eigenvalues == [512, -64, 16, -8]
    assert result.moments == [1395, 0, 714240, 119992320]
    assert result.certified_multiplicities == [1, 62, 588, 744]


def test_certify_qk_6_3_2_negative_controls(qk_6_3_2):
    adjacency, automorphisms = qk_6_3_2
    for label, wrong in _perturbations(spectrum_table(6, 3, 2)):
        if 0 in wrong.multiplicities():
            with pytest.raises(ValueError, match="must be positive"):  # the eigenvalue 512 has multiplicity 1
                certify_spectrum(adjacency, wrong, automorphisms)
            continue
        result = certify_spectrum(adjacency, wrong, automorphisms)
        assert not result.certified, label
        if label.startswith("eigenvalue"):
            assert not result.annihilation_ok and result.residual_entry is not None, label
        else:
            assert not result.moments_ok and result.offending_moments[0][0] == 0, label


def sequential_first_nonzero(adjacency, eigenvalues):
    # row-major first nonzero entry of prod_j (A - lambda_j I), formed row by
    # row in plain numpy object arrays (Python ints), independent of IntMatrix
    # and of any symmetry: row i of the product is e_i (A - lambda_1 I) (A - lambda_2 I) ...
    a = adjacency.astype(np.int64).astype(object)
    for i in range(len(a)):
        row = np.zeros(len(a), dtype=object)
        row[i] = 1
        for lam in eigenvalues:
            row = row.dot(a) - lam * row
        nonzero = np.flatnonzero(row)
        if nonzero.size:
            return i, int(nonzero[0]), row[nonzero[0]]
    return None


def naive_traces(adjacency, k):
    # tr(A^m) for m = 0..k from powers of A in plain numpy object arrays
    a = np.array([[int(x) for x in row] for row in adjacency.tolist()], dtype=object)
    power, traces = a, [len(a)]
    for m in range(1, k + 1):
        traces.append(int(power.trace()))
        power = power.dot(a) if m < k else None
    return traces


@pytest.mark.parametrize("eigenvalues", [[2, -1], [-1, 2], [2, 1], [3, -1], [0, 5], [2], [-1], [7]])
def test_pair_of_linear_factors_is_one_quadratic_factor(eigenvalues):
    # k = 1 and a single eigenvalue: P(A) e_0 combines A e_0 and e_0 with the
    # coefficients of (x - a)(x - b), or of x - lam; qK(2,1) over GF(2) is
    # the triangle, with eigenvalues 2 and -1
    ctx = make_field(2, 1)
    graph, automorphisms = graph_of(ctx, 2, 1)
    table = SpectrumTable(v=2, k=len(eigenvalues) - 1, q=2,
                          entries=tuple(SpectrumEntry(j, lam, 1) for j, lam in enumerate(eigenvalues)))
    expected = sequential_first_nonzero(adjacency_of(ctx, 2, 1).to_array(), eigenvalues)
    assert certify_spectrum(graph, table, automorphisms).residual_entry == expected
    assert (expected is None) == (sorted(eigenvalues) == [-1, 2])


@pytest.mark.parametrize("v,k,q", [(4, 2, 2), (4, 2, 3), (5, 2, 2), (2, 1, 3), (3, 1, 4), (4, 2, 4)])
def test_residual_entry_matches_the_sequential_product(v, k, q):
    # every honest and +-1 table of the cases with n <= 400: the column
    # certificate reports the moments and the residual entry that the
    # symmetry-free references give (a multiplicity of 0 is refused instead)
    graph, automorphisms = graph_of(field_of_order(q), v, k)
    adjacency = adjacency_of(field_of_order(q), v, k)
    table = spectrum_table(v, k, q)
    traces = naive_traces(adjacency.to_array(), k)
    references = {}  # by eigenvalues: the honest and multiplicity tables share one zero product
    for label, wrong in [("honest", table), *_perturbations(table)]:
        if 0 in wrong.multiplicities():
            continue
        eigenvalues = tuple(int(lam) for lam in wrong.eigenvalues())
        if eigenvalues not in references:
            references[eigenvalues] = sequential_first_nonzero(adjacency.to_array(), eigenvalues)
        expected = references[eigenvalues]
        assert (expected is None) == label.startswith(("honest", "multiplicity")), label
        result = certify_spectrum(graph, wrong, automorphisms)
        assert result.residual_entry == expected, label
        assert result.moments == traces, label


def hypercube(d):
    # Q_d: vertices 0 .. 2^d - 1, adjacent when they differ in one bit
    vertices = np.arange(2**d)
    xor = vertices[:, None] ^ vertices[None, :]
    return ((xor & (xor - 1)) == 0).astype(np.int64) - np.eye(2**d, dtype=np.int64)


def krylov_column(adjacency, steps):
    # e_0, A e_0, ..., A^steps e_0 in plain numpy object arrays (Python ints)
    a = np.array(adjacency.tolist(), dtype=object)
    column = [np.array([1] + [0] * (len(a) - 1), dtype=object)]
    for _ in range(steps):
        column.append(a.dot(column[-1]))
    return column


def hypercube_table(d):
    # the spectrum of Q_d: d - 2j with multiplicity C(d, j), j = 0 .. d
    entries = tuple(SpectrumEntry(j, d - 2 * j, comb(d, j)) for j in range(d + 1))
    return SpectrumTable(v=d, k=d, q=2, entries=entries)


@pytest.mark.parametrize("d", range(7))
def test_certify_hypercube_through_every_factor_count(d):
    # the column helper on Q_d with B = A, one vertex per orbit (Q_d is
    # vertex-transitive, so its column 0 certifies it): d + 1 eigenvalues,
    # so P has degree 1 (d = 0) up to 7, and the moments reach A^6 e_0;
    # every honest and +-1 table matches the references
    adjacency = hypercube(d)
    traces = naive_traces(adjacency, d)
    result = oracle._column_certificate(hypercube_table(d), adjacency.tolist(), 2**d, range(2**d))
    assert result.certified and result.certified_multiplicities == [e.multiplicity for e in hypercube_table(d).entries]
    assert result.moments == traces and result.degree == d
    for label, wrong in _perturbations(hypercube_table(d)):
        if 0 in wrong.multiplicities():
            continue
        result = oracle._column_certificate(wrong, adjacency.tolist(), 2**d, range(2**d))
        assert not result.certified, label
        assert result.moments == traces, label
        if label.startswith("eigenvalue"):
            assert result.residual_entry == sequential_first_nonzero(
                adjacency, [int(lam) for lam in wrong.eigenvalues()]), label
        else:
            assert not result.moments_ok, label


@pytest.mark.parametrize("lam,dtype", [(2**5, np.float32), (2**12, np.float64), (2**22, np.int64), (2**40, object)])
def test_column_pass_is_exact_in_every_dtype(lam, dtype):
    # wrong eigenvalues +-lam of Q_4: P(A) e_0, bounded by 6400 (16 + lam)^2,
    # needs the numpy dtype named (object: beyond int64) to be exact, and
    # the column helper's Python ints give the symmetry-free reference's
    # residual at each of those sizes
    adjacency = hypercube(4)
    eigenvalues = [4, lam, 0, -lam, -4]
    table = SpectrumTable(v=4, k=4, q=2, entries=tuple(SpectrumEntry(j, x, 1) for j, x in enumerate(eigenvalues)))
    result = oracle._column_certificate(table, adjacency.tolist(), 16, range(16))
    assert result.residual_entry == sequential_first_nonzero(adjacency, eigenvalues)
    assert type(result.residual_entry[2]) is int
    assert result.moments == naive_traces(adjacency, 4)
    assert intmatrix._dtype(6400 * (16 + lam) ** 2) is dtype


@pytest.mark.parametrize("k,top,dtype", [
    (2, 2**10, np.float32), (2, 2**11, np.float64), (2, 2**24, np.float64), (2, 2**25, np.int64), (2, 2**30, object),
    (3, 2**6, np.float32), (3, 2**12, np.float64), (3, 2**17, np.int64), (3, 2**20, object),
    (4, 2**4, np.float32), (4, 2**5, np.float64), (4, 2**13, np.int64), (4, 2**15, object),
    (5, 2**8, np.float64), (5, 2**10, np.int64), (5, 2**12, object),
    (6, 2**8, np.int64), (6, 2**9, object), (6, 2**40, object),
])
def test_moments_are_exact_in_every_dtype(k, top, dtype):
    # the column helper on a circulant symmetric 3 x 3 matrix with top on
    # the diagonal (vertex-transitive under the rotation, whose stabiliser
    # of 0 is trivial: B = A), entries up to 2^40; A^k e_0, bounded by
    # (3 top)^k, needs the numpy dtype named to be exact, on either side of
    # a tier boundary; the moments n (A^m)_00 are compared with naive traces
    off = random.Random(k).randint(-top, top)
    rows = [[top if i == j else off for j in range(3)] for i in range(3)]
    table = SpectrumTable(v=3, k=k, q=2, entries=tuple(SpectrumEntry(j, j, 1) for j in range(k + 1)))
    result = oracle._column_certificate(table, rows, 3, range(3))
    assert result.moments == naive_traces(np.array(rows, dtype=object), k)
    assert all(type(moment) is int for moment in result.moments)
    assert intmatrix._dtype((3 * top) ** k) is dtype


def lift(vector, orbit):
    # the vertex vector that is vector[O] on each orbit O
    return np.array(vector, dtype=object)[orbit]


def quotient_of(ctx, v, k):
    # the incidence, and the orbits and quotient of its checked generators
    graph, automorphisms = graph_of(ctx, v, k)
    return graph, oracle._quotient(graph, oracle._check_automorphisms(graph, automorphisms))


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64, object])
def test_operator_is_exact_in_every_dtype(dtype):
    # B y for y on the orbits of qK(6,3,2), its entries sized so that the
    # bound 512 max|y| of A lift(y) needs the numpy dtype named to be exact:
    # lift(B y) is the dense product in Python ints
    scale = {np.float32: 1, np.float64: 2**24 // 512, np.int64: 2**53 // 512, object: 2**63 // 512}[dtype]
    graph, (orbit, smallest, quotient) = quotient_of(make_field(2, 1), 6, 3)
    y = [scale + o for o in range(len(smallest))]
    assert intmatrix._dtype(512 * max(y)) is dtype
    adjacency = adjacency_of(make_field(2, 1), 6, 3).to_array().astype(np.int64).astype(object)
    product = [sum(b * x for b, x in zip(row, y)) for row in quotient]
    assert lift(product, orbit).tolist() == adjacency.dot(lift(y, orbit)).tolist()


@pytest.mark.parametrize("v,k,q", [(3, 1, 4), (4, 2, 3), (6, 3, 2), (6, 4, 2)])
def test_operator_columns_are_the_dense_adjacency(v, k, q):
    # the quotient against build_adjacency, the dense reference, for
    # k = 1..4: B e_O lifts to A 1_O, the sum of A's columns over orbit O,
    # and B^m e_O0 to A^m e_0 for m = 0..k+1; qK(6,4) over GF(2) is the null
    # graph, so B is 0
    ctx = field_of_order(q)
    graph, (orbit, smallest, quotient) = quotient_of(ctx, v, k)
    adjacency = adjacency_of(ctx, v, k).to_array().astype(np.int64).astype(object)
    assert smallest[0] == 0 and (orbit == 0).sum() == 1  # O_0 = {0}
    for o in range(len(smallest)):
        assert lift([row[o] for row in quotient], orbit).tolist() == adjacency.dot(orbit == o).tolist()
    y = [int(o == 0) for o in range(len(smallest))]
    for column in krylov_column(adjacency, k + 1):
        assert lift(y, orbit).tolist() == column.tolist()
        y = [sum(b * x for b, x in zip(row, y)) for row in quotient]
    assert (v >= 2 * k) == adjacency.any()


@pytest.mark.parametrize("v,k,q", [(4, 2, 2), (3, 1, 4), (5, 2, 3), (6, 3, 2), (4, 2, 4)])
def test_quotient_is_the_same_from_every_vertex_of_an_orbit(v, k, q):
    # the partition is equitable: row u of A meets each orbit as often for
    # every u of an orbit, not only for the smallest one, which B is read from
    graph, (orbit, smallest, quotient) = quotient_of(field_of_order(q), v, k)
    assert len(smallest) > 1 and smallest == sorted(smallest)
    rows = adjacency_rows(graph, np.arange(graph.n))
    for u in range(graph.n):
        assert np.bincount(orbit[rows[u]], minlength=len(smallest)).tolist() == quotient[orbit[u]], u


@pytest.mark.parametrize("v,k,q", [(4, 2, 2), (4, 2, 3), (4, 2, 4), (6, 3, 2), (8, 4, 2), (5, 2, 3), (7, 3, 2)])
def test_the_stabiliser_of_vertex_0_has_k_plus_1_orbits(v, k, q):
    # its elements keep dim(x & vertex 0), which takes the k + 1 values
    # 0..k for v >= 2k, so k + 1 orbits are as few as there can be; when
    # v = 2k the generators that act on both blocks at once leave more
    # (4 on qK(4,2) and 9 on qK(8,4) q=2) until block 0's shift alone joins them
    ctx = field_of_order(q)
    graph = Incidence(enumerate_subspaces(ctx, v, k, budget=210000), ctx)
    automorphisms = vertex_automorphisms(graph)
    _, smallest = oracle._orbits([a.vertices for a in automorphisms if a.vertices[0] == 0], graph.n)
    assert len(smallest) == k + 1


def incidence_entries(v, k, q):
    # n [k 1]_q: the ids the incidence holds, the points of each vertex
    return int(gauss(v, k).evaluate(q)) * int(gauss(k, 1).evaluate(q))


@pytest.mark.parametrize("v,k,q", [(6, 3, 2), (4, 2, 5), (3, 1, 31)])
def test_certification_memory_per_entry(v, k, q):
    # the certificate holds a gather of the incidence, the orbits and a row
    # of A at a time: at most 32 bytes per id of the incidence (about 17
    # measured for k >= 2, 26 for k = 1), far below the n^2 entries of A
    # (3 bytes per entry of A when it read A, 14 for the strip certificate)
    graph, automorphisms = graph_of(field_of_order(q), v, k)
    table = spectrum_table(v, k, q)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert certify_spectrum(graph, table, automorphisms).certified
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 32 * incidence_entries(v, k, q) < graph.n**2


def test_certification_memory_is_linear_through_the_cli(capsys):
    # verify spectrum 7 3 2, enumeration included: at most 128 bytes per id
    # of the incidence (about 107 measured, most of it the point codes),
    # 10.6 MB for its 11811 vertices, where A alone has n^2 = 139 million
    # entries (the dense certificate peaked at 700 MB)
    tracemalloc.start()
    try:
        assert main(["verify", "spectrum", "7", "3", "2", "--budget", "12000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "certified: yes" in capsys.readouterr().out
    assert peak <= 128 * incidence_entries(7, 3, 2) < 11811**2 // 5


def test_certify_rejects_degenerate_predictions():
    adjacency, automorphisms = graph_of(make_field(2, 1), 2, 1)
    table = spectrum_table(2, 1, 2)
    repeated = SpectrumTable(v=2, k=1, q=2, entries=(
        SpectrumEntry(0, 2, 1), SpectrumEntry(1, 2, 2)))
    with pytest.raises(ValueError):
        certify_spectrum(adjacency, repeated, automorphisms)
    with pytest.raises(ValueError):
        certify_spectrum(adjacency, spectrum_table(2, 1), automorphisms)  # symbolic table


def test_dump_files(tmp_path):
    ctx = make_field(2, 1)
    subs = enumerate_subspaces(ctx, 2, 1)
    graph = Incidence(subs, ctx)
    result = certify_spectrum(graph, spectrum_table(2, 1, 2), vertex_automorphisms(graph))

    vertex_path = tmp_path / "vertices.txt"
    dump_vertices(subs, vertex_path)
    assert vertex_path.read_text() == "1 0\n1 1\n0 1\n"

    adjacency_path = tmp_path / "adjacency.txt"
    dump_adjacency(graph.adjacency_strips(), adjacency_path)
    assert adjacency_path.read_text() == "0 1 1\n1 0 1\n1 1 0\n"

    import json
    cert_path = tmp_path / "certification.json"
    dump_certification(result, cert_path)
    payload = json.loads(cert_path.read_text())
    assert payload["schema"] == "qkneser.certification@1"
    assert payload["certified"] is True
    assert payload["vertex_count"] == 3


@pytest.mark.parametrize("rows", [[[0, 2], [2, 0]], [[0, -1], [-1, 0]], [[0, 10**30], [10**30, 0]]])
def test_dump_adjacency_rejects_entries_other_than_0_and_1(tmp_path, rows):
    with pytest.raises(ValueError):
        dump_adjacency([np.array(rows, dtype=object)], tmp_path / "adjacency.txt")


def test_dump_adjacency_single_vertex(tmp_path):
    # qK(3,0): the zero subspace alone
    path = tmp_path / "adjacency.txt"
    dump_adjacency(Incidence(enumerate_subspaces(make_field(2, 1), 3, 0), make_field(2, 1)).adjacency_strips(), path)
    assert path.read_bytes() == b"0\n"


def test_adjacency_strips_zero_their_own_stretch_of_the_diagonal():
    # qK(5,2) over GF(4), 5797 vertices, comes in strips of 2^18 // 5797 = 45 rows: each
    # zeroes its own diagonal entries and no other, so every row sum is the
    # degree q^4 [3 2]_q = 5376 (a wrong offset would zero an edge instead)
    graph = Incidence(enumerate_subspaces(field_of_order(4), 5, 2, budget=6000), field_of_order(4))
    starts, sums = [0], []
    for strip in graph.adjacency_strips():
        rows = np.arange(len(strip))
        assert not strip[rows, starts[-1] + rows].any()
        sums += strip.sum(axis=1).tolist()
        starts.append(starts[-1] + len(strip))
    assert len(starts) > 2 and set(sums) == {5376} and len(sums) == 5797


@pytest.mark.parametrize("v,k,q", [(3, 0, 2), (3, 1, 4), (4, 2, 3), (5, 3, 2)])
def test_dump_adjacency_is_the_rank_route(monkeypatch, tmp_path, v, k, q):
    # adjacency.txt against intersection_dim == 0 for k = 0..3 and n = 1, 21,
    # 130 and 155 (no multiple of 8), in one strip, in strips of a single
    # row and in strips of 13 rows (the last one shorter unless 13 divides n)
    ctx = field_of_order(q)
    subs = enumerate_subspaces(ctx, v, k)
    n = len(subs)
    meet = {(x, y): intersection_dim(ctx, subs[x], subs[y]) for x in range(n) for y in range(x + 1, n)}
    expected = "".join(" ".join("1" if meet.get((min(x, y), max(x, y))) == 0 else "0" for y in range(n)) + "\n"
                       for x in range(n))
    graph, path = Incidence(subs, ctx), tmp_path / "adjacency.txt"
    for entries, rows in ((oracle._STRIP_ENTRIES, n), (1, 1), (13 * n, 13)):
        monkeypatch.setattr(oracle, "_STRIP_ENTRIES", entries)
        assert [len(strip) for strip in graph.adjacency_strips()] == [min(rows, n - r) for r in range(0, n, rows)]
        dump_adjacency(graph.adjacency_strips(), path)
        assert path.read_text() == expected, entries


@pytest.mark.parametrize("v,k,q", [(5, 2, 4), (7, 3, 2)])
def test_dump_adjacency_memory_is_the_table_and_a_few_strips(v, k, q):
    # the dump holds the free-point table of every column, points * ceil(n / 8)
    # bytes (247 KB for qK(5,2) over GF(4), 187 KB for qK(7,3) over GF(2)),
    # and a few strips of 2^18 entries: about 1.5 MiB traced, where strips of
    # 2^22 entries, unpacked from bits packed along the rows, peaked at 20 MiB
    ctx = field_of_order(q)
    graph = Incidence(enumerate_subspaces(ctx, v, k, budget=12000), ctx)
    tracemalloc.start()
    try:
        dump_adjacency(graph.adjacency_strips(), os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_certify_reads_one_free_point_table_of_the_orbit_representatives(capsys, monkeypatch):
    # without --dump no table of every column is built: the certificate reads
    # the r = k + 1 rows of A it needs from one free-point table of their
    # columns, the smallest vertex of each orbit, ceil(r / 8) bytes per point
    tables, free_points = [], Incidence._free_points

    def recording(graph, columns):
        tables.append((columns.tolist(), free_points(graph, columns)))
        return tables[-1][1]

    monkeypatch.setattr(Incidence, "_free_points", recording)
    assert main(["verify", "spectrum", "5", "2", "4", "--budget", "6000"]) == 0
    assert "certified: yes" in capsys.readouterr().out
    [(columns, table)] = tables
    assert columns[0] == 0 and columns == sorted(columns) and len(columns) == 3
    assert table.shape == (341, 1) and table.dtype == np.uint8  # the 341 points of PG(4, 4)


@pytest.mark.parametrize("v,k,q,start,stop", [
    (3, 0, 2, 0, 1), (3, 1, 4, 5, 18), (4, 2, 3, 100, 130), (5, 2, 2, 150, 155), (6, 3, 2, 700, 713),
    (6, 4, 2, 640, 651),
])
def test_adjacency_rows_are_the_rank_route(v, k, q, start, stop):
    # rows start..stop-1 of A against intersection_dim == 0 for k = 0..4, in
    # blocks of 1, 5, 11, 13 and 30 rows (no multiple of 8) that cross the
    # diagonal, then as many rows in a shuffled order from anywhere in A;
    # qK(6,4) over GF(2) is the null graph
    ctx = field_of_order(q)
    subs = enumerate_subspaces(ctx, v, k)
    graph = Incidence(subs, ctx)
    for columns in (np.arange(start, stop), np.random.default_rng(start).permutation(len(subs))[: stop - start]):
        rows = adjacency_rows(graph, columns)
        assert rows.dtype == bool and rows.shape == (stop - start, len(subs))
        expected = [[x != y and intersection_dim(ctx, subs[x], subs[y]) == 0 for y in range(len(subs))]
                    for x in columns.tolist()]
        assert rows.tolist() == expected, columns


@pytest.mark.parametrize("v,k,q", [(4, 2, 2), (6, 3, 2), (4, 2, 5)])
def test_a_free_point_table_of_the_wrong_columns_fails_annihilation(capsys, monkeypatch, v, k, q):
    # negative control for the one table of the quotient's rows: with its
    # columns reversed, row u of B is read from another orbit's vertex, so
    # P(B) e_O0 is not zero and the report says so (exit 1, no traceback)
    free_points = Incidence._free_points
    monkeypatch.setattr(Incidence, "_free_points", lambda graph, columns: free_points(graph, columns[::-1]))
    assert main(["verify", "spectrum", str(v), str(k), str(q)]) == 1
    captured = capsys.readouterr()
    assert "annihilation: FAIL\n" in captured.out and captured.out.endswith("certified: NO\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("v,k,q", [
    (4, 1, 3), (3, 1, 8), (4, 2, 2), (6, 3, 3), (4, 2, 4), (4, 2, 9), (7, 3, 2), (6, 4, 2), (3, 2, 9),
    (5, 4, 3), (6, 3, 4),
])
def test_the_sorted_point_ids_at_the_key_positions_are_the_rref_rows(v, k, q):
    # prime and extension fields, k = 1 (s = [0]), v = 2k and v < 2k: at
    # s_i = sum of q^(k-1-j) over j < i, every vertex's sorted point ids are
    # the ids of its RREF rows, which a table indexed by code looks up
    ctx = field_of_order(q)
    subs = enumerate_subspaces(ctx, v, k, budget=400000)
    graph = Incidence(subs, ctx)
    positions = [sum(q ** (k - 1 - j) for j in range(i)) for i in range(k)]
    if (v, k, q) == (6, 3, 4):
        assert positions == [0, 16, 20]
    ids = np.full(q**v, -1)
    ids[enumerate_subspaces(ctx, v, 1)[:, 0] @ q ** np.arange(v)] = np.arange(len(graph.points))
    assert np.array_equal(graph.members[:, positions], ids[subs @ q ** np.arange(v)])


@pytest.mark.parametrize("v,k,q", [(6, 2, 2), (6, 3, 2), (4, 2, 4), (5, 3, 3)])
def test_lookup_finds_subspaces_by_their_rref_rows(v, k, q):
    ctx = field_of_order(q)
    graph = Incidence(enumerate_subspaces(ctx, v, k), ctx)
    members, base = graph.members, len(graph.points)
    shuffle = np.random.default_rng(0).permutation(len(members))
    assert oracle._lookup(members, q, k, base)(members[shuffle]).tolist() == shuffle.tolist()  # shuffled queries
    assert oracle._lookup(members[shuffle], q, k, base)(members).tolist() == np.argsort(shuffle).tolist()
    find = oracle._lookup(members[1:], q, k, base)
    assert find(members).tolist() == [-1, *range(len(members) - 1)]  # a missing row
    assert find(members[:0]).tolist() == []


def test_lookup_keys_reach_2_to_the_63_and_no_further():
    # ids of 511 points, the top key 511^7 - 1 < 2^63 read exactly; with 8
    # ids, as for the hyperplanes of F_2^9, the keys could overflow and the
    # library call is refused before any lookup
    rows = np.full((2, 127), 510)
    rows[0, 0] = 509
    assert oracle._lookup(rows, 2, 7, 511)(rows[::-1]).tolist() == [1, 0]
    ctx = make_field(2, 1)
    graph = Incidence(enumerate_subspaces(ctx, 9, 8), ctx)
    with pytest.raises(ValueError, match="keys of 8 point ids below 511 do not fit int64"):
        vertex_automorphisms(graph)


@pytest.mark.parametrize("v,k,q", [(4, 2, 2), (5, 2, 3), (4, 2, 4), (6, 3, 2)])
def test_a_point_set_with_a_vertex_s_key_alone_is_refused(monkeypatch, capsys, v, k, q):
    # negative control for the key: tau swaps the point at sorted position 1
    # of vertex 0 (no RREF row of it, since s_1 = q^(k-1) >= 2) with the next
    # point id, which is no point of vertex 0.  The image agrees with vertex
    # 0 at the key's positions alone, so _lookup returns vertex 0 for it; the
    # certificate compares whole rows and refuses it
    ctx = field_of_order(q)
    graph = Incidence(enumerate_subspaces(ctx, v, k), ctx)
    a = int(graph.members[0, 1])
    tau = np.arange(len(graph.points))
    tau[[a, a + 1]] = a + 1, a
    image = np.sort(tau[graph.members[:1]], axis=1)
    assert a + 1 not in graph.members[0] and image.tolist() != graph.members[:1].tolist()
    sigma = np.arange(graph.n)
    sigma[0] = oracle._lookup(graph.members, q, k, len(graph.points))(image)[0]
    assert sigma[0] == 0
    bad = [Automorphism(sigma, tau)]
    message = "automorphism 0 does not carry the 1-subspaces of vertex 0 to those of vertex 0"
    with pytest.raises(InvariantError, match=message):
        certify_spectrum(graph, spectrum_table(v, k, q), bad)
    monkeypatch.setattr(cli, "vertex_automorphisms", lambda graph: bad)
    assert message in assert_verification_failure(capsys, str(v), str(k), str(q))


def test_dump_vertices_of_the_zero_subspace(tmp_path):
    path = tmp_path / "vertices.txt"
    dump_vertices(enumerate_subspaces(make_field(2, 1), 3, 0), path)
    assert path.read_bytes() == b"\n"


@pytest.mark.parametrize("v,k,q", [(3, 2, 11), (3, 1, 16), (4, 2, 11), (2, 1, 16)])
def test_dump_vertices_is_the_joined_entries(tmp_path, v, k, q):
    # entries of one and two digits, against a join of Python strings
    subs = enumerate_subspaces(field_of_order(q), v, k, budget=20000)
    path = tmp_path / "vertices.txt"
    dump_vertices(subs, path)
    rows = subs.reshape(len(subs), -1).tolist()
    assert path.read_bytes() == "".join(" ".join(map(str, row)) + "\n" for row in rows).encode()


def test_extension_field_vertices_serialize_with_element_encodings():
    ctx = make_field(2, 2)  # GF(4): encodings 0..3 appear literally
    subs = enumerate_subspaces(ctx, 2, 1)
    assert len(subs) == 5
    flat = set(subs.ravel().tolist())
    assert flat == {0, 1, 2, 3}


def _gauss_jordan_moment_solve(eigenvalues, moments):
    # The solver the spectral-projector one replaced: V x = moments with
    # V[m][j] = lam_j^m, by Gauss-Jordan over the rationals; x when it is
    # nonnegative integers, else None.
    size = len(eigenvalues)
    rows = [[Fraction(lam**m) for lam in eigenvalues] + [Fraction(moments[m])] for m in range(size)]
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    solution = [rows[r][size] for r in range(size)]
    if any(x.denominator != 1 or x < 0 for x in solution):
        return None
    return [int(x) for x in solution]


@settings(max_examples=300, deadline=None)
@given(
    spectrum=st.lists(st.tuples(st.integers(-60, 60), st.integers(-3, 40)), min_size=1, max_size=6,
                      unique_by=lambda pair: pair[0]),
    perturbation=st.tuples(st.integers(0, 5), st.integers(-3, 3)),
)
def test_moment_solve_matches_gauss_jordan(spectrum, perturbation):
    # random distinct eigenvalues and multiplicities (some negative), with one
    # moment perturbed by up to 3 in many draws: both solvers must agree
    eigenvalues = [lam for lam, _ in spectrum]
    moments = [sum(mult * lam**m for lam, mult in spectrum) for m in range(len(spectrum))]
    m, delta = perturbation
    if m < len(moments):
        moments[m] += delta
    expected = _gauss_jordan_moment_solve(eigenvalues, moments)
    assert oracle._solve_moment_system(eigenvalues, moments) == expected
    if delta == 0 and all(mult >= 0 for _, mult in spectrum):
        assert expected == [mult for _, mult in spectrum]
