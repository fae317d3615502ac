"""Acceptance suite: one test per criterion, all exact (tolerance zero).

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  Every check here is an exact equality of Laurent polynomials,
integers, or rationals; there are no tolerances to tune.
"""

import csv
import io
import json

import pytest

from qkneser.cli import main
from qkneser.gf import field_of_order
from qkneser.identities import IDENTITY_IDS, GridBounds, run_grid
from qkneser.laurent import ZERO
from qkneser.oracle import Incidence, certify_spectrum, enumerate_subspaces, vertex_automorphisms
from qkneser.qbinom import gauss
from qkneser.spectrum import (
    SpectrumEntry,
    SpectrumTable,
    delsarte_eigenvalue,
    multiplicity,
    simple_eigenvalue,
    spectrum_table,
)

ORACLE_CASES = [(4, 2, 2), (5, 2, 2), (6, 2, 2), (4, 2, 3), (5, 2, 3), (4, 2, 4), (2, 1, 2), (2, 1, 3)]
COUNTING_CASES = ORACLE_CASES + [(2, 1, 9), (3, 1, 9)]  # q = 9 exercises the GF(3^2) path
FORM_GRID = [(v, k) for k in range(1, 5) for v in range(2 * k, 11)]

pytestmark = pytest.mark.usefixtures("no_matrix_products")  # the certificate forms no matrix product


def report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def graphs():
    built = {}
    for v, k, q in COUNTING_CASES:
        ctx = field_of_order(q)
        subspaces = enumerate_subspaces(ctx, v, k)
        graph = Incidence(subspaces, ctx)
        built[(v, k, q)] = (subspaces, graph, vertex_automorphisms(graph))
    return built


def test_criterion_1_identity_grids():
    # n in [-8, 12], i and a in [0, 8], all admissible (m, a, t) with m,a,t <= 10
    bounds = GridBounds(n_min=-8, n_max=12, i_min=0, i_max=8, mat_max=10)
    reports = [run_grid(identity, bounds) for identity in IDENTITY_IDS]
    total = sum(r.checked for r in reports)
    assert total > 1000  # several thousand instances in aggregate
    for r in reports:
        assert r.passed, (r.identity, r.failures[:3])
    report("criterion 1 (identity grids, exact over all q)", all(r.passed for r in reports))


def test_criterion_2_eigenvalue_form_agreement():
    ok = True
    for v, k in FORM_GRID:
        for j in range(k + 1):
            ok = ok and delsarte_eigenvalue(v, k, j) == simple_eigenvalue(v, k, j)
    report("criterion 2 (alternating-sum form == closed form, symbolically)", ok)


def test_criterion_3_symbolic_spectral_sums():
    ok = True
    for v, k in FORM_GRID:
        mult_sum = ZERO
        trace = ZERO
        second = ZERO
        for j in range(k + 1):
            lam = simple_eigenvalue(v, k, j)
            mult = multiplicity(v, k, j)
            mult_sum = mult_sum + mult
            trace = trace + mult * lam
            second = second + mult * lam * lam
        ok = ok and mult_sum == gauss(v, k)
        ok = ok and trace == ZERO
        ok = ok and second == gauss(v, k) * gauss(v - k, k).shift(k * k)
    report("criterion 3 (multiplicity sum, zero trace, second moment)", ok)


def test_criterion_4_oracle_certification(graphs):
    ok = True
    for v, k, q in ORACLE_CASES:
        _, graph, automorphisms = graphs[(v, k, q)]
        result = certify_spectrum(graph, spectrum_table(v, k, q), automorphisms)
        ok = ok and result.certified
        assert result.certified, (v, k, q, result.offending_moments, result.residual_entry)
    # spot-check the documented facts for qK(4,2) at q=2
    _, graph, automorphisms = graphs[(4, 2, 2)]
    result = certify_spectrum(graph, spectrum_table(4, 2, 2), automorphisms)
    assert result.vertex_count == 35
    assert result.predicted_eigenvalues == [16, -4, 2]
    assert result.predicted_multiplicities == [1, 14, 20]
    assert result.moments[2] == 560
    report("criterion 4 (brute-force spectrum certification)", ok)


def test_criterion_5_subspace_counting(graphs):
    ok = True
    for v, k, q in COUNTING_CASES:
        subspaces, *_ = graphs[(v, k, q)]
        formula = gauss(v, k).evaluate(q)
        ok = ok and len(subspaces) == formula
        assert len(subspaces) == formula, (v, k, q)
    report("criterion 5 (enumeration count == evaluated coefficient)", ok)


def _tweaked(table, index, d_eig=0, d_mult=0):
    entries = []
    for e in table.entries:
        if e.j == index:
            entries.append(SpectrumEntry(e.j, e.eigenvalue + d_eig, e.multiplicity + d_mult))
        else:
            entries.append(e)
    return SpectrumTable(v=table.v, k=table.k, q=table.q, entries=tuple(entries))


def _detected(graph, bad_table) -> bool:
    # a perturbed prediction must either fail certification or be rejected
    # outright (e.g. a multiplicity perturbed down to zero)
    _, incidence, automorphisms = graph
    try:
        return not certify_spectrum(incidence, bad_table, automorphisms).certified
    except ValueError:
        return True


def test_criterion_6_negative_controls(graphs):
    graph = graphs[(4, 2, 2)]
    table = spectrum_table(4, 2, 2)
    ok = True
    # every eigenvalue and multiplicity perturbation, both directions, must fail
    for j in range(table.k + 1):
        for delta in (1, -1):
            assert _detected(graph, _tweaked(table, j, d_eig=delta)), (j, delta)
            assert _detected(graph, _tweaked(table, j, d_mult=delta)), (j, delta)
    # every identity must fail under an exponent off by one in its RHS
    small = GridBounds(n_min=-3, n_max=4, i_min=0, i_max=3, mat_max=4)
    for identity in IDENTITY_IDS:
        sabotaged = run_grid(identity, small, sabotage=True)
        ok = ok and not sabotaged.passed
        assert not sabotaged.passed, identity
    report("criterion 6 (negative controls all detected)", ok)


def test_criterion_7_cli_contract(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    ok = True

    code, out = run("gauss", "4", "2", "--format", "json")
    ok = ok and code == 0
    payload = json.loads(out)
    ok = ok and payload["value"] == "q^4 + q^3 + 2*q^2 + q + 1"

    code, out = run("eigenvalues", "4", "2", "--q", "2", "--format", "json")
    ok = ok and code == 0
    payload = json.loads(out)
    ok = ok and set(payload) == {"v", "k", "q", "entries"}
    ok = ok and [e["eigenvalue"] for e in payload["entries"]] == [16, -4, 2]

    code, out = run("eigenvalues", "4", "2", "--q", "2", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    ok = ok and [int(r["multiplicity"]) for r in rows] == [1, 14, 20]

    code, _ = run("verify", "identities", "--max", "8")
    ok = ok and code == 0

    code, _ = run("verify", "spectrum", "4", "2", "2")
    ok = ok and code == 0

    code, out = run("count-subspaces", "4", "2", "2")
    ok = ok and code == 0 and out == "35 = 35\n"

    report("criterion 7 (CLI contract, fresh-build exit codes)", ok)
