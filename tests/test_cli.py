"""CLI contract: the five commands, exit codes, and round-trippable output."""

import collections
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkneser import cli, oracle, qbinom, spectrum
from qkneser.cli import main
from qkneser.oracle import predicted_vertex_count

pytestmark = pytest.mark.usefixtures("no_matrix_products")  # the certificate forms no matrix product


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gauss_symbolic(capsys):
    code, out, _ = run(capsys, "gauss", "4", "2")
    assert code == 0
    assert out == "q^4 + q^3 + 2*q^2 + q + 1\n"


def test_gauss_evaluated(capsys):
    code, out, _ = run(capsys, "gauss", "4", "2", "--q", "2")
    assert (code, out) == (0, "35\n")


def test_gauss_negative_top(capsys):
    code, out, _ = run(capsys, "gauss", "-1", "1")
    assert (code, out) == (0, "-q^-1\n")
    code, out, _ = run(capsys, "gauss", "-2", "1", "--q", "2")
    assert (code, out) == (0, "-3/4\n")


def test_gauss_negative_top_golden(capsys):
    # captured before LaurentPoly became dense: the reflection of [9 3] by q^-24
    code, out, _ = run(capsys, "gauss", "-7", "3")
    assert (code, out) == (0, "-q^-6 - q^-7 - 2*q^-8 - 3*q^-9 - 4*q^-10 - 5*q^-11 - 7*q^-12 - 7*q^-13"
                              " - 8*q^-14 - 8*q^-15 - 8*q^-16 - 7*q^-17 - 7*q^-18 - 5*q^-19 - 4*q^-20"
                              " - 3*q^-21 - 2*q^-22 - q^-23 - q^-24\n")
    assert run(capsys, "gauss", "-7", "3", "--q", "5") == (0, "-5007031143556/59604644775390625\n", "")


def test_eigenvalues_golden_sha256(capsys):
    # sha256 of the stdout as the sparse dict-based LaurentPoly printed it;
    # the Delsarte products here need Kronecker slots wider than 8 bytes
    code, out, _ = run(capsys, "eigenvalues", "100", "25", "--form", "both")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "cccf7777ee156376ae1bb1f696bbdbcbdeb0ec1f3e4c87e91dc3c2362fbbb357"


def test_gauss_accepts_any_integer_point(capsys):
    # polynomial identities hold for all q, so no prime-power check here
    code, out, _ = run(capsys, "gauss", "4", "2", "--q", "6")
    assert code == 0
    assert out.strip() == str((6**4 - 1) * (6**3 - 1) // ((6**2 - 1) * (6 - 1)))


def test_gauss_json_and_csv_round_trip(capsys):
    code, out, _ = run(capsys, "gauss", "4", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"schema": "qkneser.gauss@1", "n": 4, "i": 2, "q": None,
                       "value": "q^4 + q^3 + 2*q^2 + q + 1"}
    code, out, _ = run(capsys, "gauss", "4", "2", "--q", "3", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows == [{"n": "4", "i": "2", "q": "3", "value": "130"}]


def test_gauss_usage_errors(capsys):
    code, _, err = run(capsys, "gauss", "4", "-2")
    assert code == 2 and "nonnegative" in err
    code, _, err = run(capsys, "gauss", "4", "2", "--q", "1")
    assert code == 2


def test_eigenvalues_evaluated_table(capsys):
    code, out, _ = run(capsys, "eigenvalues", "4", "2", "--q", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["j", "eigenvalue", "multiplicity"]
    assert [line.split() for line in lines[1:]] == [
        ["0", "16", "1"], ["1", "-4", "14"], ["2", "2", "20"]]


def test_eigenvalues_symbolic_json_schema(capsys):
    code, out, _ = run(capsys, "eigenvalues", "4", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["v"] == 4 and payload["k"] == 2 and payload["q"] is None
    assert payload["entries"][0] == {"j": 0, "eigenvalue": "q^4", "multiplicity": "1"}
    assert payload["entries"][1]["eigenvalue"] == "-q^2"


def test_eigenvalues_json_round_trip_evaluated(capsys):
    code, out, _ = run(capsys, "eigenvalues", "5", "2", "--q", "2", "--format", "json")
    payload = json.loads(out)
    assert [(e["j"], e["eigenvalue"], e["multiplicity"]) for e in payload["entries"]] == [
        (0, 112, 1), (1, -12, 30), (2, 2, 124)]


def test_eigenvalues_csv_round_trip(capsys):
    code, out, _ = run(capsys, "eigenvalues", "4", "2", "--q", "3", "--format", "csv")
    assert out.startswith("j,eigenvalue,multiplicity\n")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(int(r["j"]), int(r["eigenvalue"]), int(r["multiplicity"])) for r in rows] == [
        (0, 81, 1), (1, -9, 39), (2, 3, 90)]


def test_eigenvalues_both_forms_agree(capsys):
    code, out, _ = run(capsys, "eigenvalues", "6", "2", "--form", "both", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for entry in payload["entries"]:
        assert entry["eigenvalue"] == entry["eigenvalue_delsarte"]


def _delsarte_times_q(v, k, j, terms=None):
    return spectrum.delsarte_eigenvalue(v, k, j, terms).shift(1)


def _delsarte_plus_one(v, k, j, terms=None):
    return spectrum.delsarte_eigenvalue(v, k, j, terms) + 1


@pytest.mark.parametrize("wrong", [_delsarte_times_q, _delsarte_plus_one])
@pytest.mark.parametrize("point", [[], ["--q", "3"]], ids=["symbolic", "q3"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_eigenvalues_both_forms_disagreement_exits_1(capsys, monkeypatch, wrong, point, fmt):
    # negative control: a Delsarte form that is off must fail the comparison
    # at every j, before anything is printed
    monkeypatch.setattr(cli, "delsarte_eigenvalue", wrong)
    code, out, err = run(capsys, "eigenvalues", "4", "2", "--form", "both", *point, "--format", fmt)
    assert (code, out, err) == (1, "", "error: eigenvalue forms disagree at j=[0, 1, 2]\n")


def test_eigenvalues_delsarte_form(capsys):
    code, out, _ = run(capsys, "eigenvalues", "4", "2", "--form", "delsarte", "--q", "2", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["eigenvalue"]) for r in rows] == [16, -4, 2]


def test_eigenvalues_null_graph_exit_2(capsys):
    code, _, err = run(capsys, "eigenvalues", "3", "2", "--q", "2")
    assert code == 2
    assert "null graph" in err


def test_eigenvalues_non_prime_power_exit_2(capsys):
    code, _, err = run(capsys, "eigenvalues", "4", "2", "--q", "6")
    assert code == 2
    assert "prime power" in err


def test_verify_identities_default_and_small(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--max", "8")
    assert code == 0
    assert out.count("ok") == 6 and "FAIL" not in out
    code, out, _ = run(capsys, "verify", "identities", "--max", "1")
    assert code == 0


def test_verify_identities_json(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--max", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "qkneser.identity-report@1"
    assert payload["passed"] is True
    assert [r["identity"] for r in payload["reports"]] == [
        "pascal", "lemma1", "lemma2", "lemma3", "theorem2", "corollary1"]
    assert all(r["failures"] == [] for r in payload["reports"])


def test_verify_identities_sabotage_exits_1_with_counterexample(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--max", "2", "--sabotage")
    assert code == 1
    assert "FAIL" in out
    assert "!=" in out  # counterexample with both renderings


# Full stdout of two sweeps, pinned so that a refactor of the identity
# table cannot change a byte of it; the first is the README example.
IDENTITIES_MAX_8 = """\
pascal       checked=136    failures=0    ok
lemma1       checked=153    failures=0    ok
lemma2       checked=153    failures=0    ok
lemma3       checked=165    failures=0    ok
theorem2     checked=285    failures=0    ok
corollary1   checked=45     failures=0    ok
total: 937 instances, 0 failures
"""

IDENTITIES_MAX_2_SABOTAGE = """\
pascal       checked=10     failures=7    FAIL
    at (-2, 1): LHS = -q^-1 - q^-2  !=  RHS = -1 - q^-1
    at (-2, 2): LHS = q^-3 + q^-4 + q^-5  !=  RHS = q^-2 + q^-3 + q^-4
    at (-1, 1): LHS = -q^-1  !=  RHS = -1
    at (-1, 2): LHS = q^-3  !=  RHS = q^-2
    at (1, 1): LHS = 1  !=  RHS = q
    at (2, 1): LHS = q + 1  !=  RHS = q^2 + q
    at (2, 2): LHS = 1  !=  RHS = q
lemma1       checked=15     failures=12   FAIL
    at (-2, 0): LHS = 1  !=  RHS = q
    at (-2, 1): LHS = -q^-1 - q^-2  !=  RHS = -1 - q^-1
    at (-2, 2): LHS = q^-3 + q^-4 + q^-5  !=  RHS = q^-2 + q^-3 + q^-4
    at (-1, 0): LHS = 1  !=  RHS = q
    at (-1, 1): LHS = -q^-1  !=  RHS = -1
    at (-1, 2): LHS = q^-3  !=  RHS = q^-2
    at (0, 0): LHS = 1  !=  RHS = q
    at (1, 0): LHS = 1  !=  RHS = q
    at (1, 1): LHS = 1  !=  RHS = q
    at (2, 0): LHS = 1  !=  RHS = q
    at (2, 1): LHS = q + 1  !=  RHS = q^2 + q
    at (2, 2): LHS = 1  !=  RHS = q
lemma2       checked=15     failures=12   FAIL
    at (-2, 0): LHS = 1  !=  RHS = q
    at (-2, 1): LHS = 1 + q^-1 + q^-2  !=  RHS = q + 1 + q^-1
    at (-2, 2): LHS = 1 + q^-1 + 2*q^-2 + q^-3 + q^-4  !=  RHS = q + 1 + 2*q^-1 + q^-2 + q^-3
    at (-1, 0): LHS = 1  !=  RHS = q
    at (-1, 1): LHS = 1 + q^-1  !=  RHS = q + 1
    at (-1, 2): LHS = 1 + q^-1 + q^-2  !=  RHS = q + 1 + q^-1
    at (0, 0): LHS = 1  !=  RHS = q
    at (0, 1): LHS = 1  !=  RHS = q
    at (0, 2): LHS = 1  !=  RHS = q
    at (1, 0): LHS = 1  !=  RHS = q
    at (2, 0): LHS = 1  !=  RHS = q
    at (2, 1): LHS = -q  !=  RHS = -q^2
lemma3       checked=10     failures=7    FAIL
    at (0, 0, 0): LHS = 1  !=  RHS = q
    at (1, 0, 0): LHS = 1  !=  RHS = q
    at (1, 1, 1): LHS = 1  !=  RHS = q
    at (2, 0, 0): LHS = 1  !=  RHS = q
    at (2, 1, 0): LHS = -q  !=  RHS = -q^2
    at (2, 1, 1): LHS = 1  !=  RHS = q
    at (2, 2, 2): LHS = 1  !=  RHS = q
theorem2     checked=14     failures=10   FAIL
    at (0, 0, 0): LHS = 1  !=  RHS = q
    at (0, 1, 0): LHS = 1  !=  RHS = q
    at (0, 1, 1): LHS = 1  !=  RHS = q
    at (0, 2, 0): LHS = 1  !=  RHS = q
    at (0, 2, 1): LHS = q + 1  !=  RHS = q^2 + q
    at (0, 2, 2): LHS = 1  !=  RHS = q
    at (1, 1, 1): LHS = 1  !=  RHS = q
    at (1, 2, 1): LHS = q  !=  RHS = q^2
    at (1, 2, 2): LHS = 1  !=  RHS = q
    at (2, 2, 2): LHS = 1  !=  RHS = q
corollary1   checked=6      failures=4    FAIL
    at (0, 0): LHS = 1  !=  RHS = q
    at (0, 1): LHS = 1  !=  RHS = q
    at (0, 2): LHS = 1  !=  RHS = q
    at (1, 2): LHS = q  !=  RHS = q^2
total: 70 instances, 52 failures
"""


def test_verify_identities_golden_stdout(capsys):
    assert run(capsys, "verify", "identities", "--max", "8") == (0, IDENTITIES_MAX_8, "")
    assert run(capsys, "verify", "identities", "--max", "2", "--sabotage") == (1, IDENTITIES_MAX_2_SABOTAGE, "")


@pytest.mark.parametrize("argv, digest", [
    (("--max", "18"), "d9fe26ed2af38a07ed5380499945bba0d25616f00c727831b42a45816942d68c"),
    (("--max", "6", "--format", "json"), "c3f7927cd3b3663efef96bac97eb01e889924f9ae834768c0ce7e779aa5a0e18"),
])
def test_verify_identities_golden_sha256(capsys, argv, digest):
    # sha256 of the stdout as printed before the alternating sums became
    # one Kronecker sum each
    code, out, _ = run(capsys, "verify", "identities", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [("gauss", "3000", "2"), ("gauss", "1200", "600"),
                                  ("eigenvalues", "2000", "2", "--q", "2")])
def test_deep_gauss_calls_keep_the_exit_contract(capsys, monkeypatch, argv):
    # These once ended in a RecursionError traceback with exit 1.  With the
    # memo limit patched low they are refused up front, so nothing large runs.
    monkeypatch.setattr(qbinom, "MEMO_BYTE_LIMIT", 10**6)
    code, out, err = run(capsys, *argv)
    assert code in (0, 2) and "Traceback" not in err
    assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "memo" in err


def test_memo_refusal_is_priced_in_slots(capsys):
    # gauss 8000 1 needs about 70 MB of Kronecker images and runs; gauss
    # 100000 1 would need about 16 GB and is refused before any cell
    try:
        code, out, _ = run(capsys, "gauss", "8000", "1")
        assert code == 0 and out.startswith("q^7999 + q^7998 + ") and out.endswith(" + q^2 + q + 1\n")
        code, out, err = run(capsys, "gauss", "100000", "1")
        assert code == 2 and out == ""
        assert err == (f"error: [100000 1]_q needs a q-Pascal memo of about {qbinom._memo_bytes(100000, 1)} bytes, "
                       f"above the limit of {qbinom.MEMO_BYTE_LIMIT}\n")
    finally:
        qbinom.gauss.cache_clear()


def test_mirrored_memo_refusal_names_the_cell_asked_for(capsys):
    # [100000 99999] is served from [100000 1] and priced as its fill, but
    # the refusal names the cell on the command line, before any cell
    qbinom.gauss.cache_clear()
    try:
        code, out, err = run(capsys, "gauss", "100000", "99999")
        assert code == 2 and out == "" and qbinom.gauss.cache_info().currsize == 0
        assert err == (f"error: [100000 99999]_q needs a q-Pascal memo of about {qbinom._memo_bytes(100000, 1)} bytes, "
                       f"above the limit of {qbinom.MEMO_BYTE_LIMIT}\n")
    finally:
        qbinom.gauss.cache_clear()


def test_oversized_spectrum_is_refused_before_any_fill(capsys):
    # [4000 6], the first cell of the table over the limit, is refused before
    # [4000 1] to [4000 5] are filled, which would take about 1.3 GB, with the
    # message and estimate of a refused fill
    qbinom.gauss.cache_clear()
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, "eigenvalues", "4000", "2000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "") and qbinom.gauss.cache_info().currsize == 0
        assert err == ("error: [4000 6]_q needs a q-Pascal memo of about 1794524960 bytes, "
                       "above the limit of 1073741824\n")
    finally:
        qbinom.gauss.cache_clear()


def test_oversized_spectrum_in_both_forms_is_refused_before_any_fill(capsys):
    # the Delsarte column adds no refusal of its own: the table's pricing
    # refuses [4000 6] first, with the closed form's message, memo empty
    qbinom.gauss.cache_clear()
    try:
        code, out, err = run(capsys, "eigenvalues", "4000", "2000", "--form", "both")
        assert (code, out) == (2, "") and qbinom.gauss.cache_info().currsize == 0
        assert err == ("error: [4000 6]_q needs a q-Pascal memo of about 1794524960 bytes, "
                       "above the limit of 1073741824\n")
    finally:
        qbinom.gauss.cache_clear()


def test_gauss_keeps_the_printed_cell_alone(capsys):
    # `gauss N I` is one gauss call, whose miss sweeps the one cell it
    # prints and keeps it alone, as a miss in the library does
    qbinom.gauss.cache_clear()
    try:
        code, out, _ = run(capsys, "gauss", "400", "20")
        assert code == 0 and out.startswith("q^7600 + q^7599 + 2*q^7598 + ")
        assert qbinom.gauss.cache_info().currsize == 1
        assert str(qbinom.gauss(400, 20)) + "\n" == out and qbinom.gauss.cache_info().misses == 1
        # a mirrored cell keeps its own key and the canonical cell it is served from
        qbinom.gauss.cache_clear()
        assert run(capsys, "gauss", "400", "380")[:2] == (0, out) and qbinom.gauss.cache_info().currsize == 2
    finally:
        qbinom.gauss.cache_clear()


@pytest.mark.parametrize("argv", [("eigenvalues", "30", "8", "--form", "both"), ("verify", "spectrum", "4", "2", "5")])
def test_spectra_leave_the_memo_empty(capsys, argv):
    # the table and the Delsarte column read their cells from streams, which fill no memo
    qbinom.gauss.cache_clear()
    try:
        assert run(capsys, *argv)[0] == 0
        assert qbinom.gauss.cache_info().currsize == 0
    finally:
        qbinom.gauss.cache_clear()


def test_huge_field_order_is_refused_up_front(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "eigenvalues", "4", "2", "--q", str(10**4000 + 1))
    assert code == 2 and out == "" and "more than 1000 digits" in err
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("argv", [("gauss", "5000", "3", "--q", "2"), ("gauss", "30000000", "3", "--q", "2"),
                                  ("gauss", "-5000", "3", "--q", "2"), ("eigenvalues", "8000", "2", "--q", "2"),
                                  ("eigenvalues", "8000", "2", "--q", "2", "--form", "both")])
def test_unprintable_values_are_refused_before_they_are_computed(capsys, monkeypatch, argv):
    # these once computed the whole value (or ran for minutes) and then
    # failed in str() at CPython's limit on int-to-string conversion
    def not_computed(*args):
        raise AssertionError(f"computed {args}")
    monkeypatch.setattr(cli, "gauss_eval_product", not_computed)
    monkeypatch.setattr(cli, "_spectrum_cells", not_computed)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert f"digits, above the limit of {sys.get_int_max_str_digits()} for integer string conversion" in err


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_value_just_past_the_limit_gets_the_refusal_wording(capsys, fmt):
    # [4764 3]_2 has 4301 digits: its lower bound 2^14283 has 4300, so the
    # value is computed, and is then refused in the same one line, with
    # its exact digit count, instead of CPython's own conversion error
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        code, out, err = run(capsys, "gauss", "4764", "3", "--q", "2", "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err == "error: [4764 3]_q at q=2 has 4301 digits, above the limit of 4300 for integer string conversion\n"


def _digits(value):
    return max(len(str(abs(part))) for part in (value.numerator, value.denominator))


def test_the_digit_refusal_spares_every_value_that_prints(capsys):
    # at the lowest limit CPython allows, every value around it prints
    # exactly when it has few enough digits, and every refusal names the
    # limit: most before computing, the few in between once computed
    limit = sys.get_int_max_str_digits()
    gauss_cases = [(n, i, q0) for i, q0 in ((1, 2), (3, 2), (2, 3)) for sign in (1, -1)
                   for base in [int(640 / (i * math.log10(q0)))] for n in range(sign * base - 6, sign * base + 7)]
    spectrum_cases = [(v, 2, 2) for v in range(1062, 1070)]
    try:
        sys.set_int_max_str_digits(0)
        need = {("gauss", n, i, q0): _digits(qbinom.gauss_eval_product(n, i, q0)) for n, i, q0 in gauss_cases}
        for v, k, q0 in spectrum_cases:
            table = spectrum.spectrum_table(v, k, q0)
            need["eigenvalues", v, k, q0] = max(map(_digits, table.eigenvalues() + table.multiplicities()))
        sys.set_int_max_str_digits(640)
        refused = 0
        for (command, *args), digits in need.items():
            code, out, err = run(capsys, command, str(args[0]), str(args[1]), "--q", str(args[2]))
            assert (code == 0) == (digits <= 640), (command, args, digits, err)
            assert code == 0 or err.endswith(" digits, above the limit of 640 for integer string conversion\n")
            refused += "has at least" in err
        assert refused > len(need) // 3
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_identities_bad_max(capsys):
    code, _, err = run(capsys, "verify", "identities", "--max", "0")
    assert code == 2


def test_verify_spectrum_certifies(capsys):
    code, out, _ = run(capsys, "verify", "spectrum", "4", "2", "2")
    assert code == 0
    assert "35 vertices" in out and "degree 16" in out
    assert "certified: yes" in out
    assert "[35, 0, 560]" in out


def test_verify_spectrum_budget_exit_2(capsys):
    code, _, err = run(capsys, "verify", "spectrum", "6", "3", "2", "--budget", "100")
    assert code == 2
    assert "1395" in err and "budget" in err


def test_verify_spectrum_gf4(capsys):
    code, out, _ = run(capsys, "verify", "spectrum", "4", "2", "4")
    assert code == 0
    assert "357 vertices" in out and "certified: yes" in out


@pytest.mark.parametrize("argv, digests", [
    (("4", "2", "4"), ("afd5a1e4ea199a3c13270940fd7bc64382a63ac977ea3cbf659e0d0a183a3a27",
                       "d8c3673db782f71f64d0275bbefae552c854e0446f98f5fb5f7aa19fcb99f58d",
                       "36aa6ef5ae057f154c2ec7dd5d4bbe5f730c404b6ade67c2456e2f39794d542f",
                       "274eae5c066448db733ada8d5efa8a792d4ea374fa44ae23954fa91c6ee38179")),
    (("3", "1", "8"), ("b3cba98fc82b72bd24656654f022f81888f73cc832ff163be8588041757e6844",
                       "e3833062b712b2a426183f0893c469ac5339128a272bce12d8382991c25fb263",
                       "f626c6614f526157b957c708673cae4f49e03917d2c15e706a6b3d2f486ad24d",
                       "e2b8030bcaf1970974bd97e1ce5d8874a378097fb8ce4e7a5abca26c50b28fd0")),
    (("2", "1", "289"), ("6b1d6eee44e20d0c69077d82a017ba818b5d9b061d6af49e014fb55f0130b476",
                         "9a4ce12d46baaff695c6b003bf580af328c1caee056320b632dda79b3785f440",
                         "2a2ef5ff6ee7e2061c15e8ff77f594c748b68373856c440ff044ac5a99d7bb35",
                         "6fbd014bf64fcf45c1513872f1a3333f6f4601775998d6c76ffd19c31d7f6736")),
    (("4", "2", "5"), ("be92c54bf8267f24ff88b29746592450e5780185dbe38cf5bc367534a04689c8",
                       "69fd2b15f989a67e222cd93c401637e76931b5205b9e66bd8191fb250c68e472",
                       "7a8b50759cd4200e09c1246383b74fbb629a7a5f0684d0f7b3221d7067644a18",
                       "2aee6cb19f80a721c8b83c39d29733b5c39566d1c2302dfb8631eb069d0bfeaa")),
    (("6", "3", "2"), ("4654173ea0fa8691ff6e13ce0cbed8bd41e3f4d3e41ca31c900298c9262d9eb9",
                       "6feacd7cf36c0da809d89f68ed449549bab76e335469c1a60a80328833759d59",
                       "cd047124c6f79845bb1879a3c42ed36ced5dc8e749e16d24d89f91dd5529af61",
                       "de221442504169f05ec8c4f49b0f1e3bd9c59e1a6adb497663ac05fcb7f9ed58")),
    (("2", "1", "1999"), ("8b43bc55a4f77d7eee447eab8432fdd6f85183c4a163bea0663cf6987c354ddc",
                          "4080fd865da516062eacc4b6eaf513599c97e44ae41c7fc85cb5fdca5c19d17f",
                          "054e462844f041a359fdf0c5ccc9d558154acdaef48a3670021501be70abd88a",
                          "74b5bf5db72034defb1c7fe8d13709ae66ff406f164234d12537714c0d751978")),
])
def test_verify_spectrum_golden_sha256(capsys, monkeypatch, tmp_path, argv, digests):
    # sha256 of stdout, adjacency.txt, vertices.txt and certification.json:
    # the extension fields as written when GF(q) arithmetic for q <= 256 still
    # ran on q x q tables, and all six as written by the per-vertex Subspace
    # enumeration that the (n, k, v) array replaced
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "spectrum", *argv, "--dump", "dump")
    assert code == 0
    files = [(tmp_path / "dump" / name).read_bytes() for name in ("adjacency.txt", "vertices.txt", "certification.json")]
    assert tuple(hashlib.sha256(data).hexdigest() for data in [out.encode(), *files]) == digests


def test_verify_spectrum_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "verify", "spectrum", "4", "2", "6")
    assert code == 2


def test_verify_spectrum_dump(capsys, tmp_path):
    directory = tmp_path / "dump"
    code, out, _ = run(capsys, "verify", "spectrum", "2", "1", "2", "--dump", str(directory))
    assert code == 0
    assert (directory / "vertices.txt").read_text() == "1 0\n1 1\n0 1\n"
    assert (directory / "adjacency.txt").read_text() == "0 1 1\n1 0 1\n1 1 0\n"
    payload = json.loads((directory / "certification.json").read_text())
    assert payload["certified"] is True and payload["q"] == 2


def test_verify_spectrum_dump_golden(capsys, tmp_path):
    # sha256 of the qK(4,2) q=3 dump files as the earlier pairwise-disjointness
    # adjacency wrote them; any drift in the matrix or the format shows here
    code, _, _ = run(capsys, "verify", "spectrum", "4", "2", "3", "--dump", str(tmp_path))
    assert code == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("adjacency.txt", "vertices.txt")}
    assert digests == {
        "adjacency.txt": "5b01b94dd55e67c560bdad3d5a8ba146d531f31ecb72b982d17a599e87ba51fb",
        "vertices.txt": "6f9e92799e607e9891005606775a27201f5a96481abbf60d71f67635281b5ab7",
    }


def test_verify_spectrum_dump_into_a_file_exits_2(capsys, tmp_path):
    # once "certified: yes", a traceback and exit 1; now refused before enumeration
    blocker = tmp_path / "F"
    blocker.write_text("")
    for target, error in ((blocker, "File exists"), (blocker / "sub", "Not a directory")):
        code, out, err = run(capsys, "verify", "spectrum", "3", "1", "2", "--dump", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and error in err and err.count("\n") == 1
    assert blocker.read_text() == ""


def test_verify_spectrum_dump_onto_a_directory_name_exits_2(capsys, tmp_path):
    # refused before enumeration, as a dump directory that cannot be made is
    (tmp_path / "adjacency.txt").mkdir()
    code, out, err = run(capsys, "verify", "spectrum", "3", "1", "2", "--dump", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "adjacency.txt exists and is not a regular file" in err
    assert err.count("\n") == 1
    assert (tmp_path / "adjacency.txt").is_dir()


@pytest.mark.parametrize("name", ["vertices.txt", "adjacency.txt", "certification.json"])
def test_verify_spectrum_dump_refusal_writes_no_dump_file(capsys, tmp_path, name):
    # once vertices.txt and adjacency.txt were written before
    # certification.json failed; now no dump file is written at all
    (tmp_path / name).mkdir()
    code, out, err = run(capsys, "verify", "spectrum", "3", "1", "2", "--dump", str(tmp_path))
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == [name]


def test_a_failed_dump_leaves_no_dump_file(capsys, monkeypatch, tmp_path):
    # an OSError while adjacency.txt is written, after vertices.txt: every
    # file is written under a temporary name and renamed only when all three
    # are, so none of the three names and no temporary file is left
    def disk_full(strips, path):
        with open(path, "wb") as out:
            out.write(b"0 1")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "dump_adjacency", disk_full)
    code, out, err = run(capsys, "verify", "spectrum", "4", "2", "2", "--dump", str(tmp_path))
    assert code == 2 and "certified: yes" in out and "dumped" not in out
    assert err == "error: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == []


DiskUsage = collections.namedtuple("DiskUsage", "total used free")  # as shutil.disk_usage returns it


def dump_disk(monkeypatch, free):
    # shutil.disk_usage reporting free bytes, and the calls to enumerate_subspaces
    calls, enumerate_subspaces = [], cli.enumerate_subspaces

    def recording(*args, **kwargs):
        calls.append(args)
        return enumerate_subspaces(*args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_subspaces", recording)
    monkeypatch.setattr(cli.shutil, "disk_usage", lambda path: DiskUsage(free, 0, free))
    return calls


def test_verify_spectrum_refuses_a_dump_the_disk_cannot_hold(capsys, monkeypatch, tmp_path):
    # qK(4,2) over GF(2) has 35 vertices, so adjacency.txt takes 2 * 35^2 =
    # 2450 bytes: one byte less is refused before enumeration, with no file
    calls = dump_disk(monkeypatch, 2449)
    code, out, err = run(capsys, "verify", "spectrum", "4", "2", "2", "--dump", str(tmp_path / "dump"))
    assert (code, out, calls) == (2, "", [])
    assert err == (f"error: adjacency.txt of 35 vertices needs 2450 bytes, {tmp_path / 'dump'} has 2449 free "
                   f"(counting the dump files it would replace)\n")
    assert list((tmp_path / "dump").iterdir()) == []


def test_verify_spectrum_counts_the_dump_files_it_replaces_as_free(capsys, monkeypatch, tmp_path):
    # 2400 free bytes and an earlier adjacency.txt of 50 make the 2450 needed
    calls = dump_disk(monkeypatch, 2400)
    (tmp_path / "adjacency.txt").write_bytes(b"0" * 50)
    code, out, err = run(capsys, "verify", "spectrum", "4", "2", "2", "--dump", str(tmp_path))
    assert (code, err, len(calls)) == (0, "", 1) and "certified: yes" in out
    assert (tmp_path / "adjacency.txt").stat().st_size == 2450


def test_certify_commands_do_not_import_numpy_ma():
    # a 1-D np.unique imports numpy.ma (numpy >= 2) the first time it runs,
    # 10-30 ms of a certify command; if import qkneser leaves it unloaded,
    # the certify commands must too (on numpy 1.x this holds vacuously)
    script = (
        "import sys, tempfile\n"
        "import qkneser\n"
        "from qkneser import cli\n"
        "before = 'numpy.ma' in sys.modules\n"
        "with tempfile.TemporaryDirectory() as d:\n"
        "    for argv in (['verify', 'spectrum', '4', '2', '5'], ['verify', 'spectrum', '6', '3', '2', '--dump', d]):\n"
        "        if cli.main(argv) != 0 or not before and 'numpy.ma' in sys.modules:\n"
        "            sys.exit(f'{argv} loaded numpy.ma')\n"
    )
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert child.returncode == 0, child.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_an_inexact_oracle_product_fails_verify_identities(flags):
    # the product oracle's exact division is guarded by an if, not an
    # assert: a point whose product leaves a remainder fails the sweep with
    # exit 1 and the InvariantError's text, and no traceback, also under -O
    script = (
        "import sys\n"
        "from qkneser import cli, qbinom\n"
        "terms = qbinom._product_terms\n"
        "def inexact(n, i, q0):\n"
        "    num, den, e = terms(n, i, q0)\n"
        "    return num + ((n, i, q0) == (3, 2, 2)), den, e\n"
        "qbinom._product_terms = inexact\n"
        "sys.exit(cli.main(['verify', 'identities', '--max', '3']))\n"
    )
    child = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == "error: the defining product of [3 2]_q at q=2 is not an integer over 2^0\n"


def test_count_subspaces(capsys):
    code, out, _ = run(capsys, "count-subspaces", "4", "2", "2")
    assert (code, out) == (0, "35 = 35\n")
    code, out, _ = run(capsys, "count-subspaces", "3", "1", "2")
    assert (code, out) == (0, "7 = 7\n")
    code, out, _ = run(capsys, "count-subspaces", "5", "2", "3")
    assert (code, out) == (0, "1210 = 1210\n")


def test_count_subspaces_budget(capsys):
    code, _, err = run(capsys, "count-subspaces", "6", "3", "2", "--budget", "10")
    assert code == 2 and "1395" in err


@pytest.mark.parametrize("argv", [
    ("verify", "spectrum", "3000", "2", "2"),
    ("count-subspaces", "3000", "2", "2"),
    ("verify", "spectrum", "2", "1", str(1009**4)),
    ("count-subspaces", "100000", "1", "2"),
    ("verify", "spectrum", "4", "2", "6", "--budget", "100"),  # not a prime power, but too big first
    ("count-subspaces", str(10**12), "2", "2"),
])
def test_budget_is_refused_before_any_other_work(capsys, monkeypatch, argv):
    # neither the field (a modulus search, or trial division of q) nor the
    # predicted spectrum (a gauss memo) may be built for a graph over budget
    for name in ("field_of_order", "spectrum_table", "enumerate_subspaces"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: pytest.fail(f"{name} called"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "exceeds budget" in err and "Traceback" not in err


def test_budget_refusal_keeps_the_other_messages_within_budget(capsys):
    code, _, err = run(capsys, "verify", "spectrum", "3", "2", "2")
    assert code == 2 and "null graph" in err
    code, _, err = run(capsys, "verify", "spectrum", "4", "2", "6")
    assert code == 2 and "prime power" in err
    code, _, err = run(capsys, "count-subspaces", "4", "2", "6")
    assert code == 2 and "prime power" in err


def test_count_subspaces_at_a_large_prime(capsys):
    # the modulus of GF(p) is x, found without listing the p candidates
    code, out, _ = run(capsys, "count-subspaces", "3", "0", "10000000000037")
    assert (code, out) == (0, "1 = 1\n")


def test_usage_error_exit_2(capsys):
    assert run(capsys, "gauss", "4")[0] == 2  # missing argument
    assert run(capsys, "nonsense")[0] == 2


def _parse(parser, argv, capsys):
    # the exit code (None when parsing succeeds), stdout, stderr and the namespace
    try:
        namespace, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, cli.argparse._SubParsersAction)).choices


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["gauss", "-h"], ["eigenvalues", "--help"], ["verify", "-h"], ["verify", "identities", "-h"],
    ["verify", "spectrum", "-h"], ["count-subspaces", "-h"],  # help at every level
    ["gauss"], ["gauss", "4"], ["verify"], ["verify", "spectrum", "4", "2"], ["count-subspaces", "4"],  # missing
    ["nonsense"], ["verify", "spectra", "4", "2", "2"], ["eigenvalues", "4", "2", "--form", "closed"],  # unknown
    ["gauss", "4", "2", "--q", "x"], ["verify", "identities", "--max", "1e3"],  # invalid values
    ["gauss", "4", "2", "extra"], ["verify", "spectrum", "4", "2", "2", "--bogus"], ["--bogus"],  # unrecognized
    ["gauss", "4", "2", "--format", "json"], ["verify", "spectrum", "4", "2", "5", "--dump", "out"],  # well formed
    ["count-subspaces", "4", "2", "2", "--budget", "9"], ["verify", "identities", "--sabotage"],
])
def test_the_parser_for_argv_parses_as_the_whole_tree(capsys, argv):
    # build_parser(argv) leaves out the arguments of the subcommands argv
    # does not name; its help, usage, errors and namespace are the whole
    # tree's, byte for byte
    assert _parse(cli.build_parser(argv), argv, capsys) == _parse(cli.build_parser(), argv, capsys)


def test_the_parser_for_argv_builds_only_the_subcommands_it_names():
    # every name is registered, but only verify spectrum has its arguments
    # (-h alone elsewhere)
    whole = _subparsers(cli.build_parser())
    scoped = _subparsers(cli.build_parser(["verify", "spectrum", "4", "2", "5"]))
    assert list(scoped) == list(whole) == ["gauss", "eigenvalues", "verify", "count-subspaces"]
    assert [len(scoped[name]._actions) for name in ("gauss", "eigenvalues", "count-subspaces")] == [1, 1, 1]
    verify = _subparsers(scoped["verify"])
    assert len(verify["identities"]._actions) == 1
    assert len(verify["spectrum"]._actions) == len(_subparsers(whole["verify"])["spectrum"]._actions) == 6


def test_verify_spectrum_pentagon_like_case(capsys):
    code, out, _ = run(capsys, "verify", "spectrum", "2", "1", "3")
    assert code == 0
    assert "4 vertices" in out  # K_4: the 4 lines of F_3^2 pairwise meet trivially


# Random argv for the exit contract: a subcommand, small or negative or
# non-prime-power positionals, options and junk.  Most draws are well
# formed, so that they reach the handlers.  Options are drawn with their
# values, so --max stays <= 4 and --budget <= 200; with the default budget
# patched to 200 no draw starts a large computation.
_NUMBERS = [str(i) for i in range(-3, 5)]
_SMALL = st.sampled_from(_NUMBERS)
_POSITIONALS = st.sampled_from(_NUMBERS + ["6", "10", "12"])  # 6, 10, 12: not prime powers
_OPTIONS = {
    "--max": _SMALL,
    "--budget": st.integers(-3, 200).map(str),
    "--q": st.sampled_from(["2", "3", "4", "6", "-2", "0", "q"]),
    "--format": st.sampled_from(["table", "csv", "json", "xml"]),
    "--form": st.sampled_from(["simple", "delsarte", "both", "closed"]),
}
_COMMANDS = {  # positional count and options of each subcommand
    "gauss": (2, ["--q", "--format"]),
    "eigenvalues": (2, ["--q", "--form", "--format"]),
    "verify identities": (0, ["--max", "--format"]),
    "verify spectrum": (3, ["--budget"]),
    "count-subspaces": (3, ["--budget"]),
}
_JUNK = st.sampled_from(["x", "", "-", "--", "-1.5", "1e3", "0x10", "--q", "--max", "--nonsense", "--help"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from([*_COMMANDS, "", "verify", "nonsense"]))
    arity, names = _COMMANDS.get(command, (0, list(_OPTIONS)))
    arity = draw(st.sampled_from([arity, arity, 0, 1, 2, 3, 4]))
    argv = command.split() + draw(st.lists(_POSITIONALS, min_size=arity, max_size=arity))
    for name in draw(st.lists(st.sampled_from(names), max_size=2)):
        argv += [name, draw(_OPTIONS[name])]
    return argv + draw(st.one_of(st.just([]), st.lists(_JUNK, min_size=1, max_size=2)))


# What one allocation may ask for before the tests below treat it as one the
# host refuses; no argv that Hypothesis draws comes near it.
_ALLOCATION_LIMIT = 10**6


def _rref_bases_within(limit):
    build = oracle._rref_bases

    def bases(q, v, k):
        if predicted_vertex_count(v, k, q) > limit:
            raise MemoryError(f"Unable to allocate the bases of {v}-dimensional {k}-subspaces over GF({q})")
        return build(q, v, k)

    return bases


# [12 6]_2 is about 2.3e11 vertices: the budget lets it through and the
# (n, k, v) array of bases, 36 TiB, cannot be allocated
_OUT_OF_MEMORY = ["verify", "spectrum", "12", "6", "2", "--budget", "1000000000000000000000"]


def test_memory_error_is_a_resource_error(capsys, monkeypatch):
    # once a traceback with exit 1; now one error line and exit 2
    monkeypatch.setattr(oracle, "_rref_bases", _rref_bases_within(0))
    for argv in (_OUT_OF_MEMORY, ["count-subspaces", "3", "1", "2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: out of memory: Unable to allocate")
        assert err.count("\n") == 1 and "Traceback" not in err

    def out_of_memory(q, v, k):
        raise MemoryError

    monkeypatch.setattr(oracle, "_rref_bases", out_of_memory)
    assert run(capsys, *_OUT_OF_MEMORY) == (2, "", "error: out of memory\n")


def test_a_large_prime_order_is_factored_at_once(capsys):
    # trial division up to sqrt(q) ran for more than 15 s on this prime
    start = time.perf_counter()
    code, out, err = run(capsys, "eigenvalues", "4", "2", "--q", "1000000000000000003")
    assert (code, err) == (0, "") and "1000000000000000003" in out
    assert time.perf_counter() - start < 2


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
@example(argv=_OUT_OF_MEMORY)
@example(argv=["gauss", "2", "-1"])
@example(argv=["eigenvalues", "3", "2"])  # the null graph
@example(argv=["verify", "identities", "--max", "0"])
@example(argv=["verify", "spectrum", "4", "2", "6"])
@example(argv=["verify", "spectrum", "4", "2", "3", "--budget", "10"])
@example(argv=["count-subspaces", "2", "3", "2"])
@example(argv=["gauss", "-3", "--", "--"])  # Python 3.11 passed the second "--" on as i = []
def test_exit_contract_holds_for_random_argv(argv):
    # 0 = ok, 1 = a real verification failure, 2 = usage or resource error.
    # The honest code has no verification failure to report, so any exit 1
    # here would be a crash passed off as one.
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "DEFAULT_VERTEX_BUDGET", 200), \
            mock.patch.object(oracle, "_rref_bases", _rref_bases_within(_ALLOCATION_LIMIT)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert err.getvalue(), argv
