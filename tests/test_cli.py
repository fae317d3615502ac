"""CLI contract: the five commands, exit codes, and round-trippable output."""

import csv
import hashlib
import io
import json

import pytest

from qkneser.cli import main


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


def test_usage_error_exit_2(capsys):
    assert run(capsys, "gauss", "4")[0] == 2  # missing argument
    assert run(capsys, "nonsense")[0] == 2


def test_verify_spectrum_pentagon_like_case(capsys):
    code, out, _ = run(capsys, "verify", "spectrum", "2", "1", "3")
    assert code == 0
    assert "4 vertices" in out  # K_4: the 4 lines of F_3^2 pairwise meet trivially
