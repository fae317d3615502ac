"""Identity checks: frozen instances, grid sweeps, and negative controls."""

import pytest

from qkneser import identities
from qkneser.identities import (
    IDENTITY_IDS,
    GridBounds,
    check,
    corollary1_sides,
    lemma2_sides,
    lemma3_sides,
    pascal_sides,
    run_grid,
    theorem2_sides,
)
from qkneser.laurent import ONE, ZERO, LaurentPoly
from qkneser.qbinom import _eval_product, gauss


def test_pascal_instances():
    assert check("pascal", 4, 2)
    lhs, rhs = pascal_sides(4, 2)
    assert lhs == rhs == LaurentPoly({4: 1, 3: 1, 2: 2, 1: 1, 0: 1})
    assert check("pascal", 0, 1)  # 0 = 1 + q * (-q^-1)
    assert check("pascal", -3, 2)


def test_pascal_rejects_zero_lower_index():
    with pytest.raises(ValueError):
        check("pascal", 4, 0)


def test_lemma1_instances():
    for n in (-4, 0, 3):
        assert check("lemma1", n, 0)
    assert check("lemma1", -1, 1)  # -q^-1 = (-1) q^-1 [1 1]
    assert check("lemma1", 5, 2)
    with pytest.raises(ValueError):
        check("lemma1", 5, -1)


def test_lemma2_instances():
    lhs, rhs = lemma2_sides(2, 2)
    assert lhs == rhs == ZERO  # 1 - (1+q) + q telescopes; RHS has [0 2] = 0
    lhs, rhs = lemma2_sides(-1, 1)
    assert lhs == rhs == LaurentPoly({0: 1, -1: 1})
    lhs, rhs = lemma2_sides(0, 0)
    assert lhs == rhs == ONE
    assert check("lemma2", 2, 2) and check("lemma2", -1, 1) and check("lemma2", 0, 0)
    with pytest.raises(ValueError):
        check("lemma2", 3, -1)


def test_lemma3_instances():
    lhs, rhs = lemma3_sides(1, 1, 1)
    assert lhs == rhs == ONE
    lhs, rhs = lemma3_sides(2, 2, 0)
    assert lhs == rhs == ZERO
    assert check("lemma3", 3, 2, 1)
    lhs, rhs = lemma3_sides(3, 2, 1)
    assert lhs == rhs == LaurentPoly({2: -1})  # both sides -q^2
    assert lhs.evaluate(2) == -4
    for bad in ((1, 2, 0), (2, 1, 2), (3, 2, -1)):
        with pytest.raises(ValueError):
            check("lemma3", *bad)


def test_theorem2_instances():
    lhs, rhs = theorem2_sides(1, 2, 1)
    assert lhs == rhs == LaurentPoly({1: 1})
    lhs, rhs = theorem2_sides(0, 3, 2)
    assert lhs == rhs == gauss(3, 2)
    lhs, rhs = theorem2_sides(2, 2, 2)
    assert lhs == rhs == ONE
    for bad in ((3, 2, 1), (1, 2, 3)):
        with pytest.raises(ValueError):
            check("theorem2", *bad)


def test_corollary1_instances():
    lhs, rhs = corollary1_sides(1, 2)
    assert lhs == rhs == LaurentPoly({1: 1})
    assert check("corollary1", 0, 0)
    lhs, rhs = corollary1_sides(2, 4)
    assert lhs == rhs == LaurentPoly({4: 1})
    assert lhs.evaluate(2) == 16
    with pytest.raises(ValueError):
        check("corollary1", 3, 2)


def test_corollary1_matches_theorem2_branch_for_branch():
    for a in range(0, 8):
        for m in range(0, a + 1):
            assert corollary1_sides(m, a) == theorem2_sides(m, a, a - m)
            assert check("corollary1", m, a) == check("theorem2", m, a, a - m) is True


def test_lemma3_theorem2_agree_on_overlap():
    # at a = m both sums have the same range and both identities hold
    for m in range(0, 9):
        for t in range(0, m + 1):
            assert lemma3_sides(m, m, t) == theorem2_sides(m, m, t)
            assert check("lemma3", m, m, t) and check("theorem2", m, m, t)


@pytest.mark.parametrize("identity", IDENTITY_IDS)
def test_default_grids_pass(identity):
    report = run_grid(identity)
    assert report.checked > 0
    assert report.passed, report.failures[:3]


@pytest.mark.parametrize("identity", IDENTITY_IDS)
def test_sabotaged_grids_fail(identity):
    # multiplying the RHS by q (an exponent off by one) must be caught
    report = run_grid(identity, sabotage=True)
    assert not report.passed
    # failures are reported in deterministic tuple order
    assert report.failures == sorted(report.failures, key=lambda f: f[0])


def test_empty_bounds_give_empty_report():
    bounds = GridBounds(n_min=0, n_max=-1, i_min=0, i_max=-1, mat_max=-1)
    report = run_grid("lemma3", bounds)
    assert report.checked == 0 and report.passed


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        run_grid("lemma9")
    with pytest.raises(ValueError):
        check("lemma9", 1, 1)
    with pytest.raises(ValueError, match="pascal takes 2 parameters, got 1"):
        check("pascal", 1)
    with pytest.raises(ValueError, match="lemma3 takes 3 parameters, got 2"):
        check("lemma3", 1, 1)


def test_checked_counts_at_max_18():
    # the grid of `verify identities --max 18`; each count is the size of
    # that identity's admissible set, so a drift in any precondition shows
    bounds = GridBounds(n_min=-18, n_max=18, i_min=0, i_max=18, mat_max=18)
    counts = {identity: run_grid(identity, bounds).checked for identity in IDENTITY_IDS}
    assert counts == {"pascal": 666, "lemma1": 703, "lemma2": 703,
                      "lemma3": 1330, "theorem2": 2470, "corollary1": 190}
    assert sum(counts.values()) == 6062


def test_report_json_shape():
    report = run_grid("pascal", GridBounds(n_min=-2, n_max=2, i_max=2))
    payload = report.to_json_dict()
    assert payload["identity"] == "pascal"
    assert payload["checked"] == report.checked
    assert payload["failures"] == []
    assert payload["passed"] is True
    assert set(payload["bounds"]) == {"n_min", "n_max", "i_min", "i_max", "mat_max"}


def test_failure_entries_carry_renderings():
    report = run_grid("pascal", GridBounds(n_min=2, n_max=2, i_max=1), sabotage=True)
    assert report.failures == [((2, 1), "q + 1", "q^2 + q")]



def _off_by_one_product(n, i, q0):
    numerator, e = _eval_product(n, i, q0)
    return numerator + q0**e, e  # N / q0^e + 1


def _index_scaled_product(n, i, q0):
    # Wrong by a factor that depends on i alone: lemma1 relates two values
    # with the same i, so only pascal's route (i against i-1) can see it.
    numerator, e = _eval_product(n, i, q0)
    return 2**i * numerator, e


def _off_by_one_theorem2(m, a, t):
    lhs, rhs = theorem2_sides(m, a, t)
    return lhs + ONE, rhs


# The two oracle cases break _eval_product, the (N, e) pairs that
# identities reads; their ids name the oracle by its public entry point.
@pytest.mark.parametrize("targets, attr, wrong", [
    pytest.param({"lemma1", "pascal"}, "_eval_product", _off_by_one_product,
                 id="lemma1-gauss_eval_product-_off_by_one_product"),
    pytest.param({"pascal"}, "_eval_product", _index_scaled_product,
                 id="pascal-gauss_eval_product-_index_scaled_product"),
    pytest.param({"corollary1"}, "theorem2_sides", _off_by_one_theorem2,
                 id="corollary1-theorem2_sides-_off_by_one_theorem2"),
])
def test_cross_checks_catch_a_wrong_independent_route(monkeypatch, targets, attr, wrong):
    # Break the independent route as the identities module sees it: exactly
    # the identities whose cross-checks use it must fail, the others pass.
    small = GridBounds(n_min=-3, n_max=4, i_min=0, i_max=3, mat_max=4)
    sabotaged = {target: run_grid(target, small, sabotage=True).failures for target in targets}
    monkeypatch.setattr(identities, attr, wrong)
    for identity in IDENTITY_IDS:
        assert run_grid(identity, small).passed == (identity not in targets), identity
    for target in targets:
        params = run_grid(target, small).failures[0][0]
        assert not check(target, *params)
        # sabotage skips the cross-checks, so the broken route changes nothing there
        assert run_grid(target, small, sabotage=True).failures == sabotaged[target]


def test_an_oracle_mismatch_renders_each_side_as_a_fraction(monkeypatch):
    # The cross-checks compare integers scaled by a power of q0 and build
    # the Fractions only on a mismatch; each expected entry is the one that
    # cross-checks computing in Fractions report under the same oracle.
    monkeypatch.setattr(identities, "_eval_product", _off_by_one_product)
    small = GridBounds(n_min=-3, n_max=4, i_min=0, i_max=3)
    assert run_grid("pascal", small).failures[0] == ((-3, 1), "at q0=2: 1/8", "at q0=2: 17/8")
    assert run_grid("lemma1", small).failures[0] == ((-3, 1), "at q0=2: 1/8", "at q0=2: -1")
    monkeypatch.setattr(identities, "_eval_product", _index_scaled_product)
    assert run_grid("pascal", small).failures[0] == ((-3, 1), "at q0=2: -7/4", "at q0=2: -11/4")
