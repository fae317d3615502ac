"""Gaussian binomials against the independent product-formula oracle."""

import json
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkneser import identities, laurent, qbinom, spectrum
from qkneser.cli import main
from qkneser.laurent import ONE, ZERO, LaurentPoly
from qkneser.qbinom import alternating_sum, full_alternating_sum, gauss, gauss_eval_product
from qkneser.spectrum import delsarte_eigenvalue, delsarte_terms, simple_eigenvalue, spectrum_table


def test_convention_lower_index_zero():
    for n in (-5, 0, 7):
        assert gauss(n, 0) == ONE


def test_small_values_frozen():
    assert gauss(4, 2) == LaurentPoly({4: 1, 3: 1, 2: 2, 1: 1, 0: 1})
    assert gauss(2, 1) == LaurentPoly({1: 1, 0: 1})
    assert gauss(-1, 1) == LaurentPoly({-1: -1})
    assert gauss(3, 5) == ZERO
    assert gauss(-2, 1) == LaurentPoly({-1: -1, -2: -1})


def test_vanishing_band():
    for n in range(0, 8):
        for i in range(n + 1, n + 4):
            assert gauss(n, i) == ZERO


def test_rejects_negative_lower_index():
    with pytest.raises(ValueError):
        gauss(4, -1)
    with pytest.raises(ValueError):
        gauss_eval_product(4, -1, 2)


def test_product_oracle_examples():
    assert gauss_eval_product(4, 2, 2) == 35  # (15*7)/(3*1)
    for n in (-3, 0, 9):
        assert gauss_eval_product(n, 0, 5) == 1
    assert gauss_eval_product(-2, 1, 2) == Fraction(-3, 4)
    assert gauss(-2, 1).evaluate(2) == Fraction(-3, 4)


def test_product_oracle_rejects_bad_point():
    with pytest.raises(ValueError):
        gauss_eval_product(4, 2, 1)
    with pytest.raises(ValueError):
        gauss_eval_product(4, 2, 0)
    # the arguments are checked before the memo, which holds (4, 1, 2)
    # under a key equal to (4, True, 2)
    assert gauss_eval_product(4, 1, 2) == 15
    for i, q0 in ((True, 2), (False, 2), (1, True), (1, 2.0)):
        with pytest.raises(ValueError):
            gauss_eval_product(4, i, q0)


def test_product_oracle_computes_each_point_once(monkeypatch):
    # the pascal and lemma1 cross-checks of `verify identities --max 18`
    # read 10212 products at 2625 distinct (n, i, q0), from the memo of
    # _eval_product that gauss_eval_product reads too
    assert identities._eval_product is qbinom._eval_product
    computed = []
    product = qbinom._eval_product.__wrapped__

    def spy(n, i, q0):
        computed.append((n, i, q0))
        return product(n, i, q0)

    memo = lru_cache(maxsize=None)(spy)
    asked = []
    monkeypatch.setattr(identities, "_eval_product", lambda *args: asked.append(args) or memo(*args))
    bounds = identities.GridBounds(n_min=-18, n_max=18, i_min=0, i_max=18, mat_max=18)
    assert identities.run_grid("pascal", bounds).passed and identities.run_grid("lemma1", bounds).passed
    assert len(asked) == 10212
    assert len(computed) == len(set(computed)) == len(set(asked)) == 2625


def _fraction_product(n, i, q0):
    # the defining product as the oracle once computed it, in Fractions
    num = den = 1
    for j in range(i):
        top = n - j
        if top >= 0:
            num *= q0**top - 1
        else:
            num *= 1 - q0**-top
            den *= q0**-top
        den *= q0 ** (i - j) - 1
    return Fraction(num, den)


def test_oracle_agreement_full_grid():
    # the symbolic computation, the defining product in Fractions and the
    # oracle's (N, e) must agree everywhere; N / q0^e has e the sum of
    # j - n over the factors with a negative top n - j, none when n >= 0
    for n in range(-30, 31):
        for i in range(0, 13):
            poly = gauss(n, i)
            for q0 in (2, 3, 4, 5, 7, 9):
                reference = _fraction_product(n, i, q0)
                numerator, e = qbinom._eval_product(n, i, q0)
                assert Fraction(numerator, q0**e) == reference, (n, i, q0)
                assert e == (0 if n >= 0 else sum(j - n for j in range(i))), (n, i, q0)
                assert gauss_eval_product(n, i, q0) == reference == poly.evaluate(q0), (n, i, q0)


def test_symmetry():
    for n in range(0, 13):
        for i in range(0, n + 1):
            assert gauss(n, i) == gauss(n, n - i)


def test_degree_and_palindromicity():
    for n in range(0, 13):
        for i in range(0, n + 1):
            poly = gauss(n, i)
            assert poly.valuation() == 0
            assert poly.degree() == i * (n - i)
            coeffs = [poly.coefficient(e) for e in range(i * (n - i) + 1)]
            assert coeffs == coeffs[::-1]
            assert coeffs[0] == coeffs[-1] == 1
            assert all(c >= 1 for c in (coeffs[0], coeffs[-1]))


def test_specialization_at_one_is_binomial():
    for n in range(0, 13):
        for i in range(0, n + 1):
            assert gauss(n, i).coefficient_sum() == math.comb(n, i)


def test_pascal_recurrence_everywhere():
    # genuine for n <= 0, where the computation path is the reflection
    for n in range(-8, 13):
        for i in range(1, 9):
            assert gauss(n, i) == gauss(n - 1, i - 1) + gauss(n - 1, i).shift(i), (n, i)


def test_negative_top_is_laurent():
    poly = gauss(-3, 2)
    assert poly.degree() < 0  # every exponent negative here
    # reflection lands in the polynomial regime: top = i - 1 - n >= i
    assert gauss(2 - 1 - (-3), 2).valuation() == 0


def test_deep_cells_need_no_recursion():
    # a recursive q-Pascal evaluation of [1100 1] or [1100 1099] nests about
    # 1100 calls deep, past the interpreter's default limit of 1000
    assert gauss(1100, 1) == gauss(1100, 1099) == LaurentPoly({e: 1 for e in range(1100)})


def _in_memo(cell):
    # whether the memo holds cell: looking it up must not miss
    misses = gauss.cache_info().misses
    value = gauss(*cell)
    return gauss.cache_info().misses == misses, value


def test_memo_holds_the_cells_of_the_recursion():
    # [n i] with n >= 2i reaches [c+r c] for 1 <= c <= i and r <= n-i; the
    # bottom-up fill stores the canonical ones, c <= r, and the base cells
    # [r 0] for 1 <= r <= n-i, and nothing else: no mirrored cell r < c,
    # no zero cell [c-1 c]
    canonical = {(r, 0) for r in range(1, 19)} | {(c + r, c) for c in range(1, 13) for r in range(c, 19)}
    gauss.cache_clear()
    try:
        gauss(30, 12)
        size = gauss.cache_info().currsize
        assert size == len(canonical) == 18 + 12 * 18 - 12 * 11 // 2
        assert all(_in_memo(cell)[0] for cell in canonical)
        # [-5 14] adds itself and [18 14], which is [18 4] of the same memo
        gauss(-5, 14)
        assert gauss.cache_info().currsize == size + 2
        assert _in_memo((18, 14)) == (True, gauss(18, 4))
    finally:
        gauss.cache_clear()


def test_a_mirrored_cell_is_its_canonical_cell(monkeypatch):
    # [n i] = [n n-i]: for 2i > n the memo hands out the canonical cell
    # itself, and no sweep ever starts for a mirrored cell, also not for one
    # reached through the reflection of a negative top
    sweeps = []
    sweep = qbinom._sweep

    def spy(cells, box=False):
        cells = tuple(cells)
        sweeps.append((cells, box))
        return sweep(cells, box)

    monkeypatch.setattr(qbinom, "_sweep", spy)
    gauss.cache_clear()
    try:
        assert gauss(-5, 14) == gauss(18, 4).shift(-5 * 14 - 14 * 13 // 2)  # (-1)^14 = 1
        assert sweeps == [(((18, 4),), True)] and gauss(18, 14) is gauss(18, 4)
        for n in range(-20, 41):
            for i in range(1, 21):
                top = n if n >= 0 else i - 1 - n
                if i <= top < 2 * i:
                    gauss(n, i)
                    assert gauss(top, i) is gauss(top, top - i), (n, i)
        assert sweeps and all(box and len(cells) == 1 and cells[0][0] >= 2 * cells[0][1] for cells, box in sweeps)
    finally:
        gauss.cache_clear()


def _spectrum_memo_peak():
    # traced peak of the symbolic spectrum of qK(60, 15) in both forms, from a cold memo
    gauss.cache_clear()
    tracemalloc.start()
    try:
        spectrum_table(60, 15)
        for j, terms in delsarte_terms(60, 15):
            delsarte_eigenvalue(60, 15, j, terms)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectrum_memo_holds_no_mirrored_cell():
    # The closed form reads [45-j 30] and the Delsarte sum [60-2j-s 45-j],
    # mirrors of cells in the box of [60 15].  Computed apart from it they
    # took the peak to 2071877 bytes (Python 3.11).  The canonical memo of
    # whole boxes halved the images, 1.49 to 0.77 MB, for a peak of 1199344
    # bytes, 58%, with the results and the operands re-slotted for the sums.
    # One sweep at one width that keeps only the cells read, none re-slotted
    # for the Delsarte passes: 458532 bytes, 22%.  The Delsarte terms
    # streamed from a sweep of their own, each j's dropped once its sum is
    # formed, none in the memo: 331260 bytes, 16%.  The first run pays
    # one-time allocations of about 30 kB.
    try:
        _spectrum_memo_peak()
        assert _spectrum_memo_peak() < 0.17 * 2071877
        for n in range(61):
            for i in range(n // 2 + 1, n + 1):
                found, value = _in_memo((n, i))
                assert not found or value is gauss(n, n - i), (n, i)
    finally:
        gauss.cache_clear()


def _spectrum_reads(v, k):
    # every key the table of qK(v, k) and the terms of its Delsarte column are read under
    table = [cell for j in range(k + 1) for cell in ((v - k - j, v - 2 * k), (v, j))]
    return set(table) | {(v - 2 * j - s, v - k - j) for j in range(k + 1) for s in range(k - j + 1)}


def _canonical(cells):
    # the canonical cells [n i], 1 <= i <= n - i, that cells are served from
    return {(n, min(i, n - i)) for n, i in cells if 1 <= min(i, n - i)}


def test_spectrum_memo_holds_the_planned_cells_and_no_box():
    # From a cold memo, the table of qK(60, 15) runs one sweep of the
    # canonical cells it reads, and its Delsarte column one more of the
    # canonical cells of its terms, streamed; the memo then holds the
    # table's cells and the keys it reads, mirrored ones included, and no
    # Delsarte term and no cell of the boxes swept through, such as [59 15]
    table = {cell for j in range(16) for cell in ((45 - j, 30), (60, j))}
    keys = table | {(n, n - i) for n, i in table if n < 2 * i <= 2 * n}  # with the mirrored cells read
    terms = _canonical(_spectrum_reads(60, 15) - table)
    swept = []
    sweep = qbinom._sweep

    def spy(cells, box=False):
        found = set()
        swept.append((box, found))
        for column in sweep(cells, box):
            found.update(column)
            yield column

    gauss.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qbinom, "_sweep", spy)
            spectrum_table(60, 15)
            assert len(swept) == 1
            for j, row in delsarte_terms(60, 15):
                delsarte_eigenvalue(60, 15, j, row)
        assert swept == [(False, _canonical(table)), (False, terms)]
        # [60 15] is read by both: the table reads it at j = 15 and the Delsarte sum at j = 0 as [60 45]
        assert (len(_canonical(table)), len(terms)) == (30, 120) and _canonical(table) & terms == {(60, 15)}
        assert gauss.cache_info().currsize == len(keys) == 48
        assert all(_in_memo(cell)[0] for cell in keys)
        # a miss keeps its box, so the misses go in order of n: none has a cell still to come in its box
        assert not any(_in_memo(cell)[0] for cell in sorted(terms - {(60, 15)} | {(59, 15)}))
    finally:
        gauss.cache_clear()


def test_cache_clear_leaves_no_swept_cell_behind():
    # the swept images reach the memo only through gauss's lru_cache: once
    # it is cleared, nothing of the sweep is left, and the next read misses
    gauss.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        qbinom.sweep(_spectrum_reads(60, 15))
        held = tracemalloc.get_traced_memory()[0] - before
        gauss.cache_clear()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held > 200_000 and left < 2_000, (held, left)
    assert qbinom._swept.cells == {} and gauss.cache_info().currsize == 0
    assert not _in_memo((60, 15))[0]
    gauss.cache_clear()


def _sweep(cells, box=False, exponent=lambda c: c, short=0):
    # qbinom._sweep with one knob for each negative control: the power of q
    # that column c shifts by, and rows left off the last column
    cells = tuple(cells)
    qbinom.refuse_oversized(cells)
    asked = {}
    for n, i in cells:
        top = n if n >= 0 else i - 1 - n
        if min(i, top - i) >= 1:
            asked.setdefault(min(i, top - i), set()).add(top - min(i, top - i))
    width = qbinom._slot_bytes(max((math.comb(c + max(rows), c) for c, rows in asked.items()), default=1))
    last = max(asked, default=0)
    depth = [0] * (last + 2)
    for c in range(last, 0, -1):
        depth[c] = max((depth[c + 1], *asked.get(c, ())))
    yield {(r, 0): (width, 1) for r in range(1, depth[1] + 1)} if box else {}
    column = [1] * (depth[1] + 1)
    for c in range(1, last + 1):
        shift = 8 * width * exponent(c)
        for r in range(c, depth[c] + 1 - short * (c == last)):
            column[r] += column[r - (r > c)] << shift  # the diagonal reads its own row
        yield {(c + r, c): (width, column[r]) for r in (range(c, depth[c] + 1) if box else asked.get(c, ()))}


_WRONG = {"pascal", "lemma2", "lemma3", "theorem2", "corollary1"}


@pytest.mark.parametrize("sweep, failing, certificate", [
    (_sweep, set(), "certified: yes\n"),
    (lambda cells, box=False: _sweep(cells, box, exponent=lambda c: c + 1), _WRONG, "certified: NO\n"),
    (lambda cells, box=False: _sweep(cells, box, short=1), _WRONG,
     "error: the spectrum of qK(4,2) at q=2 came out with eigenvalues [16, -4, 2] and multiplicities [1, 14, -8]\n"),
], ids=["knob-free", "column-c-shifts-by-q^(c+1)", "last-column-one-row-short"])
def test_a_wrong_sweep_fails_the_identities_and_the_certificate(capsys, monkeypatch, sweep, failing, certificate):
    # Negative controls through the CLI, beside the knob-free copy, which
    # passes.  The identities fail where gauss meets its own recurrence or a
    # sum of its cells; lemma1 does not, as both of its sides read one
    # canonical cell, and neither do the product-oracle cross-checks, which
    # run only where the sides agree and read no cell of gauss.  A wrong
    # prediction fails the certificate, or an impossible one its own guard.
    monkeypatch.setattr(qbinom, "_sweep", sweep)
    gauss.cache_clear()
    try:
        assert main(["verify", "identities", "--max", "6", "--format", "json"]) == (1 if failing else 0)
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert {report["identity"] for report in reports if not report["passed"]} == failing
        gauss.cache_clear()
        assert main(["verify", "spectrum", "4", "2", "2"]) == (1 if failing else 0)
        assert certificate in "".join(capsys.readouterr())
    finally:
        gauss.cache_clear()


def test_threads_sharing_the_memo_read_the_values_of_one_thread():
    # The lru_cache is shared and each thread hands its swept cells over in
    # its own _swept: threads that sweep and miss the same cells at once,
    # switching every 10 microseconds, read the values a single thread does.
    def work():
        table = spectrum_table(30, 8)
        column = [delsarte_eigenvalue(30, 8, j, terms) for j, terms in delsarte_terms(30, 8)]
        cells = [gauss(n, i) for n in range(-12, 25) for i in range(13)]
        return table, column, cells

    gauss.cache_clear()
    expected = work()
    gauss.cache_clear()
    results, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=lambda: results.append(work())) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        gauss.cache_clear()
    assert results == [expected] * 4


def test_oversized_memo_is_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(qbinom, "MEMO_BYTE_LIMIT", 10**4)
    gauss.cache_clear()
    with pytest.raises(ValueError, match="memo"):
        gauss(3000, 2)
    # a refusal names the cell asked for, not the one it is served from
    with pytest.raises(qbinom.MemoRefused, match=r"^\[-1200 600\]_q needs a q-Pascal memo"):
        gauss(-1200, 600)
    with pytest.raises(qbinom.MemoRefused, match=r"^\[3000 2998\]_q needs a q-Pascal memo"):
        gauss(3000, 2998)
    assert gauss.cache_info().currsize == 0
    assert gauss(6, 3) == gauss(5, 2) + gauss(5, 3).shift(3)  # small calls still run


def test_memo_estimate_prices_slots_and_stays_an_upper_bound():
    # one W-byte slot per coefficient plus the objects of each cell: gauss
    # 8000 1 (about 70 MB of images) fits, gauss 100000 1 (16 GB) does not;
    # a mirrored cell is priced as the canonical fill it runs
    assert qbinom._memo_bytes(8000, 1) < qbinom.MEMO_BYTE_LIMIT < qbinom._memo_bytes(100000, 1)
    assert qbinom._memo_bytes(100000, 99999) == qbinom._memo_bytes(100000, 1)
    for n, i in [(500, 5), (120, 40), (120, 80), (40, 20), (10, 5)]:
        gauss.cache_clear()
        tracemalloc.start()
        try:
            gauss(n, i)
            used = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gauss.cache_clear()
        assert used <= qbinom._memo_bytes(n, i), (n, i)


def _pascal_reference(top):
    # [n i] for 0 <= i <= n <= top as coefficient lists, by q-Pascal on lists
    cells = {(n, 0): [1] for n in range(top + 1)}
    for n in range(1, top + 1):
        for i in range(1, n + 1):
            left = cells[(n - 1, i - 1)]
            right = [0] * i + cells[(n - 1, i)] if i < n else []
            size = max(len(left), len(right))
            cells[(n, i)] = [a + b for a, b in zip(left + [0] * (size - len(left)), right + [0] * (size - len(right)))]
    return cells


_REFERENCE_40 = _pascal_reference(40)


def _check_memo_against_reference(order):
    gauss.cache_clear()
    try:
        for n, i in order:
            gauss(n, i)
        for (n, i), coeffs in _REFERENCE_40.items():
            poly = gauss(n, i)
            assert (poly.valuation(), poly.degree()) == (0, i * (n - i)), (n, i)
            assert [poly.coefficient(e) for e in range(i * (n - i) + 1)] == coeffs, (n, i)
            for q0 in (2, 3, 7):
                assert poly.evaluate(q0) == gauss_eval_product(n, i, q0), (n, i, q0)
    finally:
        gauss.cache_clear()


@pytest.mark.parametrize("order", ["ascending", "widest first", "shuffled"])
def test_every_memo_cell_up_to_40_matches_list_pascal(order):
    # The fills run at the width of their own top cell and re-slot what an
    # earlier fill left at another width; the order of the calls decides
    # which cells are re-slotted, widened or narrowed.
    cells = sorted(_REFERENCE_40)
    if order == "widest first":
        cells.sort(key=lambda cell: -math.comb(*cell))
    elif order == "shuffled":
        random.Random(40).shuffle(cells)
    _check_memo_against_reference(cells)


def test_a_fill_one_byte_narrower_fails_the_memo_check(monkeypatch):
    # Negative control: slots one byte short of C(n, i) must break cells.
    exact = qbinom._slot_bytes
    monkeypatch.setattr(qbinom, "_slot_bytes", lambda bound: max(exact(bound) - 1, 1))
    with pytest.raises((AssertionError, OverflowError)):
        _check_memo_against_reference([(40, 20)])


def _internals(poly):
    return poly._low, poly._width, poly._image, poly._norm


def _first_difference(route, cells):
    # the first (m, a, t) at which route differs from the literal sum in any internal, or None
    for m, a, t in cells:
        if _internals(route(m, a, t)) != _internals(alternating_sum(m, a, t, m)):
            return m, a, t
    return None


_ROUTE_GRID = [(m, a, t) for m in range(22) for a in range(-4, 26) for t in range(14)]


def test_full_alternating_sum_is_the_literal_sum():
    # the q-binomial theorem's m passes give the sum of the m + 1 products in
    # valuation, width, image and norm, also for negative and vanishing B_s
    assert len(_ROUTE_GRID) == 9240
    assert _first_difference(full_alternating_sum, _ROUTE_GRID) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(-12, 60), st.integers(0, 30))
def test_full_alternating_sum_is_the_literal_sum_to_m_40(m, a, t):
    assert _first_difference(full_alternating_sum, [(m, a, t)]) is None


def _passes(m, a, t, terms=None, exponent=lambda i: i, passes=lambda m: m, order=lambda stop: range(stop)):
    # full_alternating_sum's passes, with one knob for each negative control
    if terms is None:
        terms = [gauss(a - s, t) for s in range(m + 1)]
    bound = sum(math.comb(m, s) * term._norm for s, term in enumerate(terms))
    if not bound:
        return ZERO
    width = qbinom._slot_bytes(bound)
    low = min(term._low for term in terms if term._image)
    images = [term._image_at(width) << 8 * width * (term._low - low) if term._image else 0 for term in terms]
    for i in range(passes(m)):
        for s in order(m - i):
            images[s] -= images[s + 1] << 8 * width * exponent(i)
    return LaurentPoly._from_image(low, width, images[0], bound)


def _shift_by_q_i_plus_1(m, a, t, terms=None):
    return _passes(m, a, t, terms, exponent=lambda i: i + 1)


@pytest.mark.parametrize("route", [
    _shift_by_q_i_plus_1,
    lambda m, a, t: _passes(m, a, t, passes=lambda m: max(m - 1, 0)),
    lambda m, a, t: _passes(m, a, t, order=lambda stop: reversed(range(stop))),
], ids=["pass-i-shifts-by-q^(i+1)", "one-pass-short", "s-descending"])
def test_a_wrong_pass_fails_the_route_check(route):
    # negative controls: each fault must be caught by the grid check above,
    # which the knob-free copy of the passes passes
    assert _first_difference(_passes, _ROUTE_GRID[::7]) is None
    assert _first_difference(route, _ROUTE_GRID) is not None


def test_a_wrong_pass_makes_the_eigenvalue_forms_disagree(capsys, monkeypatch):
    # negative control through the CLI: exit 1 with the comparison's message
    monkeypatch.setattr(spectrum, "full_alternating_sum", _shift_by_q_i_plus_1)
    assert main(["eigenvalues", "6", "2", "--form", "both"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: eigenvalue forms disagree at j=[0, 1]\n")


def test_delsarte_eigenvalue_forms_no_product(monkeypatch):
    # the Delsarte column is m shift-and-subtract passes: with every sum of
    # products refused it still computes, and still equals the closed form
    def refuse(terms):
        raise AssertionError("a sum of products was formed")

    monkeypatch.setattr(qbinom, "sum_of_products", refuse)
    monkeypatch.setattr(laurent, "sum_of_products", refuse)
    for k in range(0, 6):
        for v in range(2 * k, 15):
            for j in range(k + 1):
                assert delsarte_eigenvalue(v, k, j) == simple_eigenvalue(v, k, j), (v, k, j)
    with pytest.raises(AssertionError, match="sum of products"):
        alternating_sum(2, 4, 1, 2)
