"""Eigenvalues and multiplicities of the q-Kneser graph qK(v, k).

qK(v, k) has the k-dimensional subspaces of F_q^v as vertices, adjacent
when they intersect trivially.  For v >= 2k its distinct eigenvalues are
indexed by j = 0..k and admit two closed forms, both implemented here as
first-class operations on exact Laurent polynomials:

  delsarte_eigenvalue(v, k, j) =
      (-1)^j q^((k-j)j + C(j,2)) *
      sum_{s=0}^{k-j} (-1)^s q^C(s,2) [k-j s] [v-2j-s v-k-j]

  simple_eigenvalue(v, k, j) =
      (-1)^j q^(C(k,2) + C(k-j+1,2)) [v-k-j v-2k]

They are theorem 2's left and right sides (identities.py) at (m, a, t) =
(k-j, v-2j, v-k-j), times (-1)^j q^((k-j)j + C(j,2)).  The Delsarte form
runs the left side by the q-binomial theorem (qbinom.full_alternating_sum),
not as the literal sum that theorem2's grid checks, on terms streamed from a
q-Pascal sweep of their own (delsarte_terms) that never enter gauss's memo;
the closed form reads the right side's mirror cell.  Their symbolic equality
over a parameter grid is the central acceptance test of this package.  The
multiplicity of the j-th eigenvalue is 1 for j = 0 and [v j] - [v j-1] for
j >= 1, an explicit branch.

For k <= v < 2k the graph is null (no two k-subspaces can intersect
trivially), and all operations here reject that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .gf import factor_prime_power
from .laurent import ONE, InvariantError, LaurentPoly
from .qbinom import full_alternating_sum, gauss, stream, sweep


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenspace: index j, eigenvalue, multiplicity.

    Symbolic tables hold LaurentPoly values; evaluated tables hold ints.
    """

    j: int
    eigenvalue: LaurentPoly | int
    multiplicity: LaurentPoly | int


@dataclass(frozen=True)
class SpectrumTable:
    """The full spectrum of qK(v, k): k+1 entries ordered by j.

    q is None for a symbolic table and the evaluation point otherwise.
    """

    v: int
    k: int
    q: int | None
    entries: tuple[SpectrumEntry, ...]

    def eigenvalues(self) -> list[LaurentPoly | int]:
        return [entry.eigenvalue for entry in self.entries]

    def multiplicities(self) -> list[LaurentPoly | int]:
        return [entry.multiplicity for entry in self.entries]


def _validate_vkj(v: int, k: int, j: int | None, *, min_k: int) -> None:
    if k < min_k:
        raise ValueError(f"k must be >= {min_k}, got k={k}")
    if v < 2 * k:
        if v >= k:
            raise ValueError(
                f"qK({v},{k}) is the null graph (for k <= v < 2k no two "
                f"k-subspaces intersect trivially); need v >= 2k"
            )
        raise ValueError(f"need v >= 2k, got v={v}, k={k}")
    if j is not None and not 0 <= j <= k:
        raise ValueError(f"eigenvalue index must satisfy 0 <= j <= k, got j={j}")


def delsarte_eigenvalue(v: int, k: int, j: int, terms: list[LaurentPoly] | None = None) -> LaurentPoly:
    """The alternating-sum form of the j-th eigenvalue of qK(v, k).

    terms, if given, are its terms [v-2j-s v-k-j], s = 0..k-j, as
    delsarte_terms(v, k) hands them out for j; without them it sweeps its
    own k-j+1 cells.  Neither way puts a cell into gauss's memo.
    """
    _validate_vkj(v, k, j, min_k=0)
    if terms is None:
        ((_, terms),) = _delsarte_terms(v, k, (j,))
    result = full_alternating_sum(k - j, v - 2 * j, v - k - j, terms).shift((k - j) * j + j * (j - 1) // 2)
    return -result if j % 2 else result


def delsarte_terms(v: int, k: int) -> Iterator[tuple[int, list[LaurentPoly]]]:
    """(j, terms) for j = k, k-1, ..., 0: the terms of delsarte_eigenvalue(v, k, j), from one sweep.

    The terms of j, [v-2j-s v-k-j] for s = 0..k-j, are the canonical cells
    [v-k-j+c c] of row v-k-j in the columns c = k-j-s, so one q-Pascal
    sweep (qbinom.stream) finishes them all with column k-j.  It hands j
    out there and holds none of its cells after, and no cell enters gauss's
    memo.  The cells are priced before the first column, where a refused
    one raises MemoRefused; none is priced above [v k], so a spectrum_table
    of qK(v, k) that was not refused refuses none of them.
    """
    _validate_vkj(v, k, None, min_k=0)
    return _delsarte_terms(v, k, range(k, -1, -1))


def _delsarte_terms(v: int, k: int, js: Iterable[int]) -> Iterator[tuple[int, list[LaurentPoly]]]:
    # (j, terms) for each j of js, k - j ascending, from one stream of their cells
    pending = sorted(set(js), reverse=True)
    held: dict[int, list[LaurentPoly]] = {j: [] for j in pending}  # j's terms so far, s descending
    cells = [(v - 2 * j - s, v - k - j) for j in reversed(pending) for s in range(k - j + 1)]
    for c, column in enumerate(stream(cells)):
        for j, terms in held.items():
            terms.append(column[(v - k - j + c, c)] if c else ONE)
        while pending and k - pending[0] == c:
            j = pending.pop(0)
            yield j, held.pop(j)[::-1]


def simple_eigenvalue(v: int, k: int, j: int) -> LaurentPoly:
    """The closed single-coefficient form of the j-th eigenvalue of qK(v, k)."""
    _validate_vkj(v, k, j, min_k=0)
    result = gauss(v - k - j, v - 2 * k).shift(k * (k - 1) // 2 + (k - j + 1) * (k - j) // 2)
    return -result if j % 2 else result


def multiplicity(v: int, k: int, j: int) -> LaurentPoly:
    """Multiplicity of the j-th eigenvalue: 1 for j = 0, else [v j] - [v j-1]."""
    _validate_vkj(v, k, j, min_k=1)
    if j == 0:
        return ONE
    return gauss(v, j) - gauss(v, j - 1)


def spectrum_table(v: int, k: int, q0: int | None = None) -> SpectrumTable:
    """Spectrum of qK(v, k): symbolic, or evaluated at a prime power q0.

    Uses the closed eigenvalue form.  Requires v >= 2k >= 2; an evaluated
    table requires q0 to be a prime power (the graph needs an actual
    field, unlike the purely polynomial identities).  Its eigenvalues
    are distinct, their absolute values falling with j, and its
    multiplicities [v j]_q0 - [v j-1]_q0 positive; a table that comes out
    otherwise raises InvariantError.

    Every Gaussian binomial the table reads goes to one qbinom.sweep
    before the first is read, in reading order, so an oversized table is
    refused before any cell is computed, and gauss's memo keeps those cells
    and nothing else.  The alternating-sum column is not part of the
    table: delsarte_terms streams its terms from a sweep of its own, which
    leaves nothing in the memo, and no cell of it is priced above [v k],
    which the table prices.
    """
    _validate_vkj(v, k, None, min_k=1)
    if q0 is not None:
        factor_prime_power(q0)  # raises for non-prime-powers and q0 < 2
    # the cells the loop reads, in its order ([v j-1] was read at j-1)
    sweep(cell for j in range(k + 1) for cell in ((v - k - j, v - 2 * k), (v, j)))
    entries = []
    for j in range(k + 1):
        eig = simple_eigenvalue(v, k, j)
        mult = multiplicity(v, k, j)
        if q0 is None:
            entries.append(SpectrumEntry(j, eig, mult))
        else:
            # both are honest polynomials for v >= 2k, so the values are integers
            entries.append(SpectrumEntry(j, eig.evaluate_int(q0), mult.evaluate_int(q0)))
    table = SpectrumTable(v=v, k=k, q=q0, entries=tuple(entries))
    if q0 is not None and (len(set(table.eigenvalues())) <= k or min(table.multiplicities()) <= 0):
        raise InvariantError(f"the spectrum of qK({v},{k}) at q={q0} came out with eigenvalues "
                             f"{table.eigenvalues()} and multiplicities {table.multiplicities()}")
    return table
