"""Exact verification of six Gaussian-binomial identities.

Each check compares both sides of an identity as normalized Laurent
polynomials, so a single passing instance proves the identity at that
parameter tuple for every value of q simultaneously.  The identities,
with C(s,2) = s(s-1)/2:

  pascal      [n i] = [n-1 i-1] + q^i [n-1 i]                    (i >= 1)
  lemma1      [n i] = (-1)^i q^(ni - C(i,2)) [i-1-n i]           (i >= 0)
  lemma2      sum_{s=0}^{a} (-1)^s q^C(s,2) [n s] = q^(na) [a-n a]
  lemma3      sum_{s=0}^{a} (-1)^s q^C(s,2) [m s][a-s t]
                  = q^(m(a-t)) [a-m a-t]                     (t <= a <= m)
  theorem2    same sum truncated at s = m, valid for a >= m, a >= t
  corollary1  theorem2 at t = a-m, with right side q^(m^2) [a-m m]

The IDENTITIES table holds one Identity record per identity: its sides,
its parameter box in GridBounds, its precondition and an optional
independent cross-check.  check() and run_grid() are generic over that
record; run_grid sweeps every admissible tuple of a box and reports
failures as data (parameter tuple plus both renderings), not as
exceptions.

pascal is the recurrence gauss runs for n >= i >= 1 and lemma1 the
reflection it takes for n < 0, so the symbolic comparison alone would be
circular for both; their cross-checks route both sides through the
product-formula oracle at q0 in {2, 3, 5}.  The oracle gives each value
as a pair (N, e) for N / q0^e (qbinom._eval_product), and the checks
compare integers: both sides times one power of q0, high enough to clear
every denominator.  Only a mismatch is rendered, as the Fraction of each
side.  lemma2 to corollary1 share one pair of sides
(qbinom.alternating_sum on the left).  Both eigenvalue forms (spectrum.py)
are theorem2's sides, but the Delsarte form computes the left side by
another route, qbinom.full_alternating_sum: the grid checks the sum as
written, and `eigenvalues --form both` checks that route against the
closed form.  corollary1's cross-check against theorem2
at t = a-m catches a mis-wired substitution, not an independent route.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, Optional

from .laurent import LaurentPoly
from .qbinom import _eval_product, alternating_sum, gauss

_ORACLE_POINTS = (2, 3, 5)

Sides = tuple[LaurentPoly, LaurentPoly]
Mismatch = Optional[tuple[str, str]]


@dataclass(frozen=True)
class GridBounds:
    """Parameter box for run_grid.

    n_min..n_max bound the integer top n of pascal/lemma1/lemma2;
    i_min..i_max bound their nonnegative second parameter (i, or a for
    lemma2); mat_max caps each of m, a, t in the three-parameter
    identities.  Empty ranges are allowed and yield empty reports.
    """

    n_min: int = -8
    n_max: int = 12
    i_min: int = 0
    i_max: int = 8
    mat_max: int = 10

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class IdentityReport:
    """Outcome of sweeping one identity over a parameter grid.

    failures holds (parameter tuple, LHS rendering, RHS rendering) for
    every violated instance; the sweep passed iff failures is empty.
    """

    identity: str
    bounds: GridBounds
    checked: int = 0
    failures: list[tuple[tuple[int, ...], str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "bounds": self.bounds.to_json_dict(),
            "checked": self.checked,
            "failures": [
                {"params": list(params), "lhs": lhs, "rhs": rhs}
                for params, lhs, rhs in self.failures
            ],
            "passed": self.passed,
        }

    def render_table(self) -> str:
        status = "ok" if self.passed else "FAIL"
        lines = [f"{self.identity:<12} checked={self.checked:<6} failures={len(self.failures):<4} {status}"]
        for params, lhs, rhs in self.failures:
            lines.append(f"    at {params}: LHS = {lhs}  !=  RHS = {rhs}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# both sides of each identity, symbolically


def pascal_sides(n: int, i: int) -> Sides:
    lhs = gauss(n, i)
    rhs = gauss(n - 1, i - 1) + gauss(n - 1, i).shift(i)
    return lhs, rhs


def lemma1_sides(n: int, i: int) -> Sides:
    lhs = gauss(n, i)
    reflected = gauss(i - 1 - n, i).shift(n * i - i * (i - 1) // 2)
    rhs = -reflected if i % 2 else reflected
    return lhs, rhs


def _alternating_sides(m: int, a: int, t: int, top: int) -> Sides:
    # sum_{s=0}^{top} (-1)^s q^C(s,2) [m s][a-s t]  against  q^(m(a-t)) [a-m a-t]
    return alternating_sum(m, a, t, top), gauss(a - m, a - t).shift(m * (a - t))


def lemma2_sides(n: int, a: int) -> Sides:
    return _alternating_sides(n, a, 0, top=a)


def lemma3_sides(m: int, a: int, t: int) -> Sides:
    return _alternating_sides(m, a, t, top=a)


def theorem2_sides(m: int, a: int, t: int) -> Sides:
    return _alternating_sides(m, a, t, top=m)


def corollary1_sides(m: int, a: int) -> Sides:
    return _alternating_sides(m, a, a - m, top=m)


# ----------------------------------------------------------------------
# independent cross-checks, run once both sides already agree


def _pascal_oracle_mismatch(params: tuple[int, ...], lhs: LaurentPoly, rhs: LaurentPoly) -> Mismatch:
    # gauss runs this very recurrence, so the symbolic comparison is a
    # tautology; the defining product at sampled points is not.  Both sides
    # are taken times q0^top, integers since top is at least every e.
    n, i = params
    for q0 in _ORACLE_POINTS:
        left, e = _eval_product(n, i, q0)
        low, e_low = _eval_product(n - 1, i - 1, q0)
        high, e_high = _eval_product(n - 1, i, q0)
        top = max(e, e_low, e_high)
        left *= q0 ** (top - e)
        right = low * q0 ** (top - e_low) + high * q0 ** (i + top - e_high)
        if left != right:
            return _rendered(q0, left, top), _rendered(q0, right, top)
    return None


def _lemma1_oracle_mismatch(params: tuple[int, ...], lhs: LaurentPoly, rhs: LaurentPoly) -> Mismatch:
    # Both sides through the defining product at sampled points, which is
    # independent of the Laurent-ring computation path; both are taken
    # times q0^top, with top chosen to leave every exponent nonnegative.
    n, i = params
    shift = n * i - i * (i - 1) // 2
    sign = -1 if i % 2 else 1
    for q0 in _ORACLE_POINTS:
        left, e = _eval_product(n, i, q0)
        reflected, e_reflected = _eval_product(i - 1 - n, i, q0)
        top = max(e, e_reflected - shift)
        left *= q0 ** (top - e)
        right = sign * reflected * q0 ** (shift + top - e_reflected)
        if left != right:
            return _rendered(q0, left, top), _rendered(q0, right, top)
    return None


def _rendered(q0: int, scaled: int, top: int) -> str:
    # a side, held as scaled = value * q0^top, as the Fraction it stands for
    return f"at q0={q0}: {Fraction(scaled, q0**top)}"


def _corollary1_theorem2_mismatch(params: tuple[int, ...], lhs: LaurentPoly, rhs: LaurentPoly) -> Mismatch:
    # The corollary must coincide, side by side, with theorem2 at t = a-m.
    m, a = params
    lhs_t, rhs_t = theorem2_sides(m, a, a - m)
    if lhs != lhs_t:
        return f"corollary LHS {lhs}", f"theorem2 LHS {lhs_t}"
    if rhs != rhs_t:
        return f"corollary RHS {rhs}", f"theorem2 RHS {rhs_t}"
    return None


# ----------------------------------------------------------------------
# the identity table


@dataclass(frozen=True)
class Identity:
    """One identity: sides, parameter box, precondition, optional cross-check.

    The admissible tuples are those of box(bounds), in lexicographic
    order, that satisfy precondition (stated in words by requirement).
    cross_check is an independent route run on (params, lhs, rhs) once the
    sides agree; it returns the mismatching renderings or None.
    """

    sides: Callable[..., Sides]
    precondition: Callable[..., bool]
    requirement: str
    mat_params: int = 0  # parameters drawn from 0..mat_max; 0 means the (n, i) box
    cross_check: Callable[[tuple[int, ...], LaurentPoly, LaurentPoly], Mismatch] | None = None

    def box(self, b: GridBounds) -> Iterator[tuple[int, ...]]:
        if self.mat_params:
            return product(range(b.mat_max + 1), repeat=self.mat_params)
        return product(range(b.n_min, b.n_max + 1), range(b.i_min, b.i_max + 1))


IDENTITIES: dict[str, Identity] = {
    "pascal": Identity(pascal_sides, lambda n, i: i >= 1, "i >= 1", cross_check=_pascal_oracle_mismatch),
    "lemma1": Identity(lemma1_sides, lambda n, i: i >= 0, "i >= 0", cross_check=_lemma1_oracle_mismatch),
    "lemma2": Identity(lemma2_sides, lambda n, a: a >= 0, "a >= 0"),
    "lemma3": Identity(lemma3_sides, lambda m, a, t: 0 <= t <= a <= m, "0 <= t <= a <= m", mat_params=3),
    "theorem2": Identity(theorem2_sides, lambda m, a, t: 0 <= m <= a and 0 <= t <= a,
                         "a >= m >= 0 and a >= t >= 0", mat_params=3),
    "corollary1": Identity(corollary1_sides, lambda m, a: 0 <= m <= a, "0 <= m <= a", mat_params=2,
                           cross_check=_corollary1_theorem2_mismatch),
}

IDENTITY_IDS = tuple(IDENTITIES)


def _lookup(name: str) -> Identity:
    if name not in IDENTITIES:
        raise ValueError(f"unknown identity {name!r}; expected one of {IDENTITY_IDS}")
    return IDENTITIES[name]


def _mismatch(identity: Identity, params: tuple[int, ...], sabotage: bool = False) -> Mismatch:
    lhs, rhs = identity.sides(*params)
    if sabotage:
        rhs = rhs.shift(1)
    if lhs != rhs:
        return str(lhs), str(rhs)
    if sabotage or identity.cross_check is None:
        return None
    return identity.cross_check(params, lhs, rhs)


def check(name: str, *params: int) -> bool:
    """Whether the named identity holds at params, cross-check included.

    Raises ValueError for an unknown name, a tuple of the wrong length or
    a tuple outside the identity's precondition.
    """
    identity = _lookup(name)
    arity = identity.mat_params or 2
    if len(params) != arity:
        raise ValueError(f"{name} takes {arity} parameters, got {len(params)}: {params}")
    if not identity.precondition(*params):
        raise ValueError(f"{name} requires {identity.requirement}, got {params}")
    return _mismatch(identity, params) is None


def run_grid(identity: str, bounds: GridBounds | None = None, *, sabotage: bool = False) -> IdentityReport:
    """Check one identity over every admissible tuple in bounds.

    Identity violations are data: each failing tuple is recorded with the
    renderings of both sides.  With sabotage=True the RHS is multiplied
    by q before comparison, a deliberate off-by-one in its exponent that
    proves the harness can fail; it exists for negative-control tests and
    skips the cross-checks.
    """
    bounds = GridBounds() if bounds is None else bounds
    record = _lookup(identity)
    report = IdentityReport(identity=identity, bounds=bounds)
    for params in record.box(bounds):
        if not record.precondition(*params):
            continue
        report.checked += 1
        mismatch = _mismatch(record, params, sabotage)
        if mismatch is not None:
            report.failures.append((params, *mismatch))
    return report
