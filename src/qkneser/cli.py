"""Command-line front end.

Subcommands:

  gauss N I [--q Q] [--format F]       Gaussian binomial, symbolic or at q=Q
  eigenvalues V K [--q Q] [--form ...] q-Kneser spectrum table
  verify identities [--max N]          sweep all six identity grids
  verify spectrum V K Q [--budget B]   brute-force spectrum certification
  count-subspaces V K Q                enumeration count vs formula

Exit codes: 0 success/certified, 1 verification failure, 2 usage or
resource error (a MemoryError, an OSError such as an unusable --dump
directory or too little disk for the dump, or a value too long to print).  Output ordering is
deterministic everywhere so that csv/json outputs can be golden-file
tested.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import sys
from fractions import Fraction
from math import log10
from pathlib import Path

from .gf import factor_prime_power, field_of_order
from .identities import IDENTITY_IDS, GridBounds, run_grid
from .laurent import InvariantError
from .oracle import (  # build_adjacency, the dense reference, is not called here; bench/tracer.py wraps it by name
    DEFAULT_VERTEX_BUDGET,
    Incidence,
    build_adjacency,
    certify_spectrum,
    check_vertex_budget,
    dump_adjacency,
    dump_certification,
    dump_vertices,
    enumerate_subspaces,
    vertex_automorphisms,
)
from .qbinom import gauss, gauss_eval_product, sweep
from .spectrum import delsarte_eigenvalue, delsarte_terms, spectrum_table


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of the CLI.  Every subcommand is registered with its name and help; given argv,
    only the subcommands that argv names get their arguments and nested subcommands, as argparse
    enters no other (nor shows its usage, help or errors).  Without argv, the whole tree."""
    named = (lambda name: True) if argv is None else set(argv).__contains__
    parser = argparse.ArgumentParser(
        prog="qkneser",
        description="Exact Gaussian binomials and q-Kneser graph spectra, with brute-force certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gauss = sub.add_parser("gauss", help="Gaussian binomial [n choose i]_q")
    if named("gauss"):
        p_gauss.add_argument("n", type=int, help="top index (any integer)")
        p_gauss.add_argument("i", type=int, help="lower index (nonnegative)")
        p_gauss.add_argument("--q", type=int, default=None, metavar="Q",
                             help="evaluate exactly at integer Q >= 2 instead of printing the polynomial")
        p_gauss.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p_gauss.set_defaults(handler=cmd_gauss)

    p_eig = sub.add_parser("eigenvalues", help="spectrum of qK(v,k): eigenvalues and multiplicities")
    if named("eigenvalues"):
        p_eig.add_argument("v", type=int, help="ambient dimension (v >= 2k)")
        p_eig.add_argument("k", type=int, help="subspace dimension (k >= 1)")
        p_eig.add_argument("--q", type=int, default=None, metavar="Q",
                           help="evaluate at prime power Q instead of printing polynomials")
        p_eig.add_argument("--form", choices=("simple", "delsarte", "both"), default="simple",
                           help="closed form, alternating-sum form, or both side by side")
        p_eig.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p_eig.set_defaults(handler=cmd_eigenvalues)

    p_verify = sub.add_parser("verify", help="verification suites")
    if named("verify"):
        verify_sub = p_verify.add_subparsers(dest="what", required=True)

        p_ident = verify_sub.add_parser("identities", help="check all six identity grids exactly")
        if named("identities"):
            p_ident.add_argument("--max", type=int, default=10, metavar="N",
                                 help="grid size: n in [-N, N], i and a in [0, N], m,a,t <= N (default 10)")
            p_ident.add_argument("--format", choices=("table", "json"), default="table")
            p_ident.add_argument("--sabotage", action="store_true", help=argparse.SUPPRESS)
            p_ident.set_defaults(handler=cmd_verify_identities)

        p_spec = verify_sub.add_parser("spectrum", help="certify the predicted spectrum by brute force")
        if named("spectrum"):
            p_spec.add_argument("v", type=int)
            p_spec.add_argument("k", type=int)
            p_spec.add_argument("q", type=int, help="prime power field order")
            p_spec.add_argument("--budget", type=int, default=DEFAULT_VERTEX_BUDGET, metavar="B",
                                help=f"vertex budget (default {DEFAULT_VERTEX_BUDGET})")
            p_spec.add_argument("--dump", metavar="DIR", type=Path, default=None,
                                help="write vertices.txt, adjacency.txt, certification.json to DIR")
            p_spec.set_defaults(handler=cmd_verify_spectrum)

    p_count = sub.add_parser("count-subspaces", help="enumerate k-subspaces and compare with the formula")
    if named("count-subspaces"):
        p_count.add_argument("v", type=int)
        p_count.add_argument("k", type=int)
        p_count.add_argument("q", type=int, help="prime power field order")
        p_count.add_argument("--budget", type=int, default=DEFAULT_VERTEX_BUDGET, metavar="B",
                             help=f"vertex budget (default {DEFAULT_VERTEX_BUDGET})")
        p_count.set_defaults(handler=cmd_count_subspaces)

    return parser


# ----------------------------------------------------------------------


def cmd_gauss(args: argparse.Namespace) -> int:
    if args.i < 0:
        raise ValueError(f"lower index must be nonnegative, got {args.i}")
    if args.q is None:
        sweep(((args.n, args.i),))  # the one cell printed, not the box that a plain gauss miss keeps
        value = str(gauss(args.n, args.i))
    else:
        # q0^(i(n-i)) <= [n i]_q0 for n >= i, q0^(i(i-1)/2 - ni) its denominator for n < 0
        n, i, what = args.n, args.i, f"[{args.n} {args.i}]_q at q={args.q}"
        exponent = i * (n - i) if n >= i else i * (i - 1) // 2 - n * i if n < 0 else 0
        _refuse_unprintable(what, args.q, exponent)
        value = str(_printable(what, gauss_eval_product(n, i, args.q)))
    if args.format == "table":
        print(value)
    elif args.format == "json":
        print(json.dumps({"schema": "qkneser.gauss@1", "n": args.n, "i": args.i,
                          "q": args.q, "value": value}))
    else:
        _print_csv(["n", "i", "q", "value"],
                   [[args.n, args.i, "" if args.q is None else args.q, value]])
    return 0


def _spectrum_cells(v: int, k: int, q0: int | None, form: str):
    table = spectrum_table(v, k, q0)
    column = {}  # the Delsarte column, j = k..0, its terms from one sweep that keeps none of them
    if form != "simple":
        for j, terms in delsarte_terms(v, k):
            dels = delsarte_eigenvalue(v, k, j, terms)
            if q0 is not None:
                dels = dels.evaluate_int(q0)
            simple = table.entries[j].eigenvalue
            column[j] = simple if dels == simple else dels  # a value equal to the closed form's is held once
    what = f"qK({v},{k}) at q={q0}"
    rows = []
    for entry in table.entries:
        simple = entry.eigenvalue
        cell = {"j": entry.j, "multiplicity": _render(entry.multiplicity, what)}
        if form in ("simple", "both"):
            cell["eigenvalue"] = _render(simple, what)
        if form in ("delsarte", "both"):
            dels = column[entry.j]
            key = "eigenvalue_delsarte" if form == "both" else "eigenvalue"
            # equal values render alike, so the closed form's string serves both
            cell[key] = cell["eigenvalue"] if form == "both" and dels == simple else _render(dels, what)
        rows.append(cell)
    return table, rows


def _render(value, what: str) -> str | int:
    return _printable(what, value) if isinstance(value, int) else str(value)


def cmd_eigenvalues(args: argparse.Namespace) -> int:
    if args.q is not None and args.v >= 2 * args.k >= 2:
        factor_prime_power(args.q)  # named first; the degree q^(k^2) [v-k k]_q is >= q^(k(v-k))
        _refuse_unprintable(f"qK({args.v},{args.k}) at q={args.q}", args.q, args.k * (args.v - args.k))
    table, rows = _spectrum_cells(args.v, args.k, args.q, args.form)
    if args.form == "both":
        disagreements = [r["j"] for r in rows if r["eigenvalue"] != r["eigenvalue_delsarte"]]
        if disagreements:
            print(f"error: eigenvalue forms disagree at j={disagreements}", file=sys.stderr)
            return 1
        header = ["j", "eigenvalue", "eigenvalue_delsarte", "multiplicity"]
    else:
        header = ["j", "eigenvalue", "multiplicity"]
    if args.format == "json":
        payload = {"v": table.v, "k": table.k, "q": table.q,
                   "entries": [{key: r[key] for key in header} for r in rows]}
        print(json.dumps(payload))
    elif args.format == "csv":
        _print_csv(header, [[r[key] for key in header] for r in rows])
    else:
        widths = [max(len(str(r[key])) for r in rows + [dict(zip(header, header))]) for key in header]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        for r in rows:
            print("  ".join(str(r[key]).ljust(w) for key, w in zip(header, widths)).rstrip())
    return 0


def cmd_verify_identities(args: argparse.Namespace) -> int:
    if args.max < 1:
        raise ValueError(f"--max must be >= 1, got {args.max}")
    bounds = GridBounds(n_min=-args.max, n_max=args.max, i_min=0, i_max=args.max, mat_max=args.max)
    reports = [run_grid(identity, bounds, sabotage=args.sabotage) for identity in IDENTITY_IDS]
    ok = all(r.passed for r in reports)
    if args.format == "json":
        print(json.dumps({"schema": "qkneser.identity-report@1", "max": args.max,
                          "passed": ok, "reports": [r.to_json_dict() for r in reports]}))
    else:
        for report in reports:
            print(report.render_table())
        print(f"total: {sum(r.checked for r in reports)} instances, "
              f"{sum(len(r.failures) for r in reports)} failures")
    return 0 if ok else 1


def cmd_verify_spectrum(args: argparse.Namespace) -> int:
    n = check_vertex_budget(args.v, args.k, args.q, args.budget)
    ctx = field_of_order(args.q)
    predicted = spectrum_table(args.v, args.k, args.q)
    if args.dump is not None:  # an unusable directory or dump name, or too little disk, is an OSError (exit 2)
        args.dump.mkdir(parents=True, exist_ok=True)  # before any enumeration
        free = shutil.disk_usage(args.dump).free  # plus the size of the dump files that the dump replaces
        for name in ("vertices.txt", "adjacency.txt", "certification.json"):
            if (args.dump / name).is_file():
                free += (args.dump / name).stat().st_size
            elif (args.dump / name).exists():
                raise OSError(f"{args.dump / name} exists and is not a regular file")
        if 2 * n * n > free:  # two bytes per entry of A
            raise OSError(f"adjacency.txt of {n} vertices needs {2 * n * n} bytes, {args.dump} has {free} "
                          f"free (counting the dump files it would replace)")
    bases = enumerate_subspaces(ctx, args.v, args.k, budget=args.budget)
    graph = Incidence(bases, ctx)
    result = certify_spectrum(graph, predicted, vertex_automorphisms(graph))

    print(f"qK({args.v},{args.k}) over GF({args.q}): {result.vertex_count} vertices, degree {result.degree}")
    print(f"predicted spectrum: " + ", ".join(
        f"{lam}^{mult}" for lam, mult in zip(result.predicted_eigenvalues, result.predicted_multiplicities)))
    print(f"moments tr(A^m), m=0..{result.k}: {result.moments}")
    print(f"annihilation: {'ok' if result.annihilation_ok else 'FAIL'}")
    print(f"moments:      {'ok' if result.moments_ok else 'FAIL'}")
    if result.residual_entry:
        i, j, value = result.residual_entry
        print(f"  nonzero residual at ({i},{j}): {value}")
    for m, expected, actual in result.offending_moments:
        print(f"  moment m={m}: expected {expected}, got {actual}")
    print(f"certified: {'yes' if result.certified else 'NO'}")

    if args.dump is not None:
        _dump(args.dump, {"vertices.txt": lambda path: dump_vertices(bases, path),
                          "adjacency.txt": lambda path: dump_adjacency(graph.adjacency_strips(), path),
                          "certification.json": lambda path: dump_certification(result, path)})
        print(f"dumped vertices.txt, adjacency.txt, certification.json to {args.dump}")
    return 0 if result.certified else 1


def _dump(directory: Path, writers: dict) -> None:
    # every file is written under a temporary name first and renamed once
    # all are written, so a failure (exit 2) leaves no partial dump behind
    temporary = {name: directory / f".{name}.tmp" for name in writers}
    try:
        for name, write in writers.items():
            write(temporary[name])
        for name, path in temporary.items():
            os.replace(path, directory / name)
    finally:
        for path in temporary.values():
            path.unlink(missing_ok=True)


def cmd_count_subspaces(args: argparse.Namespace) -> int:
    predicted = check_vertex_budget(args.v, args.k, args.q, args.budget)
    bases = enumerate_subspaces(field_of_order(args.q), args.v, args.k, budget=args.budget)
    # enumerate_subspaces raises InvariantError (exit 1) if the count differs from the formula
    print(f"{len(bases)} = {predicted}")
    return 0


# ----------------------------------------------------------------------


def _refuse_unprintable(what: str, q0: int, exponent: int) -> None:
    """Refuse, before computing it, a value >= q0^exponent that str() could not print; none that it could."""
    limit = sys.get_int_max_str_digits()
    if limit and q0 >= 2 and exponent >= limit / log10(q0):
        digits = int(exponent * Fraction(log10(q0))) + 1
        raise ValueError(f"{what} has at least {digits} digits, above the limit of {limit} "
                         f"for integer string conversion")


def _printable(what: str, value):
    """value, refused in _refuse_unprintable's words with its digit count when str() could not print it."""
    limit = sys.get_int_max_str_digits()
    part = max(abs(value.numerator), value.denominator)
    if limit and part >= 10**limit:
        digits = limit + 1
        while part >= 10**digits:
            digits += 1
        raise ValueError(f"{what} has {digits} digits, above the limit of {limit} for integer string conversion")
    return value


def _print_csv(header: list[str], rows: list[list]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)  # read twice: by build_parser and by the parse
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():  # before Python 3.12 a "--" after "--" is a positional's value [], unconverted
            parser.error("a positional argument got '--', not a value")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
