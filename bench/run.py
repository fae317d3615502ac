"""qkneser benchmark: the real CLI, end to end, one fresh process per command.

Usage, from the root of the repository:

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py            # both workloads untraced, then traced

A workload is a fixed set of CLI commands; a run repeats rounds of one
of each for --seconds.  Each command runs in a fresh interpreter
(bench/child.py) that imports qkneser from ``src/`` and calls ``qkneser.cli.main(argv)`` in-process, so
the gauss memo and the field tables start cold, as every CLI user pays.
No warm-up is applied; the only discarded call is one set-up probe per
run, which lets Python write its bytecode cache once per checkout.  One
client, closed loop: the next command starts when the previous one has
finished, and a round starts only if it can be expected to finish within
--seconds (at least one round).

  certify   verify spectrum 4 2 5 (n = 806, 24 vectors per vertex: the
            pairwise adjacency loop takes about 2/3 of the time; 3 float64
            products) and verify spectrum 6 3 2 --dump (n = 1395, k = 3:
            5 exact products with the bound reaching 2^32, and a 3.9 MB
            dump beside the compute path)
  symbolic  verify identities --max 18 (6062 identity instances of small
            Laurent operations at a ~99% gauss memo hit ratio, no numpy)
            and eigenvalues 100 25 --form both (351 products of large
            polynomials at a ~53% memo hit ratio, ~180 MB of memo, 2 MB
            printed)

Two workloads of two commands each, rather than one workload per command,
so that each run can last about a minute.  Even so the speed of a shared
host drifts by up to a third between runs, and the set-up time of a fixed
import drifts with it; so wall time is reported in units of a fixed
reference computation that every round times beside the commands
(wall_rel), and in seconds as a per-layer figure.

The CLI has no randomness and its work depends only on argv, so --seed is
accepted and recorded but does not change the inputs.

Every command passes a correctness gate: exit code 0, sha256 of stdout
equal to the digest recorded for the command (the CLI output is promised
byte-identical across changes), and for the --dump command a certification.json
with certified true, moments equal to expected_moments and a vertex count
equal to predicted_vertex_count.  A failed command counts against
ok_ratio and the run carries on.

End-to-end metrics (--trace 0):

  setup_s      interpreter start until ``import qkneser`` returns; median
               over every command and set-up probe of the run (at least
               six probes)
  wall_rel     one round in reference units: the sum over the workload's
               commands of the median time of the CLI call, divided by
               the median time of the reference computation, which runs
               in the set-up probe of every round (bench/child.py)
  peak_rss_mb  ru_maxrss of the command's process; the largest of the
               commands' medians
  ok_ratio     commands that passed the gate / commands attempted

Per-layer metrics (--trace 1) come from a traced process (bench/tracer.py)
that alternates with an untraced one.  ``*_s`` are self times; like the
counts they are per round (sum over the commands of their medians), except
intmatrix.bound_bits_max and qbinom.memo_entries (largest of the commands)
and qbinom.memo_hit_ratio (hits / lookups over the round).
cli.wall_s is the untraced round in seconds, host.ref_s the reference
computation, and trace.overhead_s the traced minus the untraced round.
Which end-to-end metric each layer should move, and on which workload:

  oracle.adjacency_s, oracle.pairs_tested   wall_rel               certify (mostly 4 2 5)
  oracle.enumerate_s, .vertices, .edges     wall_rel               certify
  oracle.certify_s                          wall_rel               certify
  oracle.dump_s, oracle.dump_bytes          wall_rel               certify (6 3 2 only)
  intmatrix.*                               wall_rel, peak_rss_mb  certify (mostly 6 3 2)
  laurent.mul_count, laurent.mul_s          wall_rel               symbolic
  qbinom.memo_entries                       peak_rss_mb            symbolic (eigenvalues)
  qbinom.memo_hit_ratio                     wall_rel               symbolic (identities)
  spectrum.*                                wall_rel               symbolic (eigenvalues)
  identities.*                              wall_rel               symbolic (identities)
  gf.field_s                                setup_s                certify
  cli.self_s (rendering and printing)       wall_rel               symbolic (eigenvalues)

Layers that a workload does not reach report 0.  Each run writes its
environment, samples and metrics to bench/out/<workload>-seed<N>-trace<T>.json
and, when traced, the spans of its last traced command to
bench/out/spans-<workload>-seed<N>.jsonl.

Ladder points ``ladder-4-2-7``, ``ladder-5-2-3``, ``ladder-5-2-4`` and
``ladder-7-3-2`` are opt-in (--workload NAME) single commands outside the
gated set; they re-measure the baseline table of ROADMAP.md.  A point whose known peak RSS exceeds 3/4
of MemTotal is refused up front with exit code 2.

Exit codes: 0 with the result as the last line of stdout; 2 for a usage
error, a refused point, or a checkout whose program cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import COMPUTED_COUNTS

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "bench" / "child.py"
OUT = ROOT / "bench" / "out"
DUMP_DIR = "bench/out/dump"  # relative, so that the dump line of stdout is the same everywhere

SETUP_PROBES = 6
RUN_LIMIT_S = 170  # a run must end within 180 s: commands are killed at this point
MEMORY_SHARE = 0.75  # refuse points whose known peak RSS exceeds this share of MemTotal


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    need_mb: int  # peak RSS measured on this command, for the up-front memory check
    digest: str | None = None  # sha256 of the expected stdout; None: not recorded
    dump: str | None = None  # directory the command dumps into

    @property
    def label(self) -> str:
        return " ".join(self.argv)


WORKLOADS = {
    "certify": (
        Command(("verify", "spectrum", "4", "2", "5"), need_mb=75,
                digest="040858ebd8a8af053539685fba7712ec5a772f981588453fcf8d790a5f1fb976"),
        Command(("verify", "spectrum", "6", "3", "2", "--dump", DUMP_DIR), need_mb=145,
                digest="3f960dbc4f19d59e53d78208e7f134bfb1a98d2b1473be52eb70a65f8bdcf470", dump=DUMP_DIR),
    ),
    "symbolic": (
        Command(("verify", "identities", "--max", "18"), need_mb=37,
                digest="d9fe26ed2af38a07ed5380499945bba0d25616f00c727831b42a45816942d68c"),
        Command(("eigenvalues", "100", "25", "--form", "both"), need_mb=188,
                digest="cccf7777ee156376ae1bb1f696bbdbcbdeb0ec1f3e4c87e91dc3c2362fbbb357"),
    ),
}

LADDER = {
    "ladder-4-2-7": (Command(("verify", "spectrum", "4", "2", "7", "--budget", "3000"), need_mb=480,
                             digest="e8cfb638206a6b4ff46020d7c87e84cde59a0a853d4f96224e989ca7db4b68d7"),),
    "ladder-5-2-3": (Command(("verify", "spectrum", "5", "2", "3"), need_mb=120,
                             digest="20764506f8b5a14e58bec192c71f9a28a0f5cb665ff70bb3069849b88d2a08be"),),
    "ladder-5-2-4": (Command(("verify", "spectrum", "5", "2", "4", "--budget", "6000"), need_mb=1900),),
    "ladder-7-3-2": (Command(("verify", "spectrum", "7", "3", "2", "--budget", "12000"), need_mb=7500),),
}

END_TO_END = {"setup_s": "s", "wall_rel": "ref", "peak_rss_mb": "MiB", "ok_ratio": "ratio"}

PER_LAYER = {
    "oracle.enumerate_s": "s",
    "oracle.vertices": "count",
    "oracle.edges": "count",
    "oracle.adjacency_s": "s",
    "oracle.pairs_tested": "count",
    "oracle.certify_s": "s",
    "oracle.dump_s": "s",
    "oracle.dump_bytes": "B",
    "intmatrix.products": "count",
    "intmatrix.product_s": "s",
    "intmatrix.products_f64": "count",
    "intmatrix.products_i64": "count",
    "intmatrix.products_obj": "count",
    "intmatrix.bound_bits_max": "bit",
    "intmatrix.flops_computed": "flop",
    "intmatrix.bytes_computed": "B",
    "intmatrix.row_sums_s": "s",
    "laurent.mul_count": "count",
    "laurent.mul_s": "s",
    "qbinom.memo_entries": "count",
    "qbinom.memo_hit_ratio": "ratio",
    "spectrum.simple_s": "s",
    "spectrum.delsarte_s": "s",
    "spectrum.multiplicity_s": "s",
    "spectrum.table_s": "s",
    **{f"identities.{name}_s": "s" for name in ("pascal", "lemma1", "lemma2", "lemma3", "theorem2", "corollary1")},
    "identities.checked": "count",
    "gf.field_s": "s",
    "cli.self_s": "s",
    "cli.wall_s": "s",
    "host.ref_s": "s",
    "trace.overhead_s": "s",
}


class HarnessError(RuntimeError):
    """The benchmark cannot measure this checkout; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    # Default bytecode caching, inside the checkout, as for an installed package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def spawn(workload: str, cmd: Command | None, trace: str | None, timeout: float) -> dict:
    """Run one command (or, with cmd None, one set-up probe) in a fresh process."""
    if cmd is not None and cmd.dump:
        shutil.rmtree(ROOT / cmd.dump, ignore_errors=True)
    spec = {"argv": None if cmd is None else list(cmd.argv), "trace": trace, "workload": workload,
            "dump": None if cmd is None else cmd.dump}
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), repr(spawned), json.dumps(spec)], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode == 3:
        raise HarnessError(proc.stderr.strip())
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"error": f"process exited with {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(proc.stdout.splitlines()[-1])


def gate(cmd: Command, record: dict) -> str | None:
    """Why the command failed, or None when its output is correct."""
    if record.get("error"):
        return record["error"]
    if record["exit_code"] != 0:
        return f"exit code {record['exit_code']}: {record['stderr'][-500:]}"
    if cmd.digest is not None and record["stdout_sha256"] != cmd.digest:
        return f"stdout sha256 {record['stdout_sha256']} != expected {cmd.digest}"
    if cmd.argv[:2] == ("verify", "spectrum") and "\ncertified: yes\n" not in record["stdout_head"]:
        return "stdout does not say 'certified: yes'"
    if cmd.dump:
        cert = record.get("certificate", {})
        bad = [key for key in ("certified", "moments_match", "vertex_count_match") if not cert.get(key)]
        if bad:
            return f"certification.json fails {bad}"
    return None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _source_sha256() -> str:
    """sha256 over the paths and contents of src/, which names the measured code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _mem_total_mb() -> float:
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024
    raise HarnessError("MemTotal not found in /proc/meminfo")


def environment(seed: int, records: list[dict]) -> dict:
    child_env = next((r["env"] for r in records if "env" in r), {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **child_env,
        "git_commit": _git_commit(),
        "src_sha256": _source_sha256(),
        "platform": platform.platform(),
        "mem_total_mb": round(_mem_total_mb()),
        "rss_method": "ru_maxrss of the command's own process at exit (getrusage RUSAGE_SELF, KiB on Linux)",
        "load": "closed loop, one client, one fresh process per command, BLAS threads left at their default",
        "seed": seed,
    }


def run_workload(name: str, commands: tuple[Command, ...], seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload for `seconds`; print a report and return the result object."""
    need_mb = max(cmd.need_mb for cmd in commands)
    if need_mb > MEMORY_SHARE * _mem_total_mb():
        raise HarnessError(f"{name} needs about {need_mb} MB, more than {MEMORY_SHARE:.0%} of "
                          f"MemTotal ({_mem_total_mb():.0f} MB); refusing to start it")
    OUT.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    end = start + min(seconds, RUN_LIMIT_S)

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    spawn(name, None, None, remaining())  # writes the bytecode cache; not measured
    # A round runs a set-up probe and each command once (twice, traced and
    # untraced, in a traced run), so that the probes sample the same
    # stretch of machine time as the commands; untraced runs top them up
    # at the end.  No round starts that would not end within the run by
    # the longest round so far, except the first.
    probes: list[dict] = []
    plain: dict[Command, list[dict]] = {cmd: [] for cmd in commands}
    traced: dict[Command, list[dict]] = {cmd: [] for cmd in commands}
    spans = str(OUT / f"spans-{name}-seed{seed}.jsonl")
    longest = 0.0
    while True:
        began = time.monotonic()
        probes.append(spawn(name, None, None, remaining()))
        for cmd in commands:
            plain[cmd].append(spawn(name, cmd, None, remaining()))
            if trace:
                traced[cmd].append(spawn(name, cmd, spans, remaining()))
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() + longest > end:
            break
    while not trace and len(probes) < SETUP_PROBES and remaining() > 0:
        probes.append(spawn(name, None, None, remaining()))

    gated = [(cmd, r) for cmd in commands for r in plain[cmd] + traced[cmd]]
    reasons = [gate(cmd, r) for cmd, r in gated]
    failed = sum(reason is not None for reason in reasons)
    series = {f"wall_s[{cmd.label}]": [r["wall_s"] for r in plain[cmd] if "wall_s" in r] for cmd in commands}
    wall = sum(_median(series[f"wall_s[{cmd.label}]"]) for cmd in commands)
    series["host.ref_s"] = [t for r in probes for t in r.get("ref_s", [])]
    if not series["host.ref_s"]:
        raise HarnessError(f"no set-up probe timed the reference computation: {probes[-1].get('error')}")
    ref = _median(series["host.ref_s"])
    if trace:
        for cmd in commands:
            series[f"traced_wall_s[{cmd.label}]"] = [r["wall_s"] for r in traced[cmd] if "wall_s" in r]
        traced_wall = sum(_median(series[f"traced_wall_s[{cmd.label}]"]) for cmd in commands)
        values = _layer_values([[r for r in traced[cmd] if "layers" in r] for cmd in commands])
        values.update({"cli.wall_s": wall, "host.ref_s": ref, "trace.overhead_s": traced_wall - wall})
        metrics = {m: {"value": values[m], "unit": PER_LAYER[m]} for m in PER_LAYER}
    else:
        series["setup_s"] = [r["setup_s"] for r in probes + [r for cmd in commands for r in plain[cmd]]
                             if "setup_s" in r]
        for cmd in commands:
            series[f"peak_rss_mb[{cmd.label}]"] = [r["peak_rss_mb"] for r in plain[cmd] if "peak_rss_mb" in r]
        values = {
            "setup_s": _median(series["setup_s"]),
            "wall_rel": wall / ref,
            "peak_rss_mb": max(_median(series[f"peak_rss_mb[{cmd.label}]"]) for cmd in commands),
            "ok_ratio": (len(gated) - failed) / len(gated),
        }
        metrics = {m: {"value": values[m], "unit": END_TO_END[m]} for m in END_TO_END}

    records = [r for _, r in gated]
    env = environment(seed, records)
    result = {"correct": failed == 0, "attempted": len(gated), "failed": failed, "metrics": metrics}
    report = {"workload": name, "commands": [list(cmd.argv) for cmd in commands], "seconds": seconds,
              "trace": trace, "env": env,
              "failures": [f"{cmd.label}: {reason}" for (cmd, _), reason in zip(gated, reasons) if reason],
              "undeclared_layers": sorted({m for r in records if "layers" in r for m in r["layers"]} - set(PER_LAYER)),
              "missing_entry_points": sorted({m for r in records for m in r.get("missing_entry_points", [])}),
              "stdout_sha256": {cmd.label: sorted({r["stdout_sha256"] for r in plain[cmd] + traced[cmd]
                                                  if "stdout_sha256" in r}) for cmd in commands},
              "series": series, **result}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"== {name} ({'traced' if trace else 'untraced'}): "
          + "; ".join(f"qkneser {cmd.label}" for cmd in commands))
    print("env: " + json.dumps(env))
    for reason in report["failures"]:
        print(f"FAILED: {reason}")
    for entry in report["missing_entry_points"]:
        print(f"not traced, absent from this version: {entry}")
    for key, samples in series.items():
        if "[" in key:
            print(f"  {key:<60} median {_median(samples):.6g}, {_spread(samples)}")
    for metric, cell in metrics.items():
        label = " (computed)" if metric in COMPUTED_COUNTS else ""
        spread = _spread(series[metric]) if metric in series else ""
        print(f"  {metric:<28} {cell['value']:>16.6g} {cell['unit']:<6} {spread}{label}")
    return result


# Per-layer metrics that are the largest over the round's commands rather than their sum.
_MAX_OVER_COMMANDS = ("intmatrix.bound_bits_max", "qbinom.memo_entries")


def _layer_values(records_by_command: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of one round, from the traced records of each of its commands."""
    values: dict[str, float] = {}
    hits = lookups = 0.0
    for records in records_by_command:
        memos = [r["memo"] or {"entries": 0, "hits": 0, "misses": 0} for r in records]
        hits += _median([m["hits"] for m in memos])
        lookups += _median([m["hits"] + m["misses"] for m in memos])
        per_command = {m: _median([r["layers"].get(m, 0) for r in records]) for m in PER_LAYER}
        per_command["qbinom.memo_entries"] = _median([m["entries"] for m in memos])
        for metric, value in per_command.items():
            combine = max if metric in _MAX_OVER_COMMANDS else sum
            values[metric] = combine((values.get(metric, 0), value))
    values["qbinom.memo_hit_ratio"] = hits / lookups if lookups else 0.0
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, *LADDER],
                        help="one workload or ladder point; default: both workloads, untraced then traced")
    parser.add_argument("--seed", type=int, default=0, help="recorded only; the inputs do not depend on it")
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced pass")
    args = parser.parse_args(argv)
    if args.workload is None:
        runs = [(name, trace) for trace in (False, True) for name in WORKLOADS]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = {}
    try:
        for name, trace in runs:
            commands = WORKLOADS.get(name) or LADDER[name]
            results[name, trace] = run_workload(name, commands, args.seed, args.seconds, trace)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload is not None:
        print(json.dumps(results[runs[0]]))
        return 0
    print(json.dumps({f"{name}/{'trace' if trace else 'plain'}": result for (name, trace), result in results.items()}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
