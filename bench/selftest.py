"""Self-test of the benchmark harness, at tiny sizes.

Run from the root of the repository:

  python3 bench/selftest.py

It checks that

  * each workload, its commands shrunk to tiny argvs (qK(4,2,2),
    --max 4, eigenvalues 8 2), passes its gate and emits exactly the end-to-end
    metrics of BENCHMARK.json untraced and exactly its per-layer metrics
    traced, each with the declared unit, and that no end-to-end value is 0;
  * a wrong expected digest makes every command fail (ok_ratio 0, that
    is a fail ratio of 1) while the run still completes;
  * in a directory holding only BENCHMARK.json and bench/, run.py exits
    with a nonzero code and prints no result.

Exit code 0 when every check passes; takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run

TINY = {
    "certify": (
        (("verify", "spectrum", "4", "2", "2"),
         "5e4e3daa96130b86bf8ec5b328e9079ffe7536d1fc9e9decbab0dd03ea10a8c6"),
        (("verify", "spectrum", "4", "2", "2", "--dump", run.DUMP_DIR),
         "d86d3b29f96acc4a23f4694f2e5187c413eb8cdda9a18d95cf3d99d3390c9a4f"),
    ),
    "symbolic": (
        (("verify", "identities", "--max", "4"),
         "7024ca410cb509ac0449859f8e6df529012d200a3c1f8f32770536a89ae0a4e9"),
        (("eigenvalues", "8", "2", "--form", "both"),
         "4160da6afaed34e5867919e81074ceaee0a847d0e390035f50750db715f0196a"),
    ),
}

_CERTIFY = ("oracle.enumerate_s", "oracle.vertices", "oracle.edges", "oracle.adjacency_s", "oracle.pairs_tested",
            "oracle.certify_s", "intmatrix.products", "intmatrix.product_s", "intmatrix.products_f64",
            "intmatrix.bound_bits_max", "intmatrix.flops_computed", "intmatrix.bytes_computed",
            "intmatrix.row_sums_s", "spectrum.table_s", "gf.field_s", "cli.self_s")
# Per-layer metrics that must read nonzero on each tiny workload.
REACHED = {
    "certify": ("oracle.enumerate_s", "oracle.vertices", "oracle.edges", "oracle.adjacency_s",
                "oracle.pairs_tested", "oracle.certify_s", "oracle.dump_s", "oracle.dump_bytes",
                "intmatrix.products", "intmatrix.product_s", "intmatrix.products_f64", "intmatrix.bound_bits_max",
                "intmatrix.flops_computed", "intmatrix.bytes_computed", "intmatrix.row_sums_s", "spectrum.table_s",
                "gf.field_s", "cli.self_s", "cli.wall_s", "host.ref_s"),
    "symbolic": (*(f"identities.{name}_s" for name in ("pascal", "lemma1", "lemma2", "lemma3", "theorem2",
                                                       "corollary1")),
                 "identities.checked", "laurent.mul_count", "laurent.mul_s", "qbinom.memo_entries",
                 "qbinom.memo_hit_ratio", "spectrum.simple_s", "spectrum.delsarte_s", "spectrum.multiplicity_s",
                 "spectrum.table_s", "cli.self_s", "cli.wall_s", "host.ref_s"),
}


def check(condition: bool, message: str, failures: list[str]) -> None:
    if not condition:
        failures.append(message)


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    failures: list[str] = []
    check(sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS", failures)

    for name, tiny in TINY.items():
        commands = tuple(dataclasses.replace(cmd, argv=argv, digest=digest)
                         for cmd, (argv, digest) in zip(run.WORKLOADS[name], tiny, strict=True))
        for trace in (False, True):
            result = run.run_workload(f"selftest-{name}", commands, seed=0, seconds=0, trace=trace)
            where = f"{name} trace={int(trace)}"
            check(result["correct"] and result["failed"] == 0, f"{where}: gate failed", failures)
            emitted = {metric: cell["unit"] for metric, cell in result["metrics"].items()}
            check(emitted == expected[trace], f"{where}: metrics {emitted} != declared {expected[trace]}", failures)
            if trace:
                zero = [metric for metric in REACHED[name] if result["metrics"][metric]["value"] == 0]
                report = json.loads((run.OUT / f"selftest-{name}-seed0-trace1.json").read_text())
                for key in ("undeclared_layers", "missing_entry_points"):
                    check(not report[key], f"{where}: {key} {report[key]}", failures)
            else:
                zero = [metric for metric, cell in result["metrics"].items() if cell["value"] == 0]
            check(not zero, f"{where}: metrics read 0: {zero}", failures)

        wrong = tuple(dataclasses.replace(cmd, digest="0" * 64) for cmd in commands)
        result = run.run_workload(f"selftest-{name}-wrong-digest", wrong, seed=0, seconds=0, trace=False)
        check(result["failed"] == result["attempted"] >= 1 and result["metrics"]["ok_ratio"]["value"] == 0,
              f"{name}: a wrong digest did not fail every command: {result}", failures)

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *declared["command"][1:], "--workload", "symbolic", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without src/, run.py exited {proc.returncode} with stdout {proc.stdout!r}", failures)

    for failure in failures:
        print(f"selftest FAILED: {failure}")
    print("selftest: ok" if not failures else f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
