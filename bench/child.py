"""One benchmark sample: a fresh interpreter that runs one qkneser CLI call.

Started by run.py as ``python3 bench/child.py <spawned> '<json spec>'``,
where spawned is time.monotonic() in the parent just before the spawn;
set-up time runs from then until ``import qkneser`` returns.  The spec
holds:

  argv       the CLI arguments, or null for a set-up probe that imports and
             then times the reference computation REFERENCE_REPEATS times
  trace      path for the span file, or null for an untraced call
  workload   workload name, recorded in the spans
  dump       directory the call dumps into, or null

The package is imported from ``src/`` of the same checkout, never from
site-packages.  ``qkneser.cli.main(argv)`` then runs in-process with
stdout and stderr captured, so the gauss memo and the field tables start
cold, as for every CLI user.  The child prints one JSON record as its
only line of output.  Exit code 3 means the program could not be
imported; the parent then gives up without a result.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import qkneser
except ImportError as exc:
    print(f"cannot import qkneser from {ROOT}/src: {exc}", file=sys.stderr)
    raise SystemExit(3)
SETUP_S = time.monotonic() - float(sys.argv[1])

# Everything below is imported after the timed import on purpose.
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

SPEC = json.loads(sys.argv[2])
REFERENCE_REPEATS = 5


def _blas_info() -> dict:
    """BLAS library and thread count as the loaded OpenBLAS reports them."""
    import numpy as np

    info = {"numpy": np.__version__, "blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("name")}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                info["blas_threads"] = threads()
                info["blas_config"] = config().decode()
                return info
    info["blas_threads"] = None
    return info


def _certificate(directory: str) -> dict:
    """What the gate of a --dump command needs from certification.json."""
    from qkneser.oracle import predicted_vertex_count

    with open(os.path.join(directory, "certification.json"), encoding="utf-8") as fh:
        cert = json.load(fh)
    return {
        "certified": cert["certified"],
        "moments_match": cert["moments"] == cert["expected_moments"],
        "vertex_count_match": cert["vertex_count"] == predicted_vertex_count(cert["v"], cert["k"], cert["q"]),
    }


def _reference() -> float:
    """Seconds for a fixed pure-Python computation that does not touch qkneser.

    The speed of a shared host drifts by a third over minutes; this time
    drifts with it, so commands timed in its units (wall_rel) compare
    across runs, and no change to qkneser can move it.  Tuple-keyed dict
    updates and big-integer additions, as in the gauss memo and Laurent
    arithmetic.
    """
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(300_000):
        key = (i % 991, i % 997)
        table[key] = table.get(key, 0) + i * i
    row = [1]
    for _ in range(600):
        row = [a + b for a, b in zip(row + [0], [0] + row)]
    if len(table) != 300_000 or sum(row) != 2**600:
        raise RuntimeError("reference computation gave a wrong result")
    return time.perf_counter() - start


def main() -> dict:
    loaded = os.path.realpath(qkneser.__file__)
    if not loaded.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        print(f"qkneser was imported from {loaded}, not from this checkout", file=sys.stderr)
        raise SystemExit(3)
    record = {"setup_s": SETUP_S}
    if SPEC["argv"] is None:
        record["ref_s"] = [_reference() for _ in range(REFERENCE_REPEATS)]
        return record

    from qkneser import cli
    from qkneser.qbinom import gauss

    tracer = None
    if SPEC["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(SPEC["workload"])
        tracing.install(tracer)

    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(SPEC["argv"]))
        except Exception:  # a crash is a failed command, reported as data
            code, error = None, traceback.format_exc(limit=-3)
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux

    stdout = out.getvalue()
    cache_info = getattr(gauss, "cache_info", None)  # absent if gauss stops being an lru_cache
    memo = cache_info() if cache_info else None
    record.update(
        wall_s=wall,
        peak_rss_mb=peak_kib / 1024,
        exit_code=code,
        error=error,
        stderr=err.getvalue()[-2000:],
        stdout_sha256=hashlib.sha256(stdout.encode()).hexdigest(),
        stdout_head=stdout[:4000],
        memo=memo and {"entries": memo.currsize, "hits": memo.hits, "misses": memo.misses},
        env=_blas_info(),
    )
    if SPEC["dump"] and code == 0:
        record["certificate"] = _certificate(SPEC["dump"])
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["missing_entry_points"] = tracer.missing
        tracer.write_spans(SPEC["trace"])
    return record


if __name__ == "__main__":
    print(json.dumps(main()))
