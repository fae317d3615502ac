"""Span recorder for the traced benchmark pass.

The tracer wraps public entry points of qkneser from the outside: the
functions that ``qkneser.cli`` imports, the two spectrum functions that
``spectrum_table`` calls, ``IntMatrix.__matmul__``/``row_sums`` and
``LaurentPoly.__mul__``.  Nothing under ``src/`` knows about it.  Each call
becomes a span (id, parent id, name, start, end); spans stay in memory and
are written out once the command has finished.

Per-layer figures derived from the spans:

  * ``<span>_s`` is the span's self time summed over all its calls: the
    duration minus the part covered by child spans, so the self times of
    all layers add up to the traced wall time of ``cli.main``;
  * counts are recorded at the same boundaries.  Counts marked
    "computed" are derived from the operands (n(n-1)/2 pairs, 2n^3 flops
    and 3 * 8 * n^2 bytes per product) rather than observed, and repeat
    exactly from run to run.

``gauss`` is not wrapped: its recursion goes through the module global,
so a wrapper would sit inside every memo lookup.  Its memo figures come
from ``gauss.cache_info()`` instead.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

# Counts derived from operand sizes, not observed; reports label them.
COMPUTED_COUNTS = ("oracle.pairs_tested", "intmatrix.flops_computed", "intmatrix.bytes_computed")

_SELF_TIME_METRIC = {"cli.main": "cli.self_s"}


class Tracer:
    """Spans and counts of one traced CLI call."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.missing: list[str] = []  # entry points that this version of qkneser does not have
        self._stack: list[int] = []

    def wrap(self, fn, name, before=None, after=None):
        """fn wrapped in a span; name is a string or a function of the call's arguments.

        before(args) runs outside the span, before the call; after(args,
        result) runs outside the span, after it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                label = name if isinstance(name, str) else name(args)
                self.spans[span_id] = (span_id, parent, label, start, end)
            if after is not None:
                after(args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        child_time = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    def metrics(self) -> dict[str, float]:
        """Self time of every span name as ``<name>_s``, plus the counts."""
        out = {_SELF_TIME_METRIC.get(name, name + "_s"): value for name, value in self.self_times().items()}
        out.update(self.counts)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name, "start": start,
                                     "end": end, "workload": self.workload}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap qkneser's layer entry points so that each call records a span."""
    import qkneser.cli as cli
    import qkneser.spectrum as spectrum
    from qkneser.intmatrix import IntMatrix
    from qkneser.laurent import LaurentPoly

    counts = tracer.counts

    def patch(owner, attr, name, before=None, after=None):
        # A renamed or removed entry point leaves its layer at 0 and is
        # reported, rather than failing the command.
        if not hasattr(owner, attr):
            tracer.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, before, after))

    def count_vertices(args, subspaces):
        counts["oracle.vertices"] += len(subspaces)

    def count_pairs(args):
        n = len(args[0])
        counts["oracle.pairs_tested"] += n * (n - 1) // 2

    def count_edges(args, result):
        if result.degree is not None:
            counts["oracle.edges"] += result.vertex_count * result.degree // 2

    def count_dump_bytes(args, result):
        counts["oracle.dump_bytes"] += os.path.getsize(args[1])

    def count_product(args):
        a, b = args
        bound = a.n * a.max_abs * b.max_abs
        # Mirrors the backend choice documented in qkneser.intmatrix.
        if bound < 2**53:
            backend = "f64"
        elif bound < 2**63:
            backend = "i64"
        else:
            backend = "obj"
        counts["intmatrix.products"] += 1
        counts["intmatrix.products_" + backend] += 1
        counts["intmatrix.bound_bits_max"] = max(counts["intmatrix.bound_bits_max"], bound.bit_length())
        counts["intmatrix.flops_computed"] += 2 * a.n**3
        # two operands and the result, 8 bytes per entry in every backend
        # (object arrays hold 8-byte pointers)
        counts["intmatrix.bytes_computed"] += 3 * 8 * a.n**2

    def count_checked(args, report):
        counts["identities.checked"] += report.checked

    def count_mul(args):
        counts["laurent.mul_count"] += 1

    patch(cli, "main", "cli.main")
    patch(cli, "field_of_order", "gf.field")
    patch(cli, "spectrum_table", "spectrum.table")
    patch(cli, "delsarte_eigenvalue", "spectrum.delsarte")
    patch(spectrum, "simple_eigenvalue", "spectrum.simple")
    patch(spectrum, "multiplicity", "spectrum.multiplicity")
    patch(cli, "enumerate_subspaces", "oracle.enumerate", after=count_vertices)
    patch(cli, "build_adjacency", "oracle.adjacency", before=count_pairs)
    patch(cli, "certify_spectrum", "oracle.certify", after=count_edges)
    for attr in ("dump_vertices", "dump_adjacency", "dump_certification"):
        patch(cli, attr, "oracle.dump", after=count_dump_bytes)
    patch(cli, "run_grid", lambda args: "identities." + args[0], after=count_checked)
    patch(IntMatrix, "__matmul__", "intmatrix.product", before=count_product)
    patch(IntMatrix, "row_sums", "intmatrix.row_sums")
    mul = tracer.wrap(LaurentPoly.__mul__, "laurent.mul", before=count_mul)
    LaurentPoly.__mul__ = mul
    LaurentPoly.__rmul__ = mul
