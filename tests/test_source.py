"""Source-level rules that the test suite can check directly."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import qkneser

SOURCE_DIR = Path(qkneser.__file__).parent
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a guard written as one would
    # silently stop guarding; every check must raise explicitly.
    offenders = []
    modules = sorted(SOURCE_DIR.rglob("*.py"))
    assert "cli.py" in {path.name for path in modules}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert offenders == []


def test_bench_tracer_finds_every_entry_point():
    # bench/tracer.py wraps qkneser functions and methods by name and only
    # reports the ones it cannot find; a renamed entry point would silently
    # read 0 in the per-layer view.  A child interpreter keeps the patching
    # out of this process.
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SOURCE_DIR.parent)!r}]\n"
        "from tracer import Tracer, install\n"
        "tracer = Tracer('contract')\n"
        "install(tracer)\n"
        "print(json.dumps(tracer.missing))\n"
    )
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == []
