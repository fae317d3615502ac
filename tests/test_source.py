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


def _top_level_imports(path):
    # the first component of every module an import statement names
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_the_symbolic_core_imports_no_numpy():
    # The symbolic modules and the field arithmetic compute on Python
    # integers and bytes only; with numpy out of their own imports, a
    # symbolic command can later be made to run without loading it.
    assert "numpy" in _top_level_imports(SOURCE_DIR / "intmatrix.py")  # the scan finds a numpy import
    core = ("laurent", "qbinom", "identities", "spectrum", "gf")
    assert [name for name in core if "numpy" in _top_level_imports(SOURCE_DIR / f"{name}.py")] == []


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
