"""Source-level rules that the test suite can check directly."""

import ast
from pathlib import Path

import qkneser

SOURCE_DIR = Path(qkneser.__file__).parent


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
