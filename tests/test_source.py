"""Source-level rules for the library."""

import ast
from pathlib import Path

import bhmirror


def test_no_assert_statements():
    # `python -O` strips asserts; every invariant check must raise instead.
    root = Path(bhmirror.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"
