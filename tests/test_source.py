"""Source-level rules for the library."""

import ast
import importlib
import importlib.util
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


def test_benchmark_layers_exist():
    # perfbench/spans.py looks these names up to wrap them; a renamed
    # function breaks the traced benchmark run, which this suite never starts
    path = Path(__file__).parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}"
               for module, names in spans.LAYERS.items()
               for name in names
               if not hasattr(importlib.import_module(f"bhmirror.{module}"), name)]
    assert not missing, f"benchmark layers missing from bhmirror: {missing}"
