"""Invariant checks must survive ``python -O``, which strips assert statements."""

import ast
from pathlib import Path

import ringbench

SRC = Path(ringbench.__file__).resolve().parent


def test_no_assert_statements_in_library():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        )
    assert found == []
