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


def numpy_imports(tree):
    """(enclosing function name or None, line) of every numpy import."""
    stack = [(node, None) for node in tree.body]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "numpy" for name in names):
            yield func, node.lineno
        stack.extend((child, func) for child in ast.iter_child_nodes(node))


def test_no_module_level_numpy_import():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{line}" for func, line in numpy_imports(tree) if func is None)
    assert found == []


def test_numpy_is_imported_only_by_the_array_views():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update((path.name, func) for func, _ in numpy_imports(tree))
    assert found == {("finring.py", "sc"), ("finring.py", "basis")}
