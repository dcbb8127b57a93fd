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


def imports_of(tree, top: str):
    """(enclosing function name or None, line) of every import of the
    top-level package ``top`` or its submodules."""
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
        if any(name.split(".")[0] == top for name in names):
            yield func, node.lineno
        stack.extend((child, func) for child in ast.iter_child_nodes(node))


def test_no_module_level_numpy_import():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{line}" for func, line in imports_of(tree, "numpy") if func is None)
    assert found == []


def test_numpy_is_imported_only_by_the_array_views():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update((path.name, func) for func, _ in imports_of(tree, "numpy"))
    assert found == {("finring.py", "sc"), ("finring.py", "basis")}


def test_no_dataclasses_import():
    """Records are written out: no import pays for dataclass code generation."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{line}" for _, line in imports_of(tree, "dataclasses"))
    assert found == []


def test_the_span_cache_is_the_only_functools_cache():
    """A process-wide hold lives in corpus._held, or is the span cache that
    corpus.forget_held_work also clears: no other function is memoized by
    functools.cache or functools.lru_cache."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                    if name in ("cache", "lru_cache"):
                        found.append((path.name, node.name))
    assert found == [("finring.py", "_span")]


def test_only_strength_evaluates_the_conditions():
    """The three strength conditions have one evaluator, strength.report:
    no other module calls them or imports them by name."""
    conditions = {"condition1", "condition2", "condition3"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "strength.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in conditions:
                used = isinstance(node.value, ast.Name) and node.value.id == "strength"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("strength"):
                used = any(alias.name in conditions for alias in node.names)
            else:
                continue
            if used:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_kernel_and_the_associativity_check_read_the_table():
    """FiniteRing._mul is the one product kernel: besides the constructor
    that builds the row-sparse table, only the kernel and the associativity
    check, which validates that table, read ``._table``."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = [(node, None) for node in tree.body]
        while stack:
            node, func = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if isinstance(node, ast.Attribute) and node.attr == "_table":
                found.add((path.name, func))
            stack.extend((child, func) for child in ast.iter_child_nodes(node))
    assert found == {
        ("finring.py", "__init__"),
        ("finring.py", "_mul"),
        ("finring.py", "associativity_work"),
        ("finring.py", "_first_nonassociative_triple"),
    }
