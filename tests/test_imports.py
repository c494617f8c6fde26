"""Source hygiene: every name a package module imports is used, and every
top-level definition has a caller."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qsblab"
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

# Public names kept although neither the CLI nor the acceptance suite reaches them.
EXTRA_ROOTS = {
    "fidelity": "mixed-state fidelity of two DensityMatrix objects, the sweep's kernel on one pair",
    "riemannian_step": "one retraction step on an Isometry, the update the search applies to its stack",
}


def _reads(tree: ast.AST) -> set[str]:
    """Names a syntax tree reads: every loaded Name, and those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _reads(ast.parse(note.value))
    return used


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never referenced.

    A name counts as referenced when it is read anywhere in the module
    (attribute chains count through their root), appears in a string
    annotation, or is listed in __all__. __future__ imports are skipped.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used = _reads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def _defined(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines; dunders such as __all__ are not definitions."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def unreached(sources: dict[str, str], roots: set[str]) -> list[str]:
    """Top-level definitions ("module: name") that nothing reaches.

    A def, class or assigned constant is reached when a root names it or a
    reached definition reads its name. Names match across modules, as the
    package imports them unrenamed. Imports reach nothing, so a re-export
    in __init__ keeps no name alive; any other top-level statement runs on
    import and reads its names as roots.
    """
    defs: dict[str, list[ast.stmt]] = {}
    where, todo = [], set(roots)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = _defined(node)
            where += [(module, name) for name in names]
            for name in names:
                defs.setdefault(name, []).append(node)
            if not names and not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo |= _reads(node)
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in defs.get(name, []):
            todo |= _reads(node) - reached
    return sorted(f"{module}: {name}" for module, name in where if name not in reached)


def test_checker_sees_what_it_should():
    src = '''
from __future__ import annotations
import os
import numpy as np
from typing import Sequence, Iterable
from .a import exported, dropped

__all__ = ["exported"]

def f(x: "Sequence[int]") -> np.ndarray:
    return x
'''
    assert unused_imports(src) == ["Iterable (line 5)", "dropped (line 6)", "os (line 3)"]


def test_reachability_checker_sees_what_it_should():
    sources = {
        "a.py": 'from .b import helper, dead\n__all__ = ["dead"]\nLIMIT = 3\n'
        "def main():\n    return helper() + LIMIT\n"
        "def orphan():\n    return dead()\n"
        'if __name__ == "__main__":\n    main()\n',
        "b.py": 'def helper() -> "Kept":\n    return 0\nclass Kept: ...\ndef dead(): ...\n',
    }
    assert unreached(sources, set()) == ["a.py: orphan", "b.py: dead"]
    assert unreached(sources, {"orphan"}) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_definition_has_a_caller():
    # roots: the CLI (run on import), the names the acceptance suite gates, EXTRA_ROOTS
    gated = {
        alias.name
        for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qsblab")
        for alias in node.names
    }
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreached(sources, gated | set(EXTRA_ROOTS)) == []
