"""Source hygiene: every name a package module imports is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qsblab"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never referenced.

    A name counts as referenced when it is read anywhere in the module
    (attribute chains count through their root), appears in a string
    annotation, or is listed in __all__. __future__ imports are skipped.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(n.id for n in ast.walk(ast.parse(note.value)) if isinstance(n, ast.Name))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
