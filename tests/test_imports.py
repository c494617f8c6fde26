"""Source hygiene: every name a package module imports is used, every
top-level definition and method has a caller, every package error class is
caught by name or is the base or the generic one, and every private numpy
gufunc the package calls exists, or its public fallback gives the same runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsblab

SRC = Path(__file__).resolve().parents[1] / "src" / "qsblab"
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

# Public names kept although neither the CLI nor the acceptance suite reaches them.
EXTRA_ROOTS = {
    "fidelity": "mixed-state fidelity of two DensityMatrix objects, the sweep's kernel on one pair",
    "error": "the CLI parser's override, which argparse calls on a usage error",
}

# unreached() matches a method by attribute name only, so a dead method would
# live on while any reached code calls a method of the same name. Every
# non-dunder method name that two classes define is pinned here, class by
# class, with the caller that reaches each one.
SHARED_METHODS = {
    "to_json": {
        "SpaceLayout": "QsbInstance.to_json, for the instance's layouts",
        "QsbInstance": "the construct file, and FrontierPoint.to_json for its best_instance",
        "FrontierPoint": "the optimize frontier file",
        "EpsilonChainReport": "the verify --chain report file",
    },
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


def _loads(tree: ast.AST) -> set[str]:
    """Attribute names a syntax tree loads, as in obj.name or obj.name()."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _defined(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines; dunders such as __all__ are not definitions."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def unreached(sources: dict[str, str], roots: set[str], loaded: set[str] = frozenset()) -> list[str]:
    """Top-level definitions ("module: name") and methods of reached classes
    ("module: Class.name") that nothing reaches.

    A def, class or assigned constant is reached when a root names it or
    reached code reads its name. Names match across modules, as the package
    imports them unrenamed. Imports reach nothing, so a re-export in __init__
    keeps no name alive; any other top-level statement runs on import and
    reads its names as roots. A method or property of a reached class is
    reached when it is a dunder (dataclass hooks such as __post_init__ are
    dunders) or when reached code, `loaded` or a root loads an attribute of
    its name; the class's other statements are read with the class.
    """
    names, attrs = set(roots), set(roots) | set(loaded)

    def read(nodes: list[ast.AST]) -> None:
        for node in nodes:
            names.update(_reads(node))
            attrs.update(_loads(node))

    def reached(cls: str | None, name: str) -> bool:
        if cls is None:
            return name in names
        return cls in names and (name[:2] == name[-2:] == "__" or name in attrs)

    units = []  # (label, class or None, name, the nodes read once it is reached)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            defined = _defined(node)
            if not defined and not isinstance(node, (ast.Import, ast.ImportFrom)):
                read([node])
            if not isinstance(node, ast.ClassDef):
                units += [(f"{module}: {name}", None, name, [node]) for name in defined]
                continue
            methods = [s for s in node.body if isinstance(s, ast.FunctionDef)]
            own = node.bases + node.keywords + node.decorator_list
            units.append((f"{module}: {node.name}", None, node.name, own + [s for s in node.body if s not in methods]))
            units += [(f"{module}: {node.name}.{f.name}", node.name, f.name, [f]) for f in methods]
    while True:
        hits = [reached(cls, name) for _, cls, name, _ in units]
        if not any(hits):
            return sorted(label for label, cls, _, _ in units if cls is None or cls in names)
        for unit, hit in zip(units, hits):
            if hit:
                read(unit[3])
        units = [unit for unit, hit in zip(units, hits) if not hit]


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

    # methods of a reached class
    sources = {
        "a.py": "from .b import Box\nprint(Box().size)\n",
        "b.py": "class Box:\n    LIMIT = bound()\n"
        "    def __post_init__(self):\n        check()\n"
        "    @property\n    def size(self):\n        return self.grow()\n"
        "    def grow(self):\n        return 1\n"
        "    def shrink(self):\n        return dead()\n"
        "class Gone:\n    def size(self): ...\n"
        "def bound(): ...\ndef check(): ...\ndef dead(): ...\n",
    }
    # size is loaded on import, grow by size, __post_init__ as a dunder,
    # LIMIT's initialiser with the class; Gone's methods go with Gone
    assert unreached(sources, set()) == ["b.py: Box.shrink", "b.py: Gone", "b.py: dead"]
    assert unreached(sources, {"shrink"}) == ["b.py: Gone"]
    assert unreached(sources, set(), loaded={"shrink"}) == ["b.py: Gone"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_shared_method_names_are_listed():
    shared: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef) and not f.name[:2] == f.name[-2:] == "__":
                        shared.setdefault(f.name, set()).add(node.name)
    shared = {name: owners for name, owners in shared.items() if len(owners) > 1}
    assert shared == {name: set(owners) for name, owners in SHARED_METHODS.items()}


def test_every_definition_has_a_caller():
    # roots: the CLI (run on import), the exported names the acceptance suite
    # gates and the attributes it loads, EXTRA_ROOTS. An import of a name the
    # package does not export keeps nothing alive: a helper that only tests
    # call has no caller.
    acceptance = ast.parse(ACCEPTANCE.read_text())
    gated = {
        alias.name
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qsblab")
        for alias in node.names
    } & set(qsblab.__all__)
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreached(sources, gated | set(EXTRA_ROOTS), _loads(acceptance)) == []


def test_every_error_class_is_told_apart_by_a_caller():
    # a package error class earns its place only if an except clause names it;
    # QsbError, the base, and InvariantViolation, the one generic type, need none
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    classes = [n for t in trees for n in ast.walk(t) if isinstance(n, ast.ClassDef)]
    bases = {n.name: {ast.unparse(b) for b in n.bases} for n in classes}
    package = {"QsbError"}
    while grown := {name for name, b in bases.items() if b & package} - package:
        package |= grown
    caught, raised = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _reads(node.type)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised |= _reads(getattr(node.exc, "func", node.exc))
    told_apart = {"QsbError", "InvariantViolation"} | (caught & package)
    errors = ast.parse((SRC / "errors.py").read_text()).body
    assert {n.name for n in errors if isinstance(n, ast.ClassDef)} <= told_apart
    assert raised & package <= told_apart


# numpy 2's private LAPACK gufuncs the package calls, each with its one signature
LAPACK_GUFUNCS = {
    "eigh_lo": "D->dD",
    "eigvalsh_lo": "D->d",
    "svd": "D->d",
    "cholesky_lo": "D->D",
    "inv": "D->D",
}


def test_private_lapack_gufuncs_are_listed_and_callable():
    # pyproject declares numpy>=2.0 for these names; a release that renames one
    # fails here, not in a user's run
    called = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Attribute) and ast.unparse(func.value) == "_umath_linalg":
                sig = {k.arg: ast.literal_eval(k.value) for k in node.keywords}["signature"]
                called.add((func.attr, sig))
    assert called == set(LAPACK_GUFUNCS.items())

    from numpy.linalg import _umath_linalg

    stack = np.array([[[2.0, 1j], [-1j, 2.0]], [[1.0, 0.0], [0.0, 3.0]]])  # positive definite
    for name, sig in LAPACK_GUFUNCS.items():
        out = getattr(_umath_linalg, name)(stack, signature=sig)
        for part in out if isinstance(out, tuple) else (out,):
            assert part.shape[0] == 2 and np.all(np.isfinite(part))


# the fidelity and trace-distance kernels, properties and a short search, in a
# fresh interpreter; "stubbed" hides all five private names from the package,
# as a numpy that renamed them would
FALLBACK_RUN = """
import sys, types
import numpy as np
if sys.argv[1] == "stubbed":
    np.linalg._umath_linalg = types.ModuleType("_umath_linalg")  # np.linalg keeps its own
from qsblab import hilbert, metrics
from qsblab.cli import main
assert (hilbert._eigh_lo is np.linalg.eigh) == (sys.argv[1] == "stubbed")
g = np.random.default_rng(0).normal(size=(2, 3, 4, 4, 2)) @ np.array([1.0, 1.0j])
rho = g @ g.conj().swapaxes(-1, -2)
rho /= np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
roots = metrics._root(*hilbert.eigh_desc(rho))
print(metrics._fidelity(*roots).tolist(), metrics._trace_distance(*rho).tolist())
main(["properties", "--samples", "20", "--dims", "8"])
main(["optimize", "--ds", "2", "--da", "1", "--db", "2", "--dc", "2", "--env", "4",
      "--restarts", "2", "--iters", "100", "-o", "front.json"])
"""


def test_public_linalg_fallback_gives_the_same_runs(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    stdout = {}
    for mode in ("private", "stubbed"):
        (tmp_path / mode).mkdir()
        stdout[mode] = subprocess.run(
            [sys.executable, "-c", FALLBACK_RUN, mode],
            cwd=tmp_path / mode, env=env, capture_output=True, text=True, check=True,
        ).stdout
    assert "properties ok" in stdout["private"] and "best 0.83" in stdout["private"]
    assert stdout["stubbed"] == stdout["private"]
    front = [(tmp_path / mode / "front.json").read_bytes() for mode in stdout]
    assert front[0] == front[1]
