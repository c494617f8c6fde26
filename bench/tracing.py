"""Span tracing of the qsblab layers from outside the package.

`Tracer.installed(modules)` replaces every public function defined in the
given modules, and the `__post_init__` validator of every public class
defined there, with a wrapper that records a span (name, start, end,
parent). Copies of a function imported by name into another module (the CLI
binds `measure_eps`, `optimize` binds `default_probe_states`) are replaced
too, since a call through the copy would otherwise go untraced. Everything is
restored when the context exits. Spans live in flat in-memory arrays and are
aggregated or written out only after the traced work is done.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterable

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Wrapper recording one span per call; `count(result)` adds to `counts`."""
        nid = self._intern(name)
        start, end, name_id, parent, stack = (
            self.start, self.end, self.name_id, self.parent, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                key = f"{name}.{count.__name__}"
                self.counts[key] = self.counts.get(key, 0) + count(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(
        self,
        modules: Iterable[ModuleType],
        counters: dict[str, Callable] | None = None,
    ):
        """Wrap the public layer of `modules` for the duration of the block.

        Spans are named `<module>.<function>` (or `<module>.<Class>` for a
        validator). `counters` maps a span name to a function of the call's
        result; its values are summed under `<span name>.<function name>`.
        """
        counters = counters or {}
        modules = list(modules)
        packages = {m.__name__.split(".")[0] for m in modules}
        holders = [m for n, m in list(sys.modules.items()) if n.split(".")[0] in packages]
        replaced: list[tuple[object, str, object]] = []
        wrappers: dict[int, Callable] = {}
        try:
            for mod in modules:
                short = mod.__name__.rsplit(".", 1)[-1]
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj):
                        name = f"{short}.{attr}"
                        wrappers[id(obj)] = self.wrap(name, obj, counters.get(name))
                    elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                        orig = vars(obj)["__post_init__"]
                        replaced.append((obj, "__post_init__", orig))
                        setattr(obj, "__post_init__", self.wrap(f"{short}.{attr}", orig))
            # Rebind each wrapped function wherever the package holds it,
            # including the re-exports in the package namespace.
            for holder in {id(m): m for m in modules + holders}.values():
                for attr, obj in list(vars(holder).items()):
                    if id(obj) in wrappers and not attr.startswith("__"):
                        replaced.append((holder, attr, obj))
                        setattr(holder, attr, wrappers[id(obj)])
            yield self
        finally:
            for holder, attr, orig in reversed(replaced):
                setattr(holder, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        if self._stack:
            raise RuntimeError("spans still open")
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, busy time and self time per span name and per module.

        Self time is a span's duration minus the durations of its direct
        children. Busy time is the wall time during which at least one span
        of the name (or module) was open, so recursion is not counted twice.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child

        modules = sorted({nm.split(".")[0] for nm in self.names})
        module_id = np.array([modules.index(nm.split(".")[0]) for nm in self.names], dtype=np.int64)
        name_id = a["name_id"].astype(np.int64)
        out: dict[str, dict[str, float]] = {}
        for group, labels in ((name_id, self.names), (module_id[name_id], modules)):
            for g, label in enumerate(labels):
                sel = np.flatnonzero(group == g)
                out[label] = {
                    "calls": float(len(sel)),
                    "busy_s": _union_length(a["start"][sel], a["end"][sel]),
                    "self_s": float(self_t[sel].sum()),
                }
        return out

    def save(self, path: Path) -> None:
        """Write every span, with the name table, as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def _union_length(start: np.ndarray, end: np.ndarray) -> float:
    """Length of the union of properly nested intervals given in start order."""
    if len(start) == 0:
        return 0.0
    covered_until = np.maximum.accumulate(np.concatenate([[-np.inf], end[:-1]]))
    outermost = start >= covered_until
    return float((end[outermost] - start[outermost]).sum())
