"""Fixed reference kernels that measure how fast the machine runs right now.

On a shared host the speed of one core drifts by a quarter or more within a
few seconds, and the drift stretches every timing alike. `Sampler` times a
reference kernel every few milliseconds, also in the middle of a CLI call,
from a SIGALRM handler. A call's wall time, less the time spent in the
handler, divided by the kernel's slowdown over the call (its mean time in and
around the call, relative to the kernel's time on an unhindered reference
machine) removes most of the drift.

Array contractions slow down more under contention than interpreter-bound
code, so there are two kernels and each workload is calibrated by the one
that does its kind of work: `objects` (small Hermitian eigensolves and
validated dataclasses) and `arrays` (the optimizer's einsum contractions and
QR on arrays of its size). Neither shares code with qsblab, so a change to
the program cannot move them.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class _Box:
    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("not finite")


_RNG = np.random.default_rng(0)


def _hermitian(d: int) -> np.ndarray:
    g = _RNG.standard_normal((d, d)) + 1j * _RNG.standard_normal((d, d))
    return g @ g.conj().T


def _complex(*shape: int) -> np.ndarray:
    return _RNG.standard_normal(shape) + 1j * _RNG.standard_normal(shape)


_MATS = [_hermitian(d) for d in (2, 3, 4, 6)]
_T, _P, _Q = _complex(2, 2, 2, 8, 210), _complex(2, 2, 210), _complex(64, 2)


def objects() -> float:
    total = 0.0
    for k in range(40):
        m = _MATS[k % len(_MATS)]
        vals, vecs = np.linalg.eigh(m)
        total += _Box(float(np.abs(vecs @ m @ vecs.conj().T).sum())).value
        total += float(np.einsum("ij,ji->", m, m).real) + float(vals[-1])
    return total


def arrays() -> float:
    total = 0.0
    for _ in range(4):
        w = np.einsum("abn,abcen->cen", _P.conj(), _T)
        total += float(np.einsum("cen,cen->n", w, w.conj()).real.sum())
        total += float(np.abs(np.einsum("abn,cen,sn->abces", _P, w, _P[0].conj())).sum())
        total += float(np.abs(np.linalg.qr(_Q)[1][0, 0]))
    return total


# Each kernel with its time on the reference machine when nothing slows it.
KERNELS = {"objects": (objects, 0.85), "arrays": (arrays, 0.6)}


def slowdown_now(kernel: str, runs: int = 5) -> float:
    """The named kernel's mean time over `runs` runs, relative to its reference."""
    fn, reference_ms = KERNELS[kernel]
    total = 0.0
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        total += time.perf_counter() - t0
    return total * 1e3 / runs / reference_ms


class Sampler:
    """Times a named kernel every `interval_s` seconds of wall time while active."""

    def __init__(self, kernel: str, interval_s: float):
        self.kernel, self.reference_ms = KERNELS[kernel]
        self.interval_s = interval_s
        self.at: list[float] = []  # start of each kernel run, perf_counter seconds
        self.ms: list[float] = []  # its duration
        self.spent_s = 0.0  # total wall time inside the handler
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives while the kernel runs is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.ms.append((t1 - t0) * 1e3)
        self.spent_s += t1 - t0
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over [start, end], widened by one interval each
        side so that short calls see samples too, relative to the reference."""
        at, ms = np.asarray(self.at), np.asarray(self.ms)
        sel = (at >= start - self.interval_s) & (at <= end + self.interval_s)
        if not sel.any():  # the nearest sample stands in
            sel = np.argmin(np.abs(at - (start + end) / 2))
        return float(np.mean(ms[sel])) / self.reference_ms
