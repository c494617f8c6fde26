"""The three benchmark workloads: their inputs, their CLI calls and their oracles.

Each is a closed loop with one client: call i+1 starts when call i has
returned. Call i of a run with workload seed s gives the program the seed
s + 1000*i, so call 0 is exactly `qsblab ... --seed s` and runs at nearby
workload seeds share no inputs.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

import oracle

SEED_STRIDE = 1000


def program_seed(seed: int, i: int) -> int:
    return seed + SEED_STRIDE * i


class CeilingSearch:
    """`optimize` at (2,1,2,2): the search that should reach the 5/6 ceiling."""

    name = "ceiling-search"
    reference = "arrays"  # the speed.py kernel that does this workload's kind of work
    restarts = 1
    haar = 200
    output = "frontier.json"
    trace_calls = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.best: dict[int, float] = {}

    def generate(self) -> None:
        """Inputs are the per-call program seeds; nothing to write."""

    def argv(self, i: int, iters: int = 2000) -> list[str]:
        return [
            "optimize", "--ds", "2", "--da", "1", "--db", "2", "--dc", "2",
            "--env", "8", "--iters", str(iters), "--restarts", str(self.restarts),
            "--haar", str(self.haar), "--seed", str(program_seed(self.seed, i)),
            "-o", self.output,
        ]

    def warmup_argv(self) -> list[str]:
        return self.argv(0, iters=20)

    def check(self, i: int, rc: int, stdout: str) -> str | None:
        path = self.workdir / self.output
        frontier = json.loads(path.read_text()) if rc == 0 and path.exists() else None
        reason = oracle.check_ceiling(rc, frontier, program_seed(self.seed, i), self.haar)
        if reason is None:
            self.best[i] = frontier["best_worst_fidelity"]
        return reason

    def report(self, latencies: list[float]) -> list[tuple[str, float, str]]:
        rows = [("search_s", statistics.median(latencies), "s")]
        if 0 in self.best:
            rows.append(("ceiling_gap", oracle.CLONING_CEILING - self.best[0], "fidelity"))
        return rows


class PropertySweep:
    """`properties --dims 16`: the randomized fidelity-inequality sweep."""

    name = "property-sweep"
    reference = "objects"
    samples = 50
    output = None
    trace_calls = 20

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> None:
        """Inputs are the per-call program seeds; nothing to write."""

    def argv(self, i: int) -> list[str]:
        return [
            "properties", "--dims", "16", "--samples", str(self.samples),
            "--seed", str(program_seed(self.seed, i)),
        ]

    def warmup_argv(self) -> list[str]:
        return self.argv(0)

    def check(self, i: int, rc: int, stdout: str) -> str | None:
        return oracle.check_properties(rc, stdout)

    def report(self, latencies: list[float]) -> list[tuple[str, float, str]]:
        return [("property_samples_per_s", self.samples * len(latencies) / sum(latencies), "1/s")]


def _haar_isometry(rng: np.random.Generator, dout: int, din: int) -> np.ndarray:
    g = rng.standard_normal((dout, din)) + 1j * rng.standard_normal((dout, din))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _mat_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def random_instance(rng: np.random.Generator, d_s: int, d_a: int, d_b: int, d_c: int) -> dict:
    """Haar-random broadcast instance in the instance-file format.

    The channel is the Stinespring isometry S -> ABCE with an environment of
    dimension d_s, split into one Kraus operator per environment basis state.
    """
    d_e = d_s
    u = _haar_isometry(rng, d_a * d_b * d_c * d_e, d_s).reshape(d_a * d_b * d_c, d_e, d_s)
    src = [["S", d_s]]
    return {
        "in": src,
        "out": [["A", d_a], ["B", d_b], ["C", d_c]],
        "kraus": [_mat_json(u[:, e, :]) for e in range(d_e)],
        "v_abs": {"in": src, "out": [["A", d_a], ["B", d_b]], "matrix": _mat_json(_haar_isometry(rng, d_a * d_b, d_s))},
        "v_acs": {"in": src, "out": [["A", d_a], ["C", d_c]], "matrix": _mat_json(_haar_isometry(rng, d_a * d_c, d_s))},
    }


class ChainVerify:
    """`verify INST --chain` on Haar-random over-capacity instances."""

    name = "chain-verify"
    reference = "objects"
    dims = ((3, 1, 3, 3), (3, 2, 2, 2), (4, 2, 2, 2), (4, 3, 2, 2))
    pool = 64
    samples = 100
    output = "chain.json"
    trace_calls = 60

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.instances: list[dict] = []

    def _path(self, k: int) -> Path:
        return self.workdir / "inputs" / f"inst-{k:02d}.json"

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.instances = [random_instance(rng, *self.dims[k % len(self.dims)]) for k in range(self.pool)]
        self._path(0).parent.mkdir(exist_ok=True)
        for k, inst in enumerate(self.instances):
            self._path(k).write_text(json.dumps(inst))

    def argv(self, i: int) -> list[str]:
        return [
            "verify", str(self._path(i % self.pool)), "--chain",
            "--samples", str(self.samples), "--seed", str(program_seed(self.seed, i)),
            "-o", self.output,
        ]

    def warmup_argv(self) -> list[str]:
        return self.argv(0)

    def check(self, i: int, rc: int, stdout: str) -> str | None:
        inst = self.instances[i % self.pool]
        return oracle.check_chain(rc, stdout, inst, program_seed(self.seed, i), self.samples)

    def report(self, latencies: list[float]) -> list[tuple[str, float, str]]:
        ms = np.array(latencies) * 1e3
        return [
            ("verify_ms.p50", float(np.percentile(ms, 50)), "ms"),
            ("verify_ms.p90", float(np.percentile(ms, 90)), "ms"),
        ]


WORKLOADS = {w.name: w for w in (CeilingSearch, PropertySweep, ChainVerify)}
