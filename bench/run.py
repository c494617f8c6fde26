"""qsblab benchmark, driven in-process through the CLI.

    python3 bench/run.py --workload ceiling-search --seed 42 --seconds 30 --trace 0

With `--trace 0` it sets up (fresh-process import plus input generation,
repeated), then calls `qsblab.cli.main` in a closed loop for `--seconds`,
times each call at reference machine speed (see `speed.py`), checks every
output with the oracles in `oracle.py`, and prints the end-to-end metrics. With `--trace 1` it runs a fixed number of calls twice
each, once plain and once with every public function of the six layers
wrapped (see `tracing.py`), and prints the per-layer metrics and the
tracing overhead. The last line of standard output is always one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is imported: one thread keeps the
# closed loop steady and within the 2 cores of the reference machine.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
os.environ.pop("QSBLAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15
# How often the reference kernel is timed during the measured loop.
SAMPLE_INTERVAL_S = 0.02

LAYERS = ("hilbert", "metrics", "channels", "qsb", "optimize", "cli")
LAYER_FUNCTIONS = (
    "optimize.optimize_qsb", "optimize.branch_values",
    "hilbert.eigh_desc", "hilbert.phase_fix", "hilbert.random_density",
    "hilbert.DensityMatrix", "hilbert.partial_trace", "hilbert.random_pure",
    "metrics.fidelity", "metrics.uhlmann_partner", "metrics.property_sweep",
    "channels.apply", "channels.from_stinespring",
    "qsb.chain_verify", "qsb.extract_product_approx", "qsb.default_probe_states",
    "qsb.measure_eps", "qsb.branch_fidelity_matrix",
    "cli.main", "cli.build_parser",
)
END_TO_END_UNITS = {"call_ms.p50": "ms", "call_ms.p75": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
SPAN_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}
EXTRA_LAYER_UNITS = {
    "optimize.evals_per_restart": "count",
    "qsb.chain_verify.checks": "count",
    "trace.untraced_call_ms": "ms",
    "trace.traced_call_ms": "ms",
    "trace.overhead_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in LAYERS + LAYER_FUNCTIONS:
        for field, unit in SPAN_UNITS.items():
            units[f"{span}.{field}"] = unit
    units.update(EXTRA_LAYER_UNITS)
    return units


def checks(report) -> int:
    return len(report.checks)


@dataclass
class Outcome:
    """One in-process CLI call: exit code (None if it raised), output, timing.

    `start` and `end` are on the perf_counter clock; `seconds` is the wall
    time between them less the time the sampler's handler spent inside.
    """

    rc: int | None
    stdout: str
    stderr: str
    start: float
    end: float
    seconds: float
    error: str | None = None


def call(argv: list[str], sampler: speed.Sampler | None = None) -> Outcome:
    # Looked up on every call so that a traced `cli.main` is the one called.
    from qsblab.cli import main

    out, err = io.StringIO(), io.StringIO()
    spent = sampler.spent_s if sampler else 0.0
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a crash is one failed call, not a failed benchmark
            error = f"raised {exc!r}"
        t1 = time.perf_counter()
    if sampler:
        spent = sampler.spent_s - spent
    return Outcome(rc, out.getvalue(), err.getvalue(), t0, t1, t1 - t0 - spent, error)


def fresh_import_seconds(cwd: Path) -> float:
    """`import qsblab` timed inside a new interpreter (startup excluded)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time; t = time.perf_counter(); import qsblab; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()}")
    return float(proc.stdout)


class Loop:
    """Runs calls of one workload and tallies oracle failures."""

    def __init__(self, workload):
        self.w = workload
        self.sampler: speed.Sampler | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, i: int) -> Outcome:
        if self.w.output:
            (self.w.workdir / self.w.output).unlink(missing_ok=True)
        outcome = call(self.w.argv(i), self.sampler)
        self.attempted += 1
        try:
            reason = outcome.error or self.w.check(i, outcome.rc, outcome.stdout)
        except Exception as exc:  # output the oracle cannot even read
            reason = f"oracle raised {exc!r}"
        if reason is not None:
            said = outcome.stderr.strip().splitlines()
            self.failures.append(f"call {i}: {reason}" + (f" ({said[-1]})" if said else ""))
        return outcome

    def warm_up(self) -> None:
        outcome = call(self.w.warmup_argv())
        if outcome.rc != 0:
            self.failures.append(f"warm-up failed: {outcome.error or outcome.rc}")


def timed_run(w, seconds: float) -> tuple[Loop, dict, list, dict]:
    setup = []
    for _ in range(SETUP_REPEATS):
        before = speed.slowdown_now("objects")
        t_import = fresh_import_seconds(w.workdir)
        t0 = time.perf_counter()
        w.generate()
        elapsed = t_import + time.perf_counter() - t0
        setup.append(elapsed * 2.0 / (before + speed.slowdown_now("objects")))
    loop = Loop(w)
    loop.warm_up()
    calls = []
    with speed.Sampler(w.reference, SAMPLE_INTERVAL_S) as sampler:
        loop.sampler = sampler
        time.sleep(2 * SAMPLE_INTERVAL_S)  # samples before the first call
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not calls:
            c = loop.run(len(calls))
            calls.append((c.start, c.end, c.seconds))  # not the output: memory is measured
        time.sleep(2 * SAMPLE_INTERVAL_S)  # and after the last
    wall = np.array([seconds for _, _, seconds in calls]) * 1e3
    slowdown = np.array([sampler.slowdown(start, end) for start, end, _ in calls])
    ms = wall / slowdown
    metrics = {
        "call_ms.p50": float(np.percentile(ms, 50)),
        "call_ms.p75": float(np.percentile(ms, 75)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named = w.report((ms / 1e3).tolist()) + [
        ("failed_share", len(loop.failures) / loop.attempted, "share"),
        ("wall_ms.p50", float(np.percentile(wall, 50)), "ms"),
        ("wall_ms.p75", float(np.percentile(wall, 75)), "ms"),
        ("slowdown.p50", float(np.median(slowdown)), "x"),
    ]
    origin = calls[0][0]
    extra = {
        "setup_s": setup,
        "calls": [[start - origin, end - origin, seconds] for start, end, seconds in calls],
        "kernel": [[at - origin, kernel_ms] for at, kernel_ms in zip(sampler.at, sampler.ms)],
    }
    return loop, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, named, extra


def traced_run(w, spans_path: Path) -> tuple[Loop, dict, list, dict]:
    modules = [importlib.import_module(f"qsblab.{m}") for m in LAYERS]
    w.generate()
    loop = Loop(w)
    loop.warm_up()
    tracer = Tracer()
    plain, traced = [], []
    # Interleave plain and traced calls on the same input so drift in the
    # machine's speed cancels out of the overhead figure.
    for i in range(w.trace_calls):
        out_plain = loop.run(i)
        with tracer.installed(modules, counters={"qsb.chain_verify": checks}):
            out_traced = loop.run(i)
        plain.append(out_plain.seconds)
        traced.append(out_traced.seconds)
        if out_traced.stdout != out_plain.stdout:
            loop.failures.append(f"call {i}: traced output differs from the plain one")
    summary = tracer.summary()
    tracer.save(spans_path)
    zero = {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0}
    metrics = {}
    for span in LAYERS + LAYER_FUNCTIONS:
        for field in SPAN_UNITS:
            metrics[f"{span}.{field}"] = summary.get(span, zero)[field]
    restarts = getattr(w, "restarts", 0) * w.trace_calls
    metrics["optimize.evals_per_restart"] = (
        summary.get("optimize.branch_values", zero)["calls"] / restarts if restarts else 0.0
    )
    metrics["qsb.chain_verify.checks"] = float(tracer.counts.get("qsb.chain_verify.checks", 0))
    metrics["trace.untraced_call_ms"] = statistics.fmean(plain) * 1e3
    metrics["trace.traced_call_ms"] = statistics.fmean(traced) * 1e3
    metrics["trace.overhead_ms"] = metrics["trace.traced_call_ms"] - metrics["trace.untraced_call_ms"]
    units = per_layer_units()
    top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    named = [(f"{k}.self_s", v["self_s"], "s") for k, v in top if "." in k]
    return loop, {k: (v, units[k]) for k, v in metrics.items()}, named, {"spans": spans_path.name}


def environment(seed: int) -> dict:
    """Facts that decide whether two results may be compared."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that clean-up runs
    if args.workload == "all":  # each workload in its own process, one after another
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name, *flags]).returncode
            for name in WORKLOADS
        )

    sys.path.insert(0, str(SRC))
    try:
        import qsblab
    except ImportError as exc:
        print(f"bench: cannot import qsblab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(qsblab.__file__).resolve().is_relative_to(SRC):
        print(f"bench: qsblab imported from {qsblab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload](args.seed, workdir)
    cwd = os.getcwd()
    os.chdir(workdir)  # the CLI writes manifests into the working directory
    try:
        if args.trace:
            loop, metrics, named, extra = traced_run(w, RESULTS / f"{tag}.spans.npz")
        else:
            loop, metrics, named, extra = timed_run(w, args.seconds)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir)

    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "env": env, "named": named, "failures": loop.failures,
        **extra, **result,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"env {json.dumps(env)}")
    for reason in loop.failures[:20]:
        print(f"FAILED {reason}")
    for name, value, unit in named:
        print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
