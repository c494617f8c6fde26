"""Command line front end.

Subcommands: construct, verify, threshold, properties, optimize, sweep.
Exit codes: 0 success, 1 usage, 2 mathematically impossible request
(NoPerfectQsb, ChainNotApplicable), 3 I/O or malformed input, 4 invariant or
property violation (InvariantViolation, or any other QsbError), or a request too
large to allocate or a dimension past optimize's cap (TooLarge, "too large: ...").
A subcommand that returns (exit 0, or 4 from a failing chain row or
property check) writes one small manifest next to its outputs so it can be
replayed; a run that ends in an error message (usage, or exit 2, 3 or 4
from an exception) writes none. optimize, sweep and verify --chain -o stat their
output first: an empty path, a directory in the output's place, a missing parent
directory, or a file in the parent's place fails before any search or measurement.
Every file is rewritten in place and cut to the new length, not truncated
first; an output that is not a regular file (a device, a pipe) is written
but not cut, and its manifest goes to the working directory.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import os
import stat
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ChainNotApplicable, NoPerfectQsb, QsbError, TooLarge
from .metrics import property_sweep
from .optimize import FrontierPoint, OptimizeConfig, frontier_sweep, optimize_qsb
from .qsb import (
    QsbInstance,
    chain_verify,
    check_chain_premise,
    default_probe_states,
    epsilon_threshold,
    measure_eps,
    perfect_qsb_construct,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IMPOSSIBLE = 2
EXIT_IO = 3
EXIT_INVARIANT = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; reserve 2 for impossible requests.
    # One line, no usage block: --help shows the usage.
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _blas() -> dict[str, str]:
    """The name and version of the BLAS numpy was built with, read once per process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas["name"], "version": blas["version"]}


def _write_manifest(args, inputs: list[str], outputs: list[str], started: float) -> None:
    """<stem>.manifest.json beside the first output if it is a regular file, else
    <subcommand>.manifest.json in the working directory."""
    manifest = {
        "subcommand": args.subcommand,
        "flags": {k: v for k, v in vars(args).items() if not callable(v)},
        "seed": getattr(args, "seed", None),
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in _THREAD_VARS if k in os.environ},
        "duration_s": round(time.perf_counter() - started, 3),
    }
    first = Path(outputs[0]) if outputs and os.path.isfile(outputs[0]) else Path(args.subcommand)
    _write_json(first.with_name(first.stem + ".manifest.json"), manifest)


def _write_json(path: str | Path, obj) -> None:
    # no indent: json encodes with its C encoder only when indent is None
    _write_file(path, (json.dumps(obj, check_circular=False) + "\n").encode())


def _stat_output_dir(path: str) -> None:
    """Raise the OSError a write to path gives if path is empty or a directory,
    or its directory is missing or no directory."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _write_file(path: str | Path, data: bytes) -> None:
    """Write data to path, through a symlink, and cut a regular file to its length.

    The file is not truncated on open: on ext4 a file truncated to zero and
    rewritten starts writeback on close, several times the cost of the write.
    A new file gets the mode open(path, "w") gives. Nothing is fsynced.
    truncate fails on a device or a pipe, so only a regular file is cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):  # a pipe can take a write in parts
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


_PER_LINE = 8  # fidelities per stdout line


@functools.lru_cache(maxsize=4)
def _wrapped_layout(n: int) -> str:
    """The %-format of n values at _PER_LINE to a line, built once per count."""
    return "\n".join(" ".join(["%.6f"] * min(_PER_LINE, n - i)) for i in range(0, n, _PER_LINE))


def _print_wrapped(values: np.ndarray) -> None:
    print(_wrapped_layout(len(values)) % tuple(values.tolist()))


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, input paths, output paths)
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> tuple[int, list[str], list[str]]:
    inst = perfect_qsb_construct(args.ds, args.da, args.db, args.dc)
    _, f_ab, f_ac = measure_eps(inst, default_probe_states(inst.d_s, args.seed, 100))
    _write_json(args.out, inst.to_json())
    print(f"wrote {args.out}")
    print(f"f_ab {f_ab.min():.6f}")
    print(f"f_ac {f_ac.min():.6f}")
    return EXIT_OK, [], [args.out]


def _load_instance(path: str) -> QsbInstance:
    """Instance from a `construct` file, or the winner of an `optimize` file."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _IoFailure(f"cannot read instance file {path}: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("best_instance", data)
    try:
        return QsbInstance.from_json(data)
    except QsbError:
        raise  # parsed, but the instance breaks an invariant: exit 4, not 3
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise _IoFailure(f"instance file {path} is malformed: {exc}") from exc


class _IoFailure(Exception):
    pass


def _cmd_verify(args) -> tuple[int, list[str], list[str]]:
    if args.out is not None and not args.chain:
        _parser().error("verify -o/--out needs --chain: only the chain writes a report")
    if args.allow_trivial and not args.chain:
        _parser().error("verify --allow-trivial needs --chain: only the chain has a premise to waive")
    if args.out is not None:
        _stat_output_dir(args.out)
    inst = _load_instance(args.instance)
    if args.chain:
        check_chain_premise(inst, args.allow_trivial)  # refuse before measuring anything
    eps_hat, f_ab, f_ac = measure_eps(inst, default_probe_states(inst.d_s, args.seed, args.samples))
    print(f"eps_hat {eps_hat:.6g}")
    print(f"states {len(f_ab)}")
    _print_wrapped(np.minimum(f_ab, f_ac))
    outputs: list[str] = []
    code = EXIT_OK
    if args.chain:
        report = chain_verify(inst, eps_hat, seed=args.seed, allow_trivial=args.allow_trivial)
        lines = [
            f"chain eps_effective {report.eps:.6g}  d_a {report.d_a}",
            f"{'check':40s} {'lhs':>12s} {'rhs':>12s} {'slack':>12s} status",
        ]
        # %-formatting writes the same bytes as the f-string at half its cost per row
        for label, lhs, rhs, slack, satisfied, vacuous in report.checks:
            status = "vacuous" if vacuous else ("ok" if satisfied else "FAIL")
            lines.append("%-40s %12.6f %12.6f %12.6f %s" % (label, lhs, rhs, slack, status))
        all_ok = report.all_satisfied
        lines.append(f"all_satisfied {all_ok}")
        if report.cloning_contradiction:
            lines.append("copy floors exceed the universal cloning ceiling: contradiction")
        print("\n".join(lines))
        if args.out is not None:
            _write_json(args.out, report.to_json())
            outputs.append(args.out)
            print(f"wrote {args.out}")
        if not all_ok:
            code = EXIT_INVARIANT
    return code, [args.instance], outputs


def _cmd_threshold(args) -> tuple[int, list[str], list[str]]:
    eps_zero, fixed, dimensional = epsilon_threshold(args.da)
    print(f"eps_zero {eps_zero!r}")
    print(f"candidates fixed {fixed!r} dimensional {dimensional!r}")
    return EXIT_OK, [], []


def _cmd_properties(args) -> tuple[int, list[str], list[str]]:
    failures = property_sweep(args.samples, args.dims, args.seed)
    if failures:
        print(f"{len(failures)} property violations (seed {args.seed}):")
        for c in failures:
            print(f"  {c.label}: lhs {c.lhs!r} rhs {c.rhs!r} slack {c.slack!r} seed {args.seed}")
        return EXIT_INVARIANT, [], []
    print(f"properties ok: {args.samples} samples per property, dims <= {args.dims}")
    return EXIT_OK, [], []


def _config_from_args(args, d_a: int, env: int | None) -> OptimizeConfig:
    return OptimizeConfig(
        d_s=args.ds,
        d_a=d_a,
        d_b=args.db,
        d_c=args.dc,
        env_dim=env,
        restarts=args.restarts,
        max_iters=args.iters,
        haar_count=args.haar,
        seed=args.seed,
    )


def _cmd_optimize(args) -> tuple[int, list[str], list[str]]:
    _stat_output_dir(args.out)
    point = optimize_qsb(_config_from_args(args, args.da, args.env))
    print(f"dims {point.dims}")
    print(f"best {point.best_worst_fidelity:.6f}")
    print(f"eps_hat {point.eps_hat:.6g}")
    print(f"winner restart {point.winner_restart} after {point.iterations_used} iters")
    _write_json(args.out, point.to_json())
    print(f"wrote {args.out}")
    return EXIT_OK, [], [args.out]


def _cmd_sweep(args) -> tuple[int, list[str], list[str]]:
    _stat_output_dir(args.csv)
    lo, hi = args.da
    # env_dim None: frontier_sweep sizes each point's environment itself
    points = frontier_sweep(_config_from_args(args, lo, None), range(lo, hi + 1))
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(FrontierPoint.CSV_HEADER)
    writer.writerows(p.csv_row() for p in points)
    _write_file(args.csv, text.getvalue().encode())
    for p in points:
        print(f"d_a {p.dims[1]}: best {p.best_worst_fidelity:.6f}")
    print(f"wrote {args.csv}")
    return EXIT_OK, [], [args.csv]


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    # argparse reports a failed conversion as "invalid <function name> value"
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _shared_range(text: str) -> tuple[int, int]:
    """sweep's --da: "lo..hi", or "d" for a single point, with 1 <= lo <= hi."""
    lo_s, hi_s = text.split("..", 1) if ".." in text else (text, text)
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        lo = hi = 0
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected lo..hi with 1 <= lo <= hi")
    return lo, hi


def _add_opt_flags(p: _Parser) -> None:
    p.add_argument("--ds", type=_int_at_least(1), required=True, help="source dimension")
    p.add_argument("--db", type=_int_at_least(1), required=True, help="first private dimension")
    p.add_argument("--dc", type=_int_at_least(1), required=True, help="second private dimension")
    p.add_argument("--restarts", type=_int_at_least(1), default=OptimizeConfig.restarts)
    p.add_argument("--iters", type=_int_at_least(1), default=OptimizeConfig.max_iters)
    p.add_argument("--haar", type=_int_at_least(0), default=OptimizeConfig.haar_count, help="Haar probe count")


def build_parser() -> _Parser:
    parser = _Parser(prog="qsblab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qsblab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_int_at_least(0), default=42)

    p = sub.add_parser("construct", parents=[seeded], help="build the exact broadcast at d_S <= d_A")
    for flag in ("--ds", "--da", "--db", "--dc"):
        p.add_argument(flag, type=_int_at_least(1), required=True)
    p.add_argument("-o", "--out", required=True, help="instance JSON path")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", parents=[seeded], help="measure the fidelity deficit of an instance")
    p.add_argument("instance", help="instance JSON path, or an optimize output file")
    p.add_argument("--samples", type=_int_at_least(0), default=100, help="Haar probe count")
    p.add_argument("--chain", action="store_true", help="run the deficit-bound chain")
    p.add_argument(
        "--allow-trivial",
        action="store_true",
        help="run the chain even at d_S <= d_A (its guarantees do not apply)",
    )
    p.add_argument("-o", "--out", default=None, help="chain report JSON path (needs --chain)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("threshold", help="deficit threshold for a shared dimension")
    p.add_argument("--da", type=_int_at_least(1), required=True)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("properties", parents=[seeded], help="randomized fidelity-inequality sweep")
    p.add_argument("--samples", type=_int_at_least(0), default=1000)
    p.add_argument(
        "--dims", type=_int_at_least(2), default=8, help="dimension cap per factor"
    )
    p.set_defaults(func=_cmd_properties)

    p = sub.add_parser("optimize", parents=[seeded], help="search for the best instance at fixed dims")
    _add_opt_flags(p)
    p.add_argument("--da", type=_int_at_least(1), required=True)
    # a sweep sizes the environment per point (see frontier_sweep)
    p.add_argument("--env", type=_int_at_least(1), default=None, help="environment dimension")
    p.add_argument("-o", "--out", default="frontier.json")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", parents=[seeded], help="optimize across a range of shared dimensions")
    _add_opt_flags(p)
    p.add_argument("--da", type=_shared_range, required=True, help="shared-dimension range, e.g. 1..3")
    p.add_argument("--csv", default="sweep.csv", help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> _Parser:
    return build_parser()  # parse_args keeps no state, so one parser serves a process


def main(argv: list[str] | None = None) -> int:
    """Parse, run the subcommand, and write its manifest if it returned."""
    try:
        args = _parser().parse_args(argv)
        started = time.perf_counter()
        code, inputs, outputs = args.func(args)
        _write_manifest(args, inputs, outputs, started)
        return code
    except SystemExit as exc:  # usage errors and --help/--version
        return int(exc.code or 0)
    except (NoPerfectQsb, ChainNotApplicable) as exc:
        print(f"impossible: {exc}", file=sys.stderr)
        return EXIT_IMPOSSIBLE
    except _IoFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (MemoryError, TooLarge) as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except QsbError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
