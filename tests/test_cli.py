"""Command line interface: subcommands, exit codes, manifests, file formats."""

import contextlib
import csv
import io
import json
import os
import tempfile
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsblab import cli
from qsblab import optimize as optimize_module
from qsblab import qsb as qsb_module
from qsblab.cli import main
from qsblab.hilbert import PureState, SpaceLayout, random_pure
from qsblab.optimize import OptimizeConfig, optimize_qsb
from qsblab.qsb import (chain_verify, default_probe_states, measure_eps, perfect_qsb_construct,
                        perturbed_perfect_instance, werner_cloner_construct)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _construct(workdir, name="inst.json", dims=("2", "2", "2", "2")):
    ds, da, db, dc = dims
    code = main(
        ["construct", "--ds", ds, "--da", da, "--db", db, "--dc", dc, "-o", name]
    )
    assert code == 0
    return workdir / name


def test_construct_success(workdir, capsys):
    path = _construct(workdir)
    out = capsys.readouterr().out
    assert "f_ab 1.000000" in out
    assert "f_ac 1.000000" in out
    assert path.exists()
    manifest = json.loads((workdir / "inst.manifest.json").read_text())
    assert manifest["subcommand"] == "construct"
    assert manifest["seed"] == 42
    assert manifest["outputs"] == ["inst.json"]


@pytest.mark.parametrize("dims", [(2, 2, 1, 1), (2, 3, 2, 3)], ids=["exact-fit", "padded"])
def test_construct_writes_the_exact_broadcast_over_a_longer_file(workdir, capsys, dims):
    # at d_B, d_C > 1 the broadcast is zero-padded past its one-dimensional
    # private parts; a longer file under the output is cut to the new bytes
    (workdir / "inst.json").write_bytes(b"x" * 100_000)
    _construct(workdir, dims=tuple(map(str, dims)))
    assert capsys.readouterr().out == "wrote inst.json\nf_ab 1.000000\nf_ac 1.000000\n"
    want = json.dumps(perfect_qsb_construct(*dims).to_json()) + "\n"
    assert (workdir / "inst.json").read_text() == want


def test_construct_impossible_dims(workdir, capsys):
    code = main(["construct", "--ds", "3", "--da", "2", "--db", "2", "--dc", "2", "-o", "x.json"])
    assert code == 2
    assert "impossible" in capsys.readouterr().err


def test_construct_missing_flag(workdir, capsys):
    code = main(["construct", "--ds", "2", "--da", "2", "--db", "2", "-o", "x.json"])
    assert code == 1


def test_verify_reports_deficit(workdir, capsys):
    path = _construct(workdir)
    capsys.readouterr()
    code = main(["verify", str(path), "--samples", "20"])
    assert code == 0
    out = capsys.readouterr().out
    eps_line = next(l for l in out.splitlines() if l.startswith("eps_hat "))
    assert float(eps_line.split()[1]) <= 1e-12  # perfect instance
    assert "states 30" in out  # 2 basis + 8 phased pairs + 20 haar
    assert (workdir / "verify.manifest.json").exists()


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17])
def test_wrapped_fidelities_read_as_one_cell_per_value(capsys, n):
    # eight "%.6f" cells to a line, the last line holding the rest
    values = np.linspace(0.0, 1.0, n) ** 3
    cli._print_wrapped(values)
    cells = ["%.6f" % v for v in values]
    want = "\n".join(" ".join(cells[i : i + 8]) for i in range(0, n, 8))
    assert capsys.readouterr().out == want + "\n"


def test_verify_unreadable_and_malformed(workdir, capsys):
    assert main(["verify", "missing.json"]) == 3
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 3
    truncated = workdir / "trunc.json"
    truncated.write_text(json.dumps({"in": [["S", 2]]}))
    assert main(["verify", str(truncated)]) == 3
    data = json.loads(_construct(workdir).read_text())
    data["in"] = [["S", "two"]]  # non-numeric layout dimension
    non_numeric = workdir / "non_numeric.json"
    non_numeric.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(non_numeric)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "malformed" in err


def test_a_bool_matrix_entry_is_no_number(workdir, capsys):
    # every 1.0/0.0 entry of a perfect instance written as true/false: complex()
    # would read the file as the same instance, but the file holds no numbers
    data = json.loads(_construct(workdir, dims=("2", "2", "1", "1")).read_text())
    for mat in (*data["kraus"], data["v_abs"]["matrix"], data["v_acs"]["matrix"]):
        for row in mat:
            row[:] = [[bool(x) for x in z] for z in row]
    (workdir / "bools.json").write_text(json.dumps(data))
    assert "true" in (workdir / "bools.json").read_text()
    capsys.readouterr()
    assert main(["verify", "bools.json"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "malformed" in err and "bool" in err


def test_verify_invariant_breaking_instance(workdir, capsys):
    path = _construct(workdir)
    data = json.loads(path.read_text())
    # halve one Kraus entry: parses fine, fails completeness on reconstruction
    data["kraus"][0][0][0] = [0.5, 0.0]
    broken = workdir / "broken.json"
    broken.write_text(json.dumps(data))
    assert main(["verify", str(broken)]) == 4
    assert "invariant" in capsys.readouterr().err
    # a NaN fails every tolerance test instead of passing it
    data["kraus"][0][0][0] = [float("nan"), 0.0]
    broken.write_text(json.dumps(data))
    assert main(["verify", str(broken), "--chain", "--allow-trivial"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "invariant violation: completeness violated by nan\n"
    # infinite and overflowing entries fail the same tests without a warning
    for where, value in (("kraus", float("inf")), ("kraus", 1e200), ("v_abs", float("inf"))):
        data = json.loads(path.read_text())
        entries = data["kraus"][0] if where == "kraus" else data["v_abs"]["matrix"]
        entries[0][0] = [value, 0.0]
        broken.write_text(json.dumps(data))
        assert main(["verify", str(broken)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("invariant violation: "), err


def test_a_zero_dimension_in_an_instance_file_names_its_subsystem(workdir, capsys):
    data = perfect_qsb_construct(2, 2, 1, 1).to_json()
    data["out"][1][1] = 0
    (workdir / "zero.json").write_text(json.dumps(data))
    assert main(["verify", "zero.json"]) == 4
    assert capsys.readouterr() == ("", "invariant violation: subsystem 'B' dim = 0 must be >= 1\n")


def test_a_request_too_large_to_allocate_exits_4(workdir, capsys):
    # 10^15 Haar probes need 28 PiB, more than a 64-bit address space holds,
    # so the draw fails at once and allocates nothing
    path = _construct(workdir)
    capsys.readouterr()
    assert main(["verify", str(path), "--samples", "1000000000000000"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("too large: "), err


def test_a_dimension_past_the_search_cap_exits_4_as_too_large(workdir, capsys):
    # 2 * 64 * 64 * env 1 = 8192 exceeds the search's 4096: refused before any search
    assert main(["optimize", "--ds", "2", "--da", "2", "--db", "64", "--dc", "64", "--env", "1"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "too large: total dimension 8192 exceeds 4096\n"
    assert not list(workdir.iterdir())


def test_a_sweep_past_the_search_cap_exits_4_before_any_search(workdir, capsys, monkeypatch):
    # d_A = 3 and 4 fit the cap, d_A = 5 does not: the whole range is refused
    # up front, one stderr line, no CSV and no manifest
    monkeypatch.setattr(optimize_module, "optimize_qsb", lambda cfg, seeds=(): 1 / 0)
    assert main(_with_dims("sweep", ds="8", da="3..5", db="8", dc="8")) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "too large: total dimension 5120 exceeds 4096\n"
    assert not list(workdir.iterdir())


def test_an_unwritable_output_exits_3(workdir, capsys):
    # the output's directory does not exist: the write's OSError is an I/O
    # failure, one stderr line, no traceback and no file
    assert main(_with_dims("construct", da="2", db="1", dc="1") + ["-o", "missing/x.json"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("I/O failure: [Errno 2] "), err
    assert not list(workdir.iterdir())


def test_no_cli_call_builds_a_pure_state(workdir, monkeypatch):
    # a probe set stays one (d_S, n) array from its draw to the report
    built = []
    validate = PureState.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(PureState, "__post_init__", counting)
    runs = {
        "construct": ["construct", "--ds", "2", "--da", "2", "--db", "1", "--dc", "1", "-o", "inst.json"],
        "verify": ["verify", "inst.json"],
        "verify --chain": ["verify", "inst.json", "--chain", "--allow-trivial"],
        "optimize": ["optimize", "--ds", "2", "--da", "1", "--db", "2", "--dc", "2", "--env", "2",
                     "--restarts", "1", "--iters", "5", "--haar", "10"],
    }
    counts = {}
    for name, argv in runs.items():
        built.clear()
        assert main(argv) == 0, name
        counts[name] = len(built)
    assert counts == dict.fromkeys(runs, 0)
    PureState(SpaceLayout([("S", 1)]), np.ones(1))  # the counter does see a construction
    assert len(built) == 1


_DROP = object()


@pytest.mark.parametrize(
    "path, value, code",
    [
        # the Kraus family: empty is a channel without operators, else unreadable
        (("kraus",), [], 4),
        (("kraus",), "x", 3),
        (("kraus",), 5, 3),
        # dimensions: out of range is an invariant, anything but an integer is malformed
        (("in", 0, 1), 0, 4),
        (("in", 0, 1), -2, 4),
        (("in", 0, 1), 2.5, 3),
        (("in", 0, 1), 2.9999, 3),
        (("in", 0, 1), 2.0, 3),
        (("in", 0, 1), True, 3),
        (("out", 1, 1), True, 3),
        (("in", 0, 1), "2", 3),
        # missing or null parts
        (("out",), _DROP, 3),
        (("out",), None, 3),
        (("v_abs",), _DROP, 3),
        (("v_abs",), None, 3),
        # matrix entries: short, string, null, nested, beyond float64, too large to square
        (("kraus", 0, 0, 0), [1.0], 3),
        (("kraus", 0, 0, 0), "10", 3),
        (("kraus", 0, 0, 0), None, 3),
        (("kraus", 0, 0, 0), [[1.0, 0.0], [0.0, 0.0]], 3),
        (("kraus", 0, 0, 0), [10**400, 0], 3),
        (("v_abs", "matrix", 0, 0), [1e300, 0.0], 4),
        # a ragged row, a duplicate label, a list at the top level
        (("kraus", 0, 0), [[1.0, 0.0]], 3),
        (("out", 1, 0), "A", 4),
        ((), None, 3),
        # labels that are not strings, and a family or matrix that is a JSON object
        (("in", 0, 0), None, 3),
        (("in", 0, 0), 7, 3),
        (("out", 0, 0), ["A"], 3),
        (("kraus",), {}, 3),
        (("kraus",), [{}], 3),
        (("v_abs", "matrix"), {}, 3),
        # readable, but at odds with the instance: a representation on the wrong pair
        # or from a foreign source, a Kraus operator of the wrong shape, and five
        # complete operators where d_S * d_out = 4 is the cap
        (("v_abs", "out", 1, 0), "C", 4),
        (("v_acs", "in", 0, 0), "T", 4),
        (("kraus", 0), [[[1.0, 0.0]]], 4),
        (("kraus",), [[[[0.2**0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.2**0.5, 0.0]]]] * 5, 4),
        # one bool entry among numbers is no number either
        (("kraus", 0, 0, 0), [True, False], 3),
    ],
)
def test_malformed_instance_fails_cleanly(workdir, capsys, path, value, code):
    data = perfect_qsb_construct(2, 2, 1, 1).to_json()
    if not path:
        data = [data]
    else:
        *outer, last = path
        target = data
        for key in outer:
            target = target[key]
        if value is _DROP:
            del target[last]
        else:
            target[last] = value
    (workdir / "mutated.json").write_text(json.dumps(data))
    assert main(["verify", "mutated.json"]) == code
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.count("\n") == 1
    assert err.startswith("instance file" if code == 3 else "invariant violation: "), err


def test_verify_chain_gating(workdir, capsys):
    path = _construct(workdir)
    capsys.readouterr()
    # the chain's premise needs d_S > d_A; refuse rather than report nonsense
    assert main(["verify", str(path), "--chain"]) == 2
    assert "impossible" in capsys.readouterr().err

    code = main(
        ["verify", str(path), "--chain", "--allow-trivial", "-o", "chain.json"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "all_satisfied True" in out
    report = json.loads((workdir / "chain.json").read_text())
    assert report["all_satisfied"] is True
    assert report["checks"]

    # an optimize output file is verified through its best_instance
    dims = ["--ds", "3", "--da", "2", "--db", "2", "--dc", "2"]
    budget = ["--restarts", "1", "--iters", "30", "--haar", "10"]
    assert main(["optimize", *dims, *budget, "-o", "f.json"]) == 0
    capsys.readouterr()
    assert main(["verify", "f.json", "--chain", "--samples", "10"]) == 0
    out = capsys.readouterr().out
    assert "d_a 2" in out
    assert "all_satisfied True" in out


def test_verify_chain_table_reads_lhs_and_rhs(workdir, capsys):
    # a row holds when lhs >= rhs - 1e-9, so a ceiling row prints its
    # ceiling under lhs and the measured overlap under rhs
    path = _construct(workdir)
    capsys.readouterr()
    assert main(["verify", str(path), "--chain", "--allow-trivial", "-o", "chain.json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert next(l for l in lines if l.startswith("check ")).split() == ["check", "lhs", "rhs", "slack", "status"]
    report = json.loads((workdir / "chain.json").read_text())
    label = "pair_product_overlap_b[0,1]"
    row = next(l.split() for l in lines if l.startswith(label + " "))
    check = next(c for c in report["checks"] if c["label"] == label)
    assert row[1:4] == [f"{check[k]:.6f}" for k in ("lhs", "rhs", "slack")]
    assert check["lhs"] == min(report["constants"]["eps_dprime_b"], 1.0) > check["rhs"]


def test_verify_out_needs_chain(workdir, capsys):
    # without --chain there is no report to write: refuse rather than ignore -o
    path = _construct(workdir)
    capsys.readouterr()
    assert main(["verify", str(path), "-o", "x.json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "--chain" in err
    assert not (workdir / "x.json").exists()
    assert not (workdir / "verify.manifest.json").exists()


def test_verify_allow_trivial_needs_chain(workdir, capsys):
    # only the chain has a premise to waive: refuse rather than ignore --allow-trivial
    path = _construct(workdir)
    capsys.readouterr()
    assert main(["verify", str(path), "--allow-trivial"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "--chain" in err
    assert not (workdir / "verify.manifest.json").exists()


def test_verify_chain_needs_two_basis_states(workdir, capsys):
    # a one-dimensional source offers no pair: impossible, not a violation
    path = _construct(workdir, dims=("1", "1", "1", "1"))
    capsys.readouterr()
    assert main(["verify", str(path), "--chain", "--allow-trivial"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("impossible: "), err


@pytest.mark.parametrize(
    "dims, flags",
    [(("1", "1", "1", "1"), ["--allow-trivial"]), (("2", "2", "2", "2"), [])],
    ids=["single-basis-state", "source-not-larger"],
)
def test_verify_chain_refuses_before_measuring(workdir, capsys, dims, flags):
    # an impossible chain prints no fidelity report before it exits
    path = _construct(workdir, dims=dims)
    capsys.readouterr()
    assert main(["verify", str(path), "--chain", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("impossible: "), err


def test_threshold_exact_arithmetic(workdir, capsys):
    for d in (1, 2, 10, 10**21):
        assert main(["threshold", "--da", str(d)]) == 0
        out = capsys.readouterr().out
        expected = min(0.6e-175, 2.4e-14 / float(d) ** 8)
        assert f"eps_zero {expected!r}" in out
    # past float range 2.4e-14 / d^8 is the exact quotient, rounded once: subnormal, then zero
    for d, expected in ((4 * 10**38, 3.5e-323), (10**39, 0.0)):
        assert main(["threshold", "--da", str(d)]) == 0
        assert f"eps_zero {expected!r}" in capsys.readouterr().out
    assert (workdir / "threshold.manifest.json").exists()


def test_threshold_rejects_non_integer(workdir, capsys):
    assert main(["threshold", "--da", "two"]) == 1


def test_properties_subcommand(workdir, capsys):
    code = main(["properties", "--samples", "50", "--dims", "6"])
    assert code == 0
    assert "properties ok" in capsys.readouterr().out
    assert (workdir / "properties.manifest.json").exists()


@pytest.mark.parametrize(
    "flags",
    [["--dims", "1"], ["--dims", "0"], ["--samples", "-1"]],
)
def test_properties_rejects_out_of_range_counts(workdir, capsys, flags):
    assert main(["properties", *flags]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"qsblab properties: error: argument {flags[0]}")
    assert not (workdir / "properties.manifest.json").exists()


def test_verify_rejects_negative_samples(workdir, capsys):
    path = _construct(workdir)
    capsys.readouterr()
    assert main(["verify", str(path), "--samples", "-3"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "qsblab verify: error: argument --samples: must be >= 0, got -3"
    assert not (workdir / "verify.manifest.json").exists()


def test_optimize_writes_frontier(workdir, capsys):
    code = main(
        [
            "optimize",
            "--ds", "2", "--da", "2", "--db", "1", "--dc", "1",
            "--restarts", "2", "--iters", "50", "--haar", "10",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "best 1.000000" in out
    assert "wrote frontier.json" in out
    data = json.loads((workdir / "frontier.json").read_text())
    assert data["dims"] == [2, 2, 1, 1]
    # the frontier file's key order, which the JSON writer keeps
    assert list(data) == [
        "dims", "best_worst_fidelity", "eps_hat", "iterations_used", "winner_restart",
        "restarts", "seed", "restart_values", "stop_reasons", "best_instance",
    ]
    manifest = json.loads((workdir / "frontier.manifest.json").read_text())
    assert manifest["subcommand"] == "optimize"


def test_optimize_impossible_dims(workdir, capsys):
    code = main(
        [
            "optimize",
            "--ds", "2", "--da", "1", "--db", "1", "--dc", "1",
            "--restarts", "1", "--iters", "10", "--haar", "5",
        ]
    )
    assert code == 4  # no representation isometry exists at these dims


def test_sweep_csv_and_monotonicity(workdir, capsys):
    code = main(
        [
            "sweep",
            "--ds", "2", "--da", "1..2", "--db", "2", "--dc", "2",
            "--restarts", "2", "--iters", "100", "--haar", "10", "--seed", "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "d_a 1: best" in out and "d_a 2: best 1.000000" in out
    with open("sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["d_s", "d_a", "d_b", "d_c", "best_fidelity", "restarts", "seed"]
    assert len(rows) == 3
    vals = [float(r[4]) for r in rows[1:]]
    assert vals[1] >= vals[0] - 1e-9
    assert (workdir / "sweep.manifest.json").exists()


def test_sweep_bad_ranges(workdir, capsys):
    base = ["sweep", "--ds", "2", "--db", "2", "--dc", "2"]
    for bad in ("5..2", "0..2", "1..x"):
        assert main(base + ["--da", bad]) == 1
        assert capsys.readouterr().err == (
            f"qsblab sweep: error: argument --da: bad range {bad!r}, expected lo..hi with 1 <= lo <= hi\n"
        )
    assert not list(workdir.iterdir())


def test_sweep_rejects_env(workdir, capsys):
    # the sweep picks each point's environment itself; --env is optimize-only
    flags = ["--ds", "2", "--da", "1..1", "--db", "2", "--dc", "2", "--env", "3"]
    assert main(["sweep", *flags]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "qsblab: error: unrecognized arguments: --env 3"
    assert not (workdir / "sweep.csv").exists()


@pytest.mark.parametrize("subcommand", ["optimize", "sweep"])
@pytest.mark.parametrize(
    "flag, value, low",
    [("--restarts", "0", 1), ("--iters", "0", 1), ("--haar", "-1", 0)],
)
def test_search_rejects_bad_budgets(workdir, capsys, subcommand, flag, value, low):
    dims = ["--ds", "2", "--da", "1", "--db", "2", "--dc", "2"]
    assert main([subcommand, *dims, flag, value]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"qsblab {subcommand}: error: argument {flag}: must be >= {low}, got {value}"
    )
    assert not list(workdir.iterdir())  # no output, no manifest


def _with_dims(subcommand, **dims):
    flags = {"ds": "2", "da": "1", "db": "2", "dc": "2", **dims}
    return [subcommand, *(x for name, v in flags.items() for x in (f"--{name}", v))]


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (_with_dims("construct", ds="0") + ["-o", "x.json"], "--ds", "0"),
        (_with_dims("construct", dc="-1") + ["-o", "x.json"], "--dc", "-1"),
        (_with_dims("optimize", da="0"), "--da", "0"),
        (_with_dims("optimize", env="0"), "--env", "0"),
        (_with_dims("sweep", ds="0"), "--ds", "0"),
        (_with_dims("sweep", db="0"), "--db", "0"),
        (["threshold", "--da", "0"], "--da", "0"),
    ],
)
def test_rejects_non_positive_dims(workdir, capsys, argv, flag, value):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"qsblab {argv[0]}: error: argument {flag}: must be >= 1, got {value}"
    )
    assert not list(workdir.iterdir())  # no output, no manifest


def test_version_flag(workdir, capsys):
    assert main(["--version"]) == 0
    assert "qsblab" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(workdir, capsys):
    assert main([]) == 1
    assert capsys.readouterr().err == "qsblab: error: the following arguments are required: subcommand\n"


@pytest.mark.parametrize(
    "argv",
    [_with_dims("construct") + ["-o", "x.json"], ["verify", "x.json"], ["properties"],
     _with_dims("optimize"), _with_dims("sweep")],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_usage_error(workdir, capsys, argv):
    assert main([*argv, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == f"qsblab {argv[0]}: error: argument --seed: must be >= 0, got -1\n"
    assert not list(workdir.iterdir())  # no output, no manifest


_BUDGET = ["--restarts", "1", "--iters", "5", "--haar", "5"]


@pytest.mark.parametrize(
    "argv, manifest, inputs, outputs",
    [
        (_with_dims("construct", da="2", db="1", dc="1") + ["-o", "out.json"], "out.manifest.json",
         [], ["out.json"]),
        (["verify", "inst.json"], "verify.manifest.json", ["inst.json"], []),
        (["verify", "inst.json", "--chain", "--allow-trivial", "-o", "c.json"], "c.manifest.json",
         ["inst.json"], ["c.json"]),
        (["threshold", "--da", "2"], "threshold.manifest.json", [], []),
        (["properties", "--samples", "5", "--dims", "3"], "properties.manifest.json", [], []),
        (_with_dims("optimize", env="2") + _BUDGET + ["-o", "f.json"], "f.manifest.json", [], ["f.json"]),
        (_with_dims("sweep", da="1..2") + _BUDGET + ["--csv", "s.csv"], "s.manifest.json", [], ["s.csv"]),
        # no Haar samples: the probes are the basis and the phased pairs alone
        (["verify", "inst.json", "--chain", "--allow-trivial", "--samples", "0"], "verify.manifest.json",
         ["inst.json"], []),
        # an output that is no regular file: the manifest goes to the working directory
        (["verify", "inst.json", "--chain", "--allow-trivial", "-o", os.devnull], "verify.manifest.json",
         ["inst.json"], [os.devnull]),
        (["properties", "--samples", "50", "--dims", "8"], "properties.manifest.json", [], []),
        (["properties", "--samples", "20", "--dims", "2"], "properties.manifest.json", [], []),
        # one sample: pools of a single bucket, some with no pure-state fidelity
        (["properties", "--samples", "1", "--dims", "16"], "properties.manifest.json", [], []),
    ],
    ids=["construct", "verify", "verify-chain", "threshold", "properties", "optimize", "sweep",
         "verify-chain-no-haar", "verify-chain-devnull", "properties-dims-8", "properties-smallest-cap",
         "properties-one-sample"],
)
def test_a_returning_run_writes_one_manifest(workdir, capsys, argv, manifest, inputs, outputs):
    (workdir / "inst.json").write_text(json.dumps(perfect_qsb_construct(2, 2, 1, 1).to_json()))
    assert main(argv) == 0
    assert sorted(p.name for p in workdir.glob("*.manifest.json")) == [manifest]
    written = json.loads((workdir / manifest).read_text())
    assert (written["subcommand"], written["inputs"], written["outputs"]) == (argv[0], inputs, outputs)
    assert written["flags"]["subcommand"] == argv[0] and "func" not in written["flags"]


def test_a_manifest_records_numpy_blas_and_the_thread_variables(workdir, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    assert main(["threshold", "--da", "2"]) == 0
    manifest = json.loads((workdir / "threshold.manifest.json").read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["numpy"] == np.__version__
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert manifest["thread_env"] == {"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "1"}


def test_an_output_that_is_no_regular_file_gets_its_manifest_in_the_working_directory(workdir, capsys):
    # a pipe cannot be cut to length and has no directory of its own to hold a manifest
    inst = perfect_qsb_construct(2, 2, 1, 1)
    (workdir / "inst.json").write_text(json.dumps(inst.to_json()))
    fifo = workdir / "out"
    os.mkfifo(fifo)
    drained = []
    reader = threading.Thread(target=lambda: drained.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["verify", "inst.json", "--chain", "--allow-trivial", "-o", str(fifo)]) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    eps_hat, _, _ = measure_eps(inst, default_probe_states(inst.d_s, 42, 100))
    report = chain_verify(inst, eps_hat, seed=42, allow_trivial=True)
    assert drained == [(json.dumps(report.to_json()) + "\n").encode()]
    assert sorted(p.name for p in workdir.glob("*.manifest.json")) == ["verify.manifest.json"]
    assert json.loads((workdir / "verify.manifest.json").read_text())["outputs"] == [str(fifo)]


def test_the_writer_rewrites_in_place(workdir):
    # a shorter payload over a longer file leaves exactly the new bytes
    path = workdir / "f.json"
    cli._write_file(path, b"x" * 100)
    cli._write_json(path, {"a": 1})
    assert path.read_bytes() == b'{"a": 1}\n'
    # a symlink is written through, and survives
    (workdir / "link.json").symlink_to(path)
    cli._write_json(workdir / "link.json", [2])
    assert (workdir / "link.json").is_symlink() and path.read_bytes() == b"[2]\n"
    # a new file gets the mode open(path, "w") gives
    cli._write_file(workdir / "new", b"")
    with open(workdir / "ref", "w"):
        pass
    assert (workdir / "new").stat().st_mode == (workdir / "ref").stat().st_mode


def test_a_property_violation_still_writes_its_manifest(workdir, capsys, monkeypatch):
    # exit 4 from a returned failure list is a finished run, not an error exit
    failure = SimpleNamespace(label="triangle", lhs=0.5, rhs=0.6, slack=-0.1)
    monkeypatch.setattr(cli, "property_sweep", lambda *a: [failure])
    assert main(["properties", "--samples", "1"]) == 4
    assert capsys.readouterr().out.startswith("1 property violations (seed 42):\n")
    assert [p.name for p in workdir.iterdir()] == ["properties.manifest.json"]


def test_a_failing_chain_row_exits_4_and_keeps_its_report(workdir, capsys, monkeypatch):
    # a product-extraction deficit of 1e-12 eps^(1/8) is a floor that a channel
    # depolarised by 0.05 cannot meet: its FAIL rows end a finished run with exit 4
    monkeypatch.setitem(qsb_module._CHAIN, "product", (1e-12, 1 / 8))
    inst = perturbed_perfect_instance(2, 2, 2, 2, 0.05)
    (workdir / "inst.json").write_text(json.dumps(inst.to_json()))
    assert main(["verify", "inst.json", "--chain", "--allow-trivial", "-o", "chain.json"]) == 4
    out = capsys.readouterr().out
    assert any(line.endswith(" FAIL") for line in out.splitlines())
    assert "all_satisfied False" in out.splitlines()
    assert json.loads((workdir / "chain.json").read_text())["all_satisfied"] is False
    manifest = json.loads((workdir / "chain.manifest.json").read_text())
    assert (manifest["inputs"], manifest["outputs"]) == (["inst.json"], ["chain.json"])


def test_copy_floors_past_the_cloning_ceiling_report_a_contradiction(workdir, capsys, monkeypatch):
    # with the extraction and copy-map coefficients cut to 1e-12, both copy
    # floors sit above 5/6 on an instance with d_S > d_A: the chain's
    # contradiction line, and FAIL rows that no channel can avoid, exit 4
    for key in ("eps_prime_b", "eps_prime_c", "eps_iv_b", "eps_iv_c"):
        monkeypatch.setitem(qsb_module._CHAIN, key, (1e-12, qsb_module._CHAIN[key][1]))
    (workdir / "inst.json").write_text(json.dumps(werner_cloner_construct(2).to_json()))
    assert main(["verify", "inst.json", "--chain", "-o", "chain.json"]) == 4
    out = capsys.readouterr().out.splitlines()
    assert "copy floors exceed the universal cloning ceiling: contradiction" in out
    assert "all_satisfied False" in out
    report = json.loads((workdir / "chain.json").read_text())
    assert report["cloning_contradiction"] is True and report["all_satisfied"] is False


def test_a_decreasing_frontier_exits_4(workdir, capsys, monkeypatch):
    # frontier_sweep seeds each point with the last winner, so a lower best at
    # the next d_A is a defect: one stderr line, exit 4, no CSV and no manifest
    monkeypatch.setattr(
        optimize_module,
        "optimize_qsb",
        lambda cfg, seeds=(): SimpleNamespace(best_worst_fidelity=1.0 / cfg.d_a, best_instance=None),
    )
    assert main(["sweep", "--ds", "2", "--da", "1..2", "--db", "2", "--dc", "2"]) == 4
    assert capsys.readouterr().err == (
        "invariant violation: frontier decreased with growing shared dimension despite embedding\n"
    )
    assert not list(workdir.iterdir())


@pytest.mark.parametrize(
    "argv, code",
    [(_with_dims("construct", ds="3", da="2") + ["-o", "x.json"], 2), (["verify", "missing.json"], 3)],
    ids=["impossible", "unreadable"],
)
def test_an_exception_exit_writes_no_manifest(workdir, capsys, argv, code):
    assert main(argv) == code
    assert capsys.readouterr().err.count("\n") == 1
    assert not list(workdir.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        _with_dims("optimize", restarts="1", iters="5") + ["-o", "{}"],
        _with_dims("sweep", da="1..2", restarts="1", iters="5") + ["--csv", "{}"],
        ["verify", "inst.json", "--chain", "--allow-trivial", "-o", "{}"],
    ],
    ids=["optimize", "sweep", "verify-chain"],
)
def test_an_output_in_a_missing_directory_exits_3_before_any_work(workdir, capsys, monkeypatch, argv):
    _construct(workdir)
    (workdir / "outdir").mkdir()
    capsys.readouterr()
    for module in (cli, optimize_module):  # a search that runs raises
        monkeypatch.setattr(module, "optimize_qsb", lambda cfg, seeds=(): 1 / 0)
    made = sorted(workdir.iterdir())
    # no such directory, a regular file where the directory should be (or
    # above it), a directory where the output should be, and no path at all;
    # each line names the output, as a failed write does
    for output, errno in (("missing/out", 2), ("inst.json/out", 20), ("inst.json/sub/out", 20),
                          ("outdir", 21), ("", 2)):
        assert main([a.format(output) for a in argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"I/O failure: [Errno {errno}] "), err
        assert err.endswith(f": {output!r}\n"), err
        assert sorted(workdir.iterdir()) == made


# Every integer flag of every subcommand, drawn from [-2, 3] (or omitted, or
# not an integer); search budgets stay small enough for a quick run.
_FUZZ_FLAGS = {
    "construct": ("--ds", "--da", "--db", "--dc", "--seed"),
    "verify": ("--samples", "--seed"),
    "threshold": ("--da",),
    "properties": ("--samples", "--dims", "--seed"),
    "optimize": ("--ds", "--da", "--db", "--dc", "--env", "--restarts", "--iters", "--haar", "--seed"),
    "sweep": ("--ds", "--da", "--db", "--dc", "--restarts", "--iters", "--haar", "--seed"),
}


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_every_run_fails_cleanly(data):
    sub = data.draw(st.sampled_from(sorted(_FUZZ_FLAGS)), label="subcommand")
    argv = [sub, *{"construct": ["-o", "x.json"], "verify": ["inst.json"]}.get(sub, [])]
    if sub == "verify":
        argv += data.draw(st.lists(st.sampled_from(["--chain", "--allow-trivial"]), unique=True))
    messy = data.draw(st.booleans(), label="messy")  # else every value is in [1, 3], so most runs go deep
    for flag in _FUZZ_FLAGS[sub]:
        top = 2 if flag == "--restarts" else 3
        junk = st.none() | st.integers(-2, top).map(str) | st.sampled_from(["x", "1.5", "1..2"])
        value = data.draw(junk if messy else st.integers(1, top).map(str), label=flag)
        argv += [] if value is None else [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with open("inst.json", "w") as fh:
            json.dump(perfect_qsb_construct(2, 2, 1, 1).to_json(), fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3, 4) and "Traceback" not in err.getvalue()
    assert len(lines) <= 1 and (len(lines) == 1 or code not in (1, 2, 3)), (argv, lines)


def test_the_per_shape_caches_hand_no_call_another_shapes_data(workdir, capsys):
    # one process verifying d_S = 2, then 3, then 2 again prints and writes
    # what calls on empty caches print and write
    for d in (2, 3):
        (workdir / f"inst{d}.json").write_text(json.dumps(perfect_qsb_construct(d, d, 1, 1).to_json()))

    def run(d):
        assert main(["verify", f"inst{d}.json", "--chain", "--allow-trivial", "-o", "chain.json"]) == 0
        return capsys.readouterr().out, (workdir / "chain.json").read_bytes()

    warm = [run(d) for d in (2, 3, 2)]
    fresh = {}
    for d in (2, 3):
        for cached in (qsb_module._pairs, qsb_module._fixed_probe_columns, qsb_module._chain_labels,
                       cli._wrapped_layout):
            cached.cache_clear()
        fresh[d] = run(d)
    assert warm == [fresh[2], fresh[3], fresh[2]]


def test_consecutive_calls_get_their_own_flags(workdir, capsys):
    # one parser serves every call in a process; no flag or default may leak
    path = _construct(workdir)
    assert main(["verify", str(path), "--samples", "-3"]) == 1
    chain = ["--chain", "--allow-trivial", "--samples", "10", "--seed", "5"]
    assert main(["verify", str(path), *chain]) == 0
    assert "all_satisfied True" in capsys.readouterr().out
    chained = json.loads((workdir / "verify.manifest.json").read_text())["flags"]
    assert (chained["chain"], chained["allow_trivial"], chained["samples"], chained["seed"]) == (
        True, True, 10, 5
    )
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "states 110" in out and "all_satisfied" not in out
    plain = json.loads((workdir / "verify.manifest.json").read_text())["flags"]
    assert plain == {**chained, "chain": False, "allow_trivial": False, "samples": 100, "seed": 42}


# The old CLI printed every line with its own print call; these references
# keep that form, and the CLI's joined output must match them byte for byte.


def _old_print_wrapped(values, per_line=8):
    for i in range(0, len(values), per_line):
        print(" ".join(f"{v:.6f}" for v in values[i : i + per_line]))


def _old_verify_stdout(inst, samples, seed, chain=False, out=None):
    buf = io.StringIO()
    report = None
    with contextlib.redirect_stdout(buf):
        probes = default_probe_states(inst.d_s, seed, haar_count=samples)
        eps_hat, f_ab, f_ac = measure_eps(inst, probes)
        print(f"eps_hat {eps_hat:.6g}")
        print(f"states {probes.shape[1]}")
        _old_print_wrapped([min(float(x), float(y)) for x, y in zip(f_ab, f_ac)])
        if chain:
            report = chain_verify(inst, eps_hat, seed=seed)
            print(f"chain eps_effective {report.eps:.6g}  d_a {report.d_a}")
            print(f"{'check':40s} {'lhs':>12s} {'rhs':>12s} {'slack':>12s} status")
            for c in report.checks:
                status = "vacuous" if c.vacuous else ("ok" if c.satisfied else "FAIL")
                print(f"{c.label:40s} {c.lhs:12.6f} {c.rhs:12.6f} {c.slack:12.6f} {status}")
            print(f"all_satisfied {report.all_satisfied}")
            if report.cloning_contradiction:
                print("copy floors exceed the universal cloning ceiling: contradiction")
            if out:
                print(f"wrote {out}")
    return buf.getvalue(), report


def test_outputs_match_per_line_reference(workdir, capsys, monkeypatch):
    written = {}
    write_json = cli._write_json

    def recording(path, obj):
        written[str(path)] = obj
        write_json(path, obj)

    monkeypatch.setattr(cli, "_write_json", recording)

    assert main(["construct", "--ds", "2", "--da", "2", "--db", "1", "--dc", "1",
                 "-o", "inst.json", "--seed", "7"]) == 0
    inst = perfect_qsb_construct(2, 2, 1, 1)
    rng = np.random.default_rng(7)
    states = [random_pure(inst.source_layout, rng) for _ in range(100)]
    _, f_abs, f_acs = measure_eps(inst, np.stack([s.amplitudes for s in states], axis=1))
    f_ab = min(float(x) for x in f_abs)
    f_ac = min(float(x) for x in f_acs)
    assert capsys.readouterr().out == f"wrote inst.json\nf_ab {f_ab:.6f}\nf_ac {f_ac:.6f}\n"

    assert main(["verify", "inst.json", "--samples", "20", "--seed", "3"]) == 0
    assert capsys.readouterr().out == _old_verify_stdout(inst, 20, 3)[0]

    dims = ["--ds", "3", "--da", "2", "--db", "2", "--dc", "2"]
    assert main(["optimize", *dims, "--restarts", "1", "--iters", "30", "--haar", "10",
                 "-o", "f.json"]) == 0
    config = OptimizeConfig(3, 2, 2, 2, restarts=1, max_iters=30,
                            haar_count=10, seed=42)
    point = optimize_qsb(config)
    assert capsys.readouterr().out == (
        f"dims {point.dims}\n"
        f"best {point.best_worst_fidelity:.6f}\n"
        f"eps_hat {point.eps_hat:.6g}\n"
        f"winner restart {point.winner_restart} after {point.iterations_used} iters\n"
        "wrote f.json\n"
    )

    assert main(["verify", "f.json", "--chain", "--samples", "10", "-o", "chain.json"]) == 0
    expected, report = _old_verify_stdout(point.best_instance, 10, 42, chain=True, out="chain.json")
    assert capsys.readouterr().out == expected

    # every JSON file goes through the one writer: one line, equal to its object
    assert {p.name for p in workdir.glob("*.json")} == set(written)
    for path, obj in written.items():
        text = (workdir / path).read_text()
        assert text.index("\n") == len(text) - 1
        assert json.loads(text) == obj
    assert written["inst.json"] == inst.to_json()
    assert written["f.json"] == point.to_json()
    assert written["chain.json"] == report.to_json()
    assert written["verify.manifest.json"]["flags"]["samples"] == 20
