"""Command line interface: subcommands, exit codes, manifests, file formats."""

import csv
import json

import pytest

from qsblab.cli import main


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


def test_verify_invariant_breaking_instance(workdir, capsys):
    path = _construct(workdir)
    data = json.loads(path.read_text())
    # halve one Kraus entry: parses fine, fails completeness on reconstruction
    data["kraus"][0][0][0] = [0.5, 0.0]
    broken = workdir / "broken.json"
    broken.write_text(json.dumps(data))
    assert main(["verify", str(broken)]) == 4
    assert "invariant" in capsys.readouterr().err


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


def test_threshold_exact_arithmetic(workdir, capsys):
    for d in (1, 2, 10, 10**21):
        assert main(["threshold", "--da", str(d)]) == 0
        out = capsys.readouterr().out
        expected = min(0.6e-175, 2.4e-14 / float(d) ** 8)
        assert f"eps_zero {expected!r}" in out
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
    assert "best_instance" in data
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
    assert main(base + ["--da", "5..2"]) == 1
    assert main(base + ["--da", "0..2"]) == 1


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
