"""Each oracle accepts the program's real output and rejects a tampered copy."""

import json
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest

import oracle
import qsblab.cli
import run
import workloads
from qsblab.cli import main
from qsblab.hilbert import SpaceLayout
from qsblab.qsb import default_probe_states


def test_probe_family_matches_the_package():
    layout = SpaceLayout([("S", 3)])
    theirs = np.stack([p.amplitudes for p in default_probe_states(layout, 5, haar_count=20)], axis=1)
    ours = oracle.probe_columns(3, np.random.default_rng(5), 20)
    assert np.array_equal(ours, theirs)


@pytest.fixture(scope="module")
def frontier(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("optimize")
    w = workloads.CeilingSearch(42, cwd)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(cwd)
        assert main(w.argv(0)) == 0
    return json.loads((cwd / w.output).read_text())


def test_ceiling_oracle_accepts_and_rejects(frontier):
    assert oracle.check_ceiling(0, frontier, 42, 200) is None
    shifted = dict(frontier, best_worst_fidelity=frontier["best_worst_fidelity"] + 1e-6)
    assert "probes give" in oracle.check_ceiling(0, shifted, 42, 200)
    # the same instance measured on another probe family does not agree
    assert oracle.check_ceiling(0, frontier, 43, 200) is not None
    assert oracle.check_ceiling(1, frontier, 42, 200) is not None
    assert oracle.check_ceiling(0, None, 42, 200) is not None


def test_ceiling_oracle_enforces_the_window(tmp_path, monkeypatch):
    # a one-iteration search reports its value truthfully but stops far below 5/6
    monkeypatch.chdir(tmp_path)
    w = workloads.CeilingSearch(42, tmp_path)
    assert main(w.argv(0, iters=1)) == 0
    short = json.loads((tmp_path / w.output).read_text())
    assert short["best_worst_fidelity"] < oracle.CEILING_WINDOW[0]
    assert "outside" in oracle.check_ceiling(0, short, 42, 200)


def test_properties_oracle():
    ok = "properties ok: 50 samples per property, dims <= 16\n"
    assert oracle.check_properties(0, ok) is None
    assert oracle.check_properties(4, "1 property violations (seed 3):\n") is not None
    assert oracle.check_properties(0, "") is not None


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("chain")
    w = workloads.ChainVerify(3, cwd)
    w.generate()
    outs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(cwd)
        for i in range(len(w.dims)):
            buf = StringIO()
            with redirect_stdout(buf):
                rc = main(w.argv(i))
            outs.append((i, rc, buf.getvalue()))
    return w, outs


def test_chain_oracle_accepts_real_output(chain):
    w, outs = chain
    for i, rc, stdout in outs:
        assert w.check(i, rc, stdout) is None


def test_chain_oracle_rejects_tampered_output(chain):
    w, outs = chain
    i, rc, stdout = outs[0]
    text = oracle.printed_value(stdout, "eps_hat")
    for delta in (1e-3, -1e-3, 2e-6):
        bad = stdout.replace(f"eps_hat {text}", f"eps_hat {float(text) + delta:.6g}", 1)
        assert bad != stdout
        assert "eps_hat printed" in w.check(i, rc, bad)
    assert w.check(i, rc, stdout.replace("all_satisfied True", "all_satisfied False")) is not None
    assert w.check(i, 4, stdout) is not None
    # the right output checked against another call's inputs is caught too
    assert w.check(i + 1, rc, stdout) is not None


def test_failed_calls_are_counted_not_raised(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    w = workloads.ChainVerify(3, tmp_path)
    w.generate()
    loop = run.Loop(w)
    (tmp_path / "inputs" / "inst-00.json").write_text("{")
    loop.run(0)
    assert loop.attempted == 1 and len(loop.failures) == 1
    assert "exited with 3" in loop.failures[0] and "cannot read instance" in loop.failures[0]

    def broken(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(qsblab.cli, "main", broken)
    loop.run(1)
    assert loop.attempted == 2 and "raised RuntimeError('boom')" in loop.failures[1]
