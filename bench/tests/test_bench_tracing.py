"""The tracer: span arithmetic on synthetic calls, and restoring what it wraps."""

import importlib
import inspect
import sys
import time
import types

import pytest

import run
import workloads
from tracing import Tracer

SYNTHETIC = '''
import time
from dataclasses import dataclass

def inner():
    time.sleep(0.01)

def outer():
    time.sleep(0.005)
    inner()
    inner()

def countdown(n):
    time.sleep(0.002)
    if n:
        countdown(n - 1)

@dataclass
class Checked:
    def __post_init__(self):
        inner()

def _private():
    inner()
'''


@pytest.fixture
def layer():
    mod = types.ModuleType("synthetic.layer")
    exec(SYNTHETIC, mod.__dict__)
    return mod


def test_self_time_is_busy_time_minus_child_time(layer):
    tracer = Tracer()
    with tracer.installed([layer]):
        layer.outer()
    s = tracer.summary()
    assert s["layer.outer"]["calls"] == 1
    assert s["layer.inner"]["calls"] == 2
    child = s["layer.inner"]["busy_s"]
    assert s["layer.outer"]["self_s"] == pytest.approx(s["layer.outer"]["busy_s"] - child, abs=1e-12)
    assert s["layer.outer"]["self_s"] >= 0.005
    assert s["layer.inner"]["self_s"] == pytest.approx(s["layer.inner"]["busy_s"], abs=1e-12)
    # the module's busy time covers the outer call once, its self time all own work
    assert s["layer"]["busy_s"] == pytest.approx(s["layer.outer"]["busy_s"], abs=1e-12)
    assert s["layer"]["self_s"] == pytest.approx(s["layer.outer"]["busy_s"], abs=1e-12)


def test_recursion_counts_busy_time_once(layer):
    tracer = Tracer()
    with tracer.installed([layer]):
        t0 = time.perf_counter()
        layer.countdown(3)
        wall = time.perf_counter() - t0
    s = tracer.summary()["layer.countdown"]
    assert s["calls"] == 4
    assert s["busy_s"] <= wall
    assert s["self_s"] == pytest.approx(s["busy_s"], abs=1e-12)


def test_validators_are_spans_and_private_functions_are_not(layer):
    tracer = Tracer()
    with tracer.installed([layer]):
        layer.Checked()
        layer._private()
    s = tracer.summary()
    assert s["layer.Checked"]["calls"] == 1
    assert s["layer.inner"]["calls"] == 2
    assert not any("_private" in name for name in s)


def _bindings():
    """Every public function and validator reachable from the qsblab modules."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name != "qsblab" and not name.startswith("qsblab."):
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj):
                seen[(name, attr)] = obj
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                seen[(name, attr, "__post_init__")] = vars(obj)["__post_init__"]
    return seen


def test_traced_run_restores_every_wrapped_attribute(tmp_path, monkeypatch):
    modules = [importlib.import_module(f"qsblab.{m}") for m in run.LAYERS]
    cli, optimize, qsb = (sys.modules[f"qsblab.{m}"] for m in ("cli", "optimize", "qsb"))
    before = _bindings()
    assert cli.measure_eps is qsb.measure_eps
    assert optimize.default_probe_states is qsb.default_probe_states

    tracer = Tracer()
    with tracer.installed(modules):
        assert cli.measure_eps is not before[("qsblab.qsb", "measure_eps")]
        assert cli.measure_eps is qsb.measure_eps
        assert optimize.default_probe_states is qsb.default_probe_states
    assert _bindings() == before

    monkeypatch.chdir(tmp_path)
    w = workloads.ChainVerify(7, tmp_path)
    monkeypatch.setattr(w, "trace_calls", 2)
    loop, metrics, _, _ = run.traced_run(w, tmp_path / "spans.npz")
    assert loop.failures == []
    assert _bindings() == before
    # the copies bound by name in cli were traced, not bypassed
    assert metrics["qsb.measure_eps.calls"][0] >= 2
    assert metrics["qsb.default_probe_states.calls"][0] >= 2
    assert metrics["qsb.chain_verify.checks"][0] > 0


def test_restored_after_an_exception():
    before = _bindings()
    modules = [importlib.import_module(f"qsblab.{m}") for m in run.LAYERS]
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed(modules):
            1 / 0
    assert _bindings() == before
