"""BENCHMARK.json names exactly the workloads and metrics the runner emits."""

import json

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
