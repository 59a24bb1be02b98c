"""BENCHMARK.json and the metric catalogue name the same metrics."""

import json
from pathlib import Path

from benchlib.metrics import END_TO_END, PER_LAYER
from benchlib.workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END


def test_per_layer_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_benchmark_workloads_exist():
    names = [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names)
    assert set(names) <= set(WORKLOADS)
