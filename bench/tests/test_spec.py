"""BENCHMARK.json agrees with the declarations the benchmark runs on."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(spec.WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == spec.E2E_UNITS
    assert set(spec.E2E_MEANING) <= set(spec.E2E_UNITS)


def test_per_layer_metrics_match():
    assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]} == \
        {k: (u, b) for k, (u, b, _) in spec.PER_LAYER.items()}


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
