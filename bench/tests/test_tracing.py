"""The tracer wraps every namespace that binds a function, and derives self time."""

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import slimgraph  # noqa: E402
from slimgraph import executor, pipeline  # noqa: E402

import tracing  # noqa: E402


def test_install_reaches_names_bound_at_import_and_uninstall_restores():
    original = executor.run_graph
    tracer = tracing.Tracer()
    tracer.install(tracing.targets())
    try:
        assert pipeline.run_graph is executor.run_graph is slimgraph.run_graph
        assert pipeline.run_graph is not original
    finally:
        tracer.uninstall()
    assert pipeline.run_graph is original and executor.run_graph is original


def test_spans_nest_and_self_time_excludes_children():
    g = slimgraph.build_fragment("c3k2", (1, 8, 8, 8), cout=8)
    x = np.random.default_rng(0).normal(size=(2, 8, 8, 8)).astype(np.float32)
    tracer = tracing.Tracer()
    tracer.install(tracing.targets())
    try:
        slimgraph.forward_arrays(g, x)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    calls, total, own = totals["executor.run_graph:eval"]
    children = sum(t1 - t0 for name, t0, t1, parent, _ in tracer.spans if parent == 0)
    assert calls == 1 and totals["ops.conv2d_forward"][0] > 0
    # probes that count work after a child span closes are excluded as well
    assert 0 < own <= total - children
    problems = tracing.completeness(tracer, "infer")
    assert "span ops.conv2d_backward never fired on infer" not in problems
    assert any("never fired" in p for p in problems)  # no calibration or export ran here


def test_paused_tracer_records_nothing():
    g = slimgraph.build_fragment("sppf", (1, 8, 8, 8), cout=8)
    x = np.zeros((1, 8, 8, 8), dtype=np.float32)
    tracer = tracing.Tracer()
    tracer.install(tracing.targets())
    try:
        with tracer.paused():
            slimgraph.forward_arrays(g, x)
    finally:
        tracer.uninstall()
    assert tracer.spans == []
