"""Batchnorm folding for inference: ``forward_arrays`` against the per-call fold of
``forward_reference`` and the unfolded ``run_graph(mode="eval")``."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import forward_reference as reference
from conftest import (assert_same_bits, chain_graph, images, largest_conv_temporaries,
                      preset_graph, residual_graph, settled_graph)
from slimgraph import build_mini_net, forward_arrays, ops, run_graph
from slimgraph.builders import PRESETS, GraphBuilder
from slimgraph.errors import ShapeError
from slimgraph.fakequant import export_fp16
from slimgraph.metrics import build_report, count_params, estimate_memory
from slimgraph.modelio import to_bytes


def unfolded(g, x, outputs=None):
    return {k: v.value for k, v in run_graph(g, x, mode="eval", outputs=outputs).items()}


def folded_forward(g, x, outputs=None):
    """``forward_arrays``, checked bit for bit against the per-call oracle, and the number of
    ``ops.batchnorm_infer`` calls it made: one for all folded pairs, one per unfolded
    batchnorm."""
    want = reference.forward_arrays(g, x, outputs)
    with mock.patch.object(ops, "batchnorm_infer", wraps=ops.batchnorm_infer) as spy:
        got = forward_arrays(g, x, outputs)
    assert list(got) == list(want)
    for k, a in want.items():
        assert_same_bits(got[k], a, k)
    return got, spy.call_count


@st.composite
def conv_bn_chains(draw):
    """input -> (conv -> batchnorm -> silu) x 1-3 -> output, with random conv geometry,
    bias or none, eps, and batchnorm parameters and statistics (some variances 0)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    size, c = draw(st.integers(4, 9)), draw(st.integers(1, 4))
    b = GraphBuilder("chain", (2, c, size, size), seed=draw(st.integers(0, 9)))
    y = b.add("input", "image", [])
    for i in range(draw(st.integers(1, 3))):
        k = draw(st.sampled_from([1, 3] if size >= 3 else [1]))
        stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, k // 2))
        cout = draw(st.integers(1, 5))
        y = b.conv(y, c, cout, k, stride, prefix=f"c{i}.conv")
        conv = b.graph.nodes[y[0]]
        conv.attrs["padding"] = pad
        if draw(st.booleans()):
            conv.params["bias"] = rng.normal(0, 0.5, cout).astype(np.float32)
        else:
            del conv.params["bias"]
        y = b.batchnorm(y, cout, prefix=f"c{i}.bn")
        bn = b.graph.nodes[y[0]]
        bn.attrs["eps"] = draw(st.sampled_from([1e-5, 1e-3, 0.1]))
        var = rng.uniform(0, 3, cout) * (rng.random(cout) > 0.25)
        bn.params.update(gamma=rng.normal(1, 0.5, cout), beta=rng.normal(0, 0.5, cout),
                         running_mean=rng.normal(0, 0.3, cout), running_var=var)
        bn.params.update({k: v.astype(np.float32) for k, v in bn.params.items()})
        y = b.act(y, prefix=f"c{i}.act")
        size, c = (size + 2 * pad - k) // stride + 1, cout
    b.add("output", "out", [y])
    b.graph.validate()
    return b.graph


class TestFold:
    @settings(max_examples=100, deadline=None)
    @given(conv_bn_chains(), st.integers(0, 9))
    def test_random_chains_match_unfolded_eval_in_float64(self, g, seed):
        """The rewrite's algebra, in float64: in float32, a zero variance with eps 1e-5
        scales a map by about 300 before beta cancels it, and both paths then carry an
        error of the order of the float32 step at the larger magnitude."""
        for n in g.nodes.values():
            n.params = {k: v.astype(np.float64) for k, v in n.params.items()}
        x = images(g.input_shape, seed).astype(np.float64)
        want = unfolded(g, x)
        assume(all(a.any() for a in want.values()))  # a saturated SiLU can give all -0.0
        folded, calls = folded_forward(g, x)
        assert calls == 1  # every pair folds
        for k, got in folded.items():
            assert got.dtype == np.float64
            assert np.abs(got - want[k]).max() <= 1e-9 * np.abs(want[k]).max(), k

    @pytest.mark.parametrize("preset", PRESETS)
    def test_every_preset_pair_folds_within_float_rounding(self, preset):
        g = build_mini_net(preset, (1, 3, 64, 64), 3, seed=0)
        rng = np.random.default_rng(3)
        for n in g.nodes.values():
            if n.kind == "batchnorm":
                c = len(n.params["gamma"])
                n.params["running_mean"] = rng.normal(0, 0.2, c).astype(np.float32)
                n.params["running_var"] = rng.uniform(0.2, 2, c).astype(np.float32)
        x = images((2, 3, 64, 64))
        folded, calls = folded_forward(g, x)
        assert calls == 1  # every pair folds
        want = unfolded(g, x)
        for k, got in folded.items():
            assert np.abs(got - want[k]).max() <= 1e-5 * np.abs(want[k]).max(), k

    def test_conv_read_twice_is_not_folded(self):
        b = GraphBuilder("fork", (1, 3, 6, 6))
        y = b.conv(b.add("input", "image", []), 3, 4, 3, prefix="stem")
        z = b.batchnorm(y, 4)
        b.add("output", "out", [b.add("add", "sum", [y, z])])
        g, x = b.graph, images((2, 3, 6, 6))
        got, calls = folded_forward(g, x)
        assert calls == 1  # the batchnorm, unfolded
        assert_same_bits(got["out"], unfolded(g, x)["out"])

    def test_pair_of_other_widths_is_not_folded(self):
        g = chain_graph()
        bn = next(n for n in g.nodes.values() if n.kind == "batchnorm")
        bn.params["gamma"] = bn.params["gamma"][:-1]
        with pytest.raises(ShapeError, match="gamma length"):
            forward_arrays(g, images((1, 3, 8, 8)))

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("part", ["conv", "bn"])
    def test_requested_pair_member_is_unfolded_eval_bit_for_bit(self, preset, part):
        """Requesting a pair member leaves that pair unfolded and folds every other pair:
        one fold call and one unfolded batchnorm."""
        g = settled_graph(f"{preset}-calibrated")
        stem_bn = next(g.nodes[nid] for nid in g.topo_order() if g.nodes[nid].kind == "batchnorm")
        nid = stem_bn.id if part == "bn" else stem_bn.inputs[0][0]
        x = images((2, 3, 64, 64))
        got, calls = folded_forward(g, x, [nid] + g.output_ids)
        assert calls == 2
        assert_same_bits(got[nid], unfolded(g, x, outputs=[nid])[nid], nid)
        assert_same_bits(forward_arrays(g, x, outputs=[nid])[nid], got[nid], nid)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_input_graph_untouched(self, preset):
        g = preset_graph(f"{preset}-calibrated")
        nodes = dict(g.nodes)
        before = {(nid, k): (a, a.tobytes()) for nid, n in nodes.items() for k, a in n.params.items()}
        forward_arrays(g, images((2, 3, 64, 64)))
        assert g.nodes == nodes and all(g.nodes[nid] is n for nid, n in nodes.items())
        for (nid, k), (a, raw) in before.items():
            assert g.nodes[nid].params[k] is a and a.tobytes() == raw, (nid, k)

    def test_graph_with_nothing_to_fold_runs_unfolded_bit_for_bit(self):
        g, x = chain_graph(), images((2, 3, 8, 8))
        for n in g.nodes.values():
            if n.kind == "batchnorm":
                n.kind, n.attrs, n.params = "scale", {}, {"scale": n.params["gamma"]}
        got, calls = folded_forward(g, x)
        assert calls == 0
        assert_same_bits(got["out"], unfolded(g, x)["out"])
        g, x = residual_graph(), images((2, 4, 6, 6))
        bns = [nid for nid, n in g.nodes.items() if n.kind == "batchnorm"]
        got, calls = folded_forward(g, x, bns)
        assert bns and calls == len(bns)
        want = unfolded(g, x, bns)
        for k in bns:
            assert_same_bits(got[k], want[k], k)


def wide_graph():
    """Four 256-channel 3x3 conv blocks on 4x4 maps: four 2.25 MiB conv weights."""
    b = GraphBuilder("wide", (1, 256, 4, 4), seed=0)
    y = b.add("input", "image", [])
    for i in range(4):
        y = b.conv_block(y, 256, 256, k=3, prefix=f"b{i}")
    b.add("output", "out", [y])
    return b.graph


def test_call_holds_one_folded_weight_at_a_time():
    """Each folded weight is rescaled when its conv reads it and freed when that conv
    returns, so a call peaks at one of the four 2.25 MiB folded weights plus the scratch,
    one conv's patches and the fold's per-channel vectors (eight float32 vectors over the
    1024 folded channels at most), not at all four weights."""
    g, x = wide_graph(), images((1, 256, 4, 4))
    weight = max(n.params["weight"].nbytes for n in g.nodes.values() if n.kind == "conv")
    bound = (weight + estimate_memory(g, 32).scratch_bytes + largest_conv_temporaries(g, x.shape)
             + 8 * 4 * 1024)
    forward_arrays(g, x)  # builds the plan, which the graph keeps
    tracemalloc.start()
    try:
        forward_arrays(g, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak / 2**20, bound / 2**20)


def test_a_plan_holds_no_array_between_calls():
    """A first call leaves its plan behind and nothing else of its own: a few KiB of
    structure, not one of the 2.25 MiB folded weights."""
    g, x = wide_graph(), images((1, 256, 4, 4))
    forward_arrays(g.clone(copy_params=False), x)  # fills the kernels' own caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        forward_arrays(g, x)  # its outputs freed on return
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024, held


def test_a_quantizer_turns_a_rounding_change_into_a_whole_step():
    """The fold moves a batchnorm output by float rounding only; a quantizer whose half-step
    boundary lies between the folded and unfolded values moves it a whole step."""
    b = GraphBuilder("fold", (1, 1, 16, 16), seed=0)
    y = b.batchnorm(b.conv(b.add("input", "image", []), 1, 1, 1, prefix="c"), 1, prefix="bn")
    q = b.add("fakequant", "q", [y], attrs={"phase": "disabled"},
              params={"amax": np.ones(1, np.float32)})
    b.add("output", "out", [q])
    g, x = b.graph, images((4, 1, 16, 16))
    g.node("bn").params.update({k: np.float32([v]) for k, v in zip(
        ("gamma", "beta", "running_mean", "running_var"), (1.3, 0.1, 0.2, 0.7))})

    def both():
        return unfolded(g, x, ["q"])["q"].ravel(), forward_arrays(g, x, ["q"])["q"].ravel()

    want, got = both()
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
    i = np.flatnonzero((got != want) & (want > 0))[0]
    quantizer = g.node("q")
    quantizer.attrs["phase"] = "active"
    # a step of their sum puts the half-step boundary between the two values
    quantizer.params["amax"][0] = 127 * (float(want[i]) + float(got[i]))
    want, got = both()
    assert abs(float(got[i]) - float(want[i])) == pytest.approx(quantizer.params["amax"][0] / 127)


class TestBadVariance:
    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_raises_folded_and_unfolded(self, bad):
        g = chain_graph()
        bn = next(n for n in g.nodes.values() if n.kind == "batchnorm")
        bn.params["running_var"][1] = bad
        x = images((1, 3, 8, 8))
        with pytest.raises(ShapeError, match="non-negative"):
            forward_arrays(g, x)
        with pytest.raises(ShapeError, match="non-negative"):
            run_graph(g, x, mode="eval")

    def test_unneeded_batchnorm_is_not_read(self):
        g = residual_graph()
        g.nodes["f.bn"].params["running_var"][0] = np.nan
        x = images((1, 4, 6, 6))
        got = forward_arrays(g, x, outputs=["stem.act"])["stem.act"]
        ref = unfolded(g, x, ["stem.act"])["stem.act"]
        assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()


@pytest.mark.parametrize("preset", PRESETS)
def test_containers_and_reports_stay_unfolded(preset):
    g = preset_graph(f"{preset}-calibrated")

    def snapshot():
        report = build_report(g, dense_params=count_params(g), channel_fraction=0.5)
        return to_bytes(g, 32), export_fp16(g)[0], report

    before = snapshot()
    forward_arrays(g, images((2, 3, 64, 64)))
    assert snapshot() == before
    assert b'"batchnorm"' in before[0]
