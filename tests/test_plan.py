"""Execution plans: ``forward_arrays`` and ``run_graph`` build one plan per graph, check it
on every call, rebuild it after an edit, and match the per-call path bit for bit."""

import collections
import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forward_reference as reference
from conftest import (FRAGMENTS, assert_same_bits, chain_graph, container, fragment_graph,
                      images, preset_graph, primitive_graphs, residual_graph, settle,
                      settled_graph, split_container)
from slimgraph import executor, forward_arrays, run_graph
from slimgraph import pipeline as pl
from slimgraph.builders import PRESETS, GraphBuilder
from slimgraph.errors import GraphError, ModelFormatError, ShapeError
from slimgraph.graph import Graph, Node
from slimgraph.modelio import from_bytes, to_bytes
from slimgraph.pruner import apply_prune, build_plan


def assert_matches_oracle(g, x, outputs=None):
    want = reference.forward_arrays(g, x, outputs)
    got = forward_arrays(g, x, outputs)
    assert list(got) == list(want)
    for k, a in want.items():
        assert_same_bits(got[k], a, k)


def assert_runs_like_a_new_graph(g, x, outputs=None):
    want = run_graph(reference.shell(g), x, mode="eval", outputs=outputs)
    got = run_graph(g, x, mode="eval", outputs=outputs)
    assert list(got) == list(want)
    for k, v in want.items():
        assert_same_bits(got[k].value, v.value, k)


def activations(g):
    return [nid for nid, n in g.nodes.items() if n.kind == "activation"]


def changed(before, after):
    """Whether an edit changed the outputs, so the test would see a stale plan."""
    return before.keys() != after.keys() or any(
        a.tobytes() != before[k].tobytes() for k, a in after.items())


def with_statistics(g, seed=0):
    """``g`` with random batchnorm statistics, so folded and unfolded runs differ in bits."""
    rng = np.random.default_rng(seed)
    for n in g.nodes.values():
        if n.kind == "batchnorm":
            c = len(n.params["gamma"])
            n.params.update(gamma=rng.normal(1, 0.3, c), beta=rng.normal(0, 0.3, c),
                            running_mean=rng.normal(0, 0.3, c),
                            running_var=rng.uniform(0.2, 2, c))
            n.params.update({k: v.astype(np.float32) for k, v in n.params.items()})
    return g


@functools.cache
def pruned_preset(preset):
    g = preset_graph(f"{preset}-calibrated")
    return settle(apply_prune(g, build_plan(g, 0.5)), images((8, 3, 64, 64), 2))


class TestOracle:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("variant", ["plain", "calibrated", "pruned"])
    def test_presets(self, preset, variant):
        g = pruned_preset(preset) if variant == "pruned" else settled_graph(f"{preset}-{variant}")
        x = images((2, 3, 64, 64))
        for _ in range(3):
            assert_matches_oracle(g, x)
        assert_matches_oracle(g, x, ["cls"])
        assert_matches_oracle(g, x, activations(g))

    @pytest.mark.parametrize("module,width", FRAGMENTS)
    def test_compress_fragments(self, module, width):
        g = fragment_graph(module, width)
        assert_matches_oracle(g, images((1, width, 16, 16)))

    @settings(max_examples=60, deadline=None)
    @given(primitive_graphs(), st.data())
    def test_random_graphs_and_outputs(self, g, data):
        with_statistics(g, data.draw(st.integers(0, 9)))
        x = images((2,) + g.input_shape[1:], data.draw(st.integers(0, 9)))
        subset = data.draw(st.lists(st.sampled_from(sorted(g.nodes)), unique=True))
        for outputs in (None, [], subset, None, subset):
            assert_matches_oracle(g, x, outputs)
            assert_runs_like_a_new_graph(g, x, outputs)


class TestOutputs:
    def test_an_iterator_is_read_once(self):
        g, x = settled_graph("y11_mini-plain"), images((1, 3, 64, 64))
        want = forward_arrays(g, x, ["det0"])["det0"]
        assert list(forward_arrays(g, x, iter(["det0"]))) == ["det0"]
        assert_same_bits(forward_arrays(g, x, (k for k in ["det0"]))["det0"], want)
        assert list(run_graph(g, x, outputs=iter(["det0"]))) == ["det0"]

    @pytest.mark.parametrize("run", [forward_arrays, run_graph])
    def test_a_string_is_refused(self, run):
        g, x = preset_graph("y11_mini-plain"), images((1, 3, 64, 64))
        with pytest.raises(GraphError, match="outputs must be a sequence of node ids"):
            run(g, x, outputs="det0")

    def test_none_and_empty_stay_apart(self):
        g, x = settled_graph("y12_mini-calibrated"), images((1, 3, 64, 64))
        for outputs in (None, [], None, [], ["det1"], []):
            assert_matches_oracle(g, x, outputs)
            want = g.output_ids if outputs is None else outputs
            assert set(forward_arrays(g, x, outputs)) == set(want)
            assert set(run_graph(g, x, outputs=outputs)) == set(want)


def edit_in_place_running_var(g):
    g.nodes["blk.bn"].params["running_var"] *= 1.7


def edit_in_place_conv_weight(g):
    g.nodes["blk.conv"].params["weight"][0] *= -2


def replace_head_weight_by_another_shape(g):
    head = g.nodes["head"]
    head.params["weight"] = head.params["weight"][:, :, 1:2, 1:2].copy()
    head.attrs["padding"] = 0


def edit_stride(g):
    g.nodes["blk.conv"].attrs["stride"] = 2


def edit_padding(g):
    g.nodes["blk.conv"].attrs["padding"] = 0


def replace_attrs(g):
    conv = g.nodes["blk.conv"]
    conv.attrs = dict(conv.attrs, stride=2)


def edit_eps(g):
    g.nodes["blk.bn"].attrs["eps"] = 0.5


def add_scale(g):
    g.nodes["blk.scale"] = Node("blk.scale", "scale", {}, {"scale": np.full(8, 1.5, np.float32)},
                                [("blk.act", 0)])
    g.nodes["head"].inputs[0] = ("blk.scale", 0)


def remove_activation(g):
    g.nodes["head"].inputs = [("blk.bn", 0)]
    del g.nodes["blk.act"]


def add_output(g):
    g.add(Node("mid", "output", inputs=[("blk.act", 0)]))


def replace_node(g):
    act = g.nodes["blk.act"]
    g.nodes["blk.act"] = Node(act.id, "activation", {"fn": "sigmoid"}, {}, list(act.inputs))


CHAIN_EDITS = [edit_in_place_running_var, edit_in_place_conv_weight,
               replace_head_weight_by_another_shape, edit_stride, edit_padding, replace_attrs,
               edit_eps, add_scale, remove_activation, add_output, replace_node]


class TestRebuild:
    @pytest.mark.parametrize("edit", CHAIN_EDITS, ids=lambda f: f.__name__)
    def test_edit_after_a_forward(self, edit):
        g, x = with_statistics(chain_graph()), images((2, 3, 8, 8))
        before = forward_arrays(g, x)
        run_graph(g, x)
        edit(g)
        assert_matches_oracle(g, x)
        assert_runs_like_a_new_graph(g, x)
        assert changed(before, forward_arrays(g, x))

    @pytest.mark.parametrize("edit", CHAIN_EDITS, ids=lambda f: f.__name__)
    def test_edit_right_after_forward_arrays(self, edit):
        """The edit finds the fold plan current: a graph keeps one plan, so in
        ``test_edit_after_a_forward`` the ``run_graph`` has replaced it."""
        g, x = with_statistics(chain_graph()), images((2, 3, 8, 8))
        before = forward_arrays(g, x)
        edit(g)
        assert_matches_oracle(g, x)
        assert changed(before, forward_arrays(g, x))

    def test_in_place_quantizer_amax(self):
        """Halving each quantizer's amax in place is seen in the heads and in every
        activation, each matching a fresh fold."""
        x = images((2, 3, 64, 64))
        for outputs in (None, activations(settled_graph("ecoweed_mini-calibrated"))):
            g = settled_graph("ecoweed_mini-calibrated").clone()
            before = forward_arrays(g, x, outputs)
            for n in g.nodes.values():
                if n.kind == "fakequant":
                    n.params["amax"] *= 0.5
            assert_matches_oracle(g, x, outputs)
            assert changed(before, forward_arrays(g, x, outputs))

    def test_pair_that_starts_and_stops_folding(self):
        """A width mismatch leaves the pair unfolded, and its unfolded run raises; restoring
        the width folds it, bit for bit as a fresh fold, which differs from no fold."""
        g, x = with_statistics(chain_graph()), images((2, 3, 8, 8))
        bn = g.nodes["blk.bn"]
        gamma = bn.params["gamma"]
        for width in (-1, None, -1, None):
            bn.params["gamma"] = gamma[:width]
            if width is None:
                assert_matches_oracle(g, x)
                continue
            with pytest.raises(ShapeError, match="gamma length") as want:
                reference.forward_arrays(g, x)
            with pytest.raises(ShapeError) as got:
                forward_arrays(g, x)
            assert str(got.value) == str(want.value)
        unfolded = run_graph(g, x, mode="eval")["out"].value
        assert forward_arrays(g, x)["out"].tobytes() != unfolded.tobytes()

    def test_rewired_reader_unfolds_a_pair(self):
        g, x = with_statistics(residual_graph()), images((2, 4, 6, 6))
        assert_matches_oracle(g, x)
        g.nodes["res"].inputs[0] = ("f.conv", 0)  # f.conv now has two readers
        assert_matches_oracle(g, x)
        assert_runs_like_a_new_graph(g, x)
        g.nodes["res"].inputs[0] = ("stem.act", 0)
        assert_matches_oracle(g, x, ["res"])
        g.nodes["head"].inputs = [("stem.act", 0)]
        assert_matches_oracle(g, x, ["res"])
        assert_matches_oracle(g, x)

    def test_split_edit_that_changes_its_port_count(self):
        """A split's sizes set its port count: an edit in place to more or fewer ports is
        seen, with no rebuild asked for."""
        b = GraphBuilder("split", (1, 3, 8, 8))
        sid, _ = b.add("split", "split", [b.conv_block(b.add("input", "image", []), 3, 4)],
                       attrs={"sizes": [2, 2]})
        b.add("output", "out", [(sid, 0)])
        b.add("output", "out", [(sid, 1)])
        g, x = with_statistics(b.graph), images((2, 3, 8, 8))
        for check in (assert_matches_oracle, assert_runs_like_a_new_graph):
            for sizes in ([2, 2], [1, 1, 2], [3, 1], [1, 1, 1, 1]):
                g.nodes[sid].attrs["sizes"][:] = sizes
                check(g, x)

    @pytest.mark.parametrize("outputs", [None, ["out.2"]])
    def test_a_port_taken_from_its_reader_raises_as_validate_does(self, outputs):
        """A split cut in place from three ports to two, while a node reads port 2, fails on
        each run and on a clone with the ``GraphError`` of ``Graph.validate``; the port put
        back, the graph runs as a new one."""
        b = GraphBuilder("split", (1, 3, 8, 8))
        sid, _ = b.add("split", "split", [b.conv_block(b.add("input", "image", []), 3, 9)],
                       attrs={"sizes": [3, 3, 3]})
        for port in range(3):
            b.add("output", "out", [(sid, port)])
        g, x = with_statistics(b.graph), images((2, 3, 8, 8))
        forward_arrays(g, x, outputs)
        run_graph(g, x, outputs=outputs)
        g.nodes[sid].attrs["sizes"][:] = [3, 3]
        with pytest.raises(GraphError) as want:
            g.validate()
        assert str(want.value) == "node 'out.2' reads port 2 of 'split' which has 2 ports"
        for graph in (g, g, g.clone()):
            for run in (forward_arrays, run_graph):
                with pytest.raises(GraphError) as got:
                    run(graph, x, outputs=outputs)
                assert str(got.value) == str(want.value)
        g.nodes[sid].attrs["sizes"][:] = [3, 3, 3]
        assert_matches_oracle(g, x, outputs)
        assert_runs_like_a_new_graph(g, x, outputs)

    def test_a_negative_port_raises_as_validate_does(self):
        """An input set in place to read port -1 fails ``Graph.validate``, each run's plan
        rebuild after a warm run and a clone with one ``GraphError``; a container holding
        that edge is a format error."""
        g, x = chain_graph(), images((2, 3, 8, 8))
        forward_arrays(g, x)
        run_graph(g, x)
        g.nodes["out"].inputs = [("head", -1)]
        with pytest.raises(GraphError) as want:
            g.validate()
        assert str(want.value) == "node 'out' reads port -1 of 'head' which has 1 ports"
        for graph in (g, g, g.clone()):
            for run in (forward_arrays, run_graph):
                with pytest.raises(GraphError) as got:
                    run(graph, x)
                assert str(got.value) == str(want.value)
        doc, blob = split_container(to_bytes(chain_graph(), 32))
        next(nd for nd in doc["nodes"] if nd["id"] == "out")["inputs"] = [["head", -1]]
        with pytest.raises(ModelFormatError, match=r"are not \[node id, port\] pairs"):
            from_bytes(container(doc, blob))

    @pytest.mark.parametrize("run", [forward_arrays, run_graph])
    def test_a_kind_set_to_an_unknown_name_raises_as_validate_does(self, run):
        g, x = settled_graph("y11_mini-plain").clone(), images((1, 3, 64, 64))
        run(g, x)
        g.nodes["s0.conv"].kind = "bogus"
        with pytest.raises(GraphError) as want:
            g.validate()
        assert str(want.value) == "unknown node kind 'bogus' for node 's0.conv'"
        for _ in range(2):
            with pytest.raises(GraphError) as got:
                run(g, x)
            assert str(got.value) == str(want.value)
        g.nodes["s0.conv"].kind = "conv"
        assert_matches_oracle(g, x)
        assert_runs_like_a_new_graph(g, x)

    def test_wrong_input_shape_raises_as_before(self):
        g = chain_graph()
        forward_arrays(g, images((2, 3, 8, 8)))
        bad = images((2, 5, 8, 8))
        with pytest.raises(ShapeError) as want:
            reference.forward_arrays(g, bad)
        for _ in range(2):
            with pytest.raises(ShapeError) as got:
                forward_arrays(g, bad)
            assert str(got.value) == str(want.value)
        assert_matches_oracle(g, images((2, 3, 8, 8)))


def test_plans_keep_no_graph_alive():
    g, x = chain_graph(), images((1, 3, 8, 8))
    forward_arrays(g, x)
    forward_arrays(g, x, ["blk.act"])
    run_graph(g, x)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


@pytest.fixture
def calls(monkeypatch):
    """Counts of structure snapshots, ``Graph.schedule``, pair finding and
    ``ops.batchnorm_infer`` calls."""
    counts = collections.Counter()

    def counting(name, f):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(executor, "_snapshot", counting("snapshot", executor._snapshot))
    monkeypatch.setattr(Graph, "schedule", counting("schedule", Graph.schedule))
    monkeypatch.setattr(executor, "_fold_pairs", counting("pairs", executor._fold_pairs))
    monkeypatch.setattr(executor.ops, "batchnorm_infer",
                        counting("batchnorm_infer", executor.ops.batchnorm_infer))
    return counts


class TestBuiltOnce:
    @pytest.mark.parametrize("outputs", [None, ["cls"]])
    def test_repeated_forwards(self, calls, outputs):
        g = preset_graph("ecoweed_mini-calibrated").clone(copy_params=False)
        x = images((1, 3, 64, 64))
        for _ in range(20):
            forward_arrays(g, x, outputs)
        assert calls == {"snapshot": 20, "schedule": 1, "pairs": 1, "batchnorm_infer": 20}

    def test_other_outputs_replace_the_plan(self, calls):
        g, x = chain_graph(), images((1, 3, 8, 8))
        for outputs in (None, None, ["blk.act"], ["blk.act"], None):
            forward_arrays(g, x, outputs)
        assert calls["schedule"] == calls["pairs"] == 3

    def test_the_other_runner_replaces_the_plan(self, calls):
        g, x = chain_graph(), images((1, 3, 8, 8))
        for run in (forward_arrays, run_graph, run_graph, forward_arrays, forward_arrays):
            run(g, x)
        assert calls["schedule"] == 3 and calls["pairs"] == 2

    @pytest.mark.parametrize("edit", [edit_in_place_running_var, edit_in_place_conv_weight,
                                      edit_stride, edit_padding, edit_eps],
                             ids=lambda f: f.__name__)
    def test_a_value_edit_needs_no_rebuild(self, calls, edit):
        def unfolded(g, x):
            return {k: v.value for k, v in run_graph(g, x).items()}

        x = images((2, 3, 8, 8))
        for run, check in ((forward_arrays, assert_matches_oracle),
                           (unfolded, assert_runs_like_a_new_graph)):
            g = with_statistics(chain_graph())
            before = run(g, x)
            calls.clear()
            edit(g)
            assert changed(before, run(g, x))
            assert calls["schedule"] == calls["pairs"] == 0
            check(g, x)  # the kept plan runs the edited graph as a new one

    def test_training_epoch(self, calls):
        """Two steps and one evaluation share one schedule; training never folds."""
        task = pl.ToyTask(n_train=32, n_val=8, seed=0)
        trainer = pl.Trainer(preset_graph("y11_mini-plain").clone(), task, pl.TrainConfig(epochs=1))
        trainer.run_epochs(0, 1, "dense")
        assert calls["schedule"] == 1 and calls["pairs"] == 0
