"""One schedule for execution and for memory: ``Graph.schedule``, the values
``run_graph`` keeps alive, and the scratch ``estimate_memory`` reports."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forward_reference as reference
from conftest import (assert_same_bits, images, largest_conv_temporaries, preset_graph,
                      primitive_graphs, settled_graph)
from memory_reference import quadratic_scratch_bytes
from slimgraph import build_fragment, forward_arrays, run_graph
from slimgraph.builders import PRESETS
from slimgraph.metrics import estimate_memory

BATCH16 = (16, 3, 64, 64)


GRAPH_NAMES = [f"{preset}-{variant}" for preset in PRESETS for variant in ("plain", "calibrated")]


def needed_subgraph(g):
    """The graph without the nodes that no output needs, which never run."""
    keep = g.ancestors_of(g.output_ids)
    sub = g.clone(copy_params=False)
    sub.nodes = {nid: n for nid, n in sub.nodes.items() if nid in keep}
    return sub


class TestSchedule:
    @settings(max_examples=150, deadline=None)
    @given(primitive_graphs(), st.data())
    def test_each_edge_freed_once_after_its_last_reader(self, g, data):
        outputs = data.draw(st.lists(st.sampled_from(sorted(g.nodes)), min_size=1, max_size=3,
                                     unique=True))
        plan = g.schedule(outputs)
        order = [n.id for n, _ in plan]
        needed = g.ancestors_of(outputs)
        assert order == [nid for nid in g.topo_order() if nid in needed]
        freed = [ref for _, refs in plan for ref in refs]
        assert len(freed) == len(set(freed))
        for n, refs in plan:
            for ref in refs:
                assert ref[0] not in outputs
                assert [m for m in order if ref in g.node(m).inputs][-1] == n.id
        read = {ref for nid in order for ref in g.node(nid).inputs}
        assert set(freed) == {ref for ref in read if ref[0] not in outputs}

    def test_requested_intermediate_nodes_are_returned_unchanged(self):
        """An intermediate requested with the heads equals its run alone bit for bit. The
        heads equal the unrequested run's under ``run_graph``, which does not fold; under
        ``forward_arrays`` they equal a fresh fold for the same outputs, since a requested
        pair member stays unfolded, which changes the heads' rounding."""
        g = settled_graph("ecoweed_mini-calibrated")
        x = images((2, 3, 64, 64))
        full = run_graph(g, x, mode="eval")
        read = {src for n in g.nodes.values() for src, _ in n.inputs}
        inner = [nid for nid in g.topo_order() if nid in read][1::9]
        assert len(inner) > 10
        for nid in inner:
            alone = forward_arrays(g, x, outputs=[nid])[nid]
            got = forward_arrays(g, x, outputs=[nid] + g.output_ids)
            assert list(got) == [k for k in g.topo_order() if k in got]
            assert_same_bits(got[nid], alone, nid)
            want = reference.forward_arrays(g, x, [nid] + g.output_ids)
            unfolded = run_graph(g, x, mode="eval", outputs=[nid] + g.output_ids)
            for k in g.output_ids:
                assert_same_bits(got[k], want[k], (nid, k))
                assert_same_bits(unfolded[k].value, full[k].value, (nid, k))


class TestScratch:
    @pytest.mark.parametrize("bits", [32, 16])
    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_presets_match_quadratic_sweep(self, name, batch, bits):
        g = preset_graph(name)
        shape = (batch, 3, 64, 64)
        scratch = estimate_memory(g, bits, shape).scratch_bytes
        assert scratch == quadratic_scratch_bytes(g, bits, shape)
        per_image = {"plain": 81920, "calibrated": 98304}[name.split("-")[1]]
        assert scratch == per_image * batch * bits // 32

    @pytest.mark.parametrize("module", ["c3k2", "sppf", "c2psa", "a2c2f", "spab"])
    @pytest.mark.parametrize("width", [8, 64, 256])
    def test_fragments_match_quadratic_sweep(self, module, width):
        kwargs = {} if module == "spab" else {"cout": width}
        g = build_fragment(module, (1, width, 16, 16), seed=0, **kwargs)
        for bits in (32, 16):
            assert estimate_memory(g, bits).scratch_bytes == quadratic_scratch_bytes(g, bits)

    @settings(max_examples=150, deadline=None)
    @given(primitive_graphs(), st.sampled_from([1, 3]))
    def test_generated_graphs_match_quadratic_sweep_over_needed_nodes(self, g, batch):
        shape = (batch,) + g.input_shape[1:]
        scratch = estimate_memory(g, 32, shape).scratch_bytes
        assert scratch == quadratic_scratch_bytes(needed_subgraph(g), 32, shape)
        assert scratch <= quadratic_scratch_bytes(g, 32, shape)


class TestPeakBound:
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_eval_forward_peak_within_scratch_and_largest_conv(self, name):
        g = preset_graph(name)
        bound = (estimate_memory(g, 32, BATCH16).scratch_bytes
                 + largest_conv_temporaries(g, BATCH16))
        x = images(BATCH16)
        tracemalloc.start()
        try:
            forward_arrays(g, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak / 2**20, bound / 2**20)

    @pytest.mark.parametrize("mode", ["eval", "calibrate"])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_batch_64_run_peak_within_scratch_and_one_conv_chunk(self, preset, mode):
        """An untaped run gathers the stem's patches a chunk at a time: the whole 64-image
        matrix (6.75 MiB) would exceed the 6 MiB scratch on its own."""
        g = preset_graph(f"{preset}-calibrated")
        shape = (64,) + BATCH16[1:]
        bound = estimate_memory(g, 32, shape).scratch_bytes + largest_conv_temporaries(g, shape)
        x = images(shape)
        tracemalloc.start()
        try:
            run_graph(g, x, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak / 2**20, bound / 2**20)
