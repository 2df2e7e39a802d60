"""Parameter / FLOP / memory accounting and report emission."""

import numpy as np
import pytest

from conftest import FRAGMENTS, fragment_graph, preset_graph
from slimgraph import build_fragment, build_mini_net
from slimgraph.builders import PRESETS, GraphBuilder
from slimgraph.errors import ExportError, GraphError
from slimgraph.metrics import (build_report, count_flops, count_params, emit_report,
                               estimate_memory)
from slimgraph.modelio import to_bytes
from slimgraph.pruner import PrunePlan, apply_prune, build_plan


class TestCountParams:
    def test_conv_block_480(self):
        g = build_fragment("conv_block", (1, 3, 8, 8), cout=16, k=3)
        assert count_params(g) == 480

    def test_empty_graph_zero(self):
        b = GraphBuilder("id", (1, 3, 4, 4))
        x = b.add("input", "image", [])
        b.add("output", "out", [x])
        assert count_params(b.graph) == 0

    def test_empty_plan_prune_keeps_count(self):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        assert count_params(apply_prune(g, PrunePlan())) == count_params(g)

    def test_running_stats_and_amax_excluded(self):
        from slimgraph.fakequant import insert_fakequant
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        assert count_params(insert_fakequant(g)) == count_params(g)


class TestCountFlops:
    def test_single_1x1_conv_hand_count(self):
        b = GraphBuilder("one", (1, 1, 4, 4))
        x = b.add("input", "image", [])
        y = b.conv(x, 1, 1, k=1, prefix="c")
        b.add("output", "out", [y])
        # 2 * 1*1*1*1 * 16 multiply-accumulate FLOPs + 16 bias adds
        assert count_flops(b.graph) == 32 + 16

    @pytest.mark.parametrize("preset", PRESETS)
    def test_every_kind_counts_the_whole_batch(self, preset):
        g = build_mini_net(preset, (1, 3, 64, 64), 3)
        assert count_flops(g, (3, 3, 64, 64)) == 3 * count_flops(g)

    def test_doubling_spatial_dims_quadruples_conv_flops(self):
        g1 = build_fragment("conv_block", (1, 3, 16, 16), cout=8, k=3)
        g2 = build_fragment("conv_block", (1, 3, 32, 32), cout=8, k=3)
        conv = lambda g: next(n for n in g.nodes.values() if n.kind == "conv")
        def conv_flops(g, hw):
            w = conv(g).params["weight"]
            return 2 * w.size * hw * hw + w.shape[0] * hw * hw
        assert conv_flops(g2, 32) == 4 * conv_flops(g1, 16)
        assert count_params(g1) == count_params(g2)

    def test_pruned_conv_pair_matches_closed_form(self):
        from conftest import chain_graph
        from slimgraph import resolve_groups
        g = chain_graph()
        groups = resolve_groups(g)
        mid = next(gr for gr in groups if not gr.protected and gr.length == 8)
        plan = PrunePlan(removals={mid.gid: (0, 1)})
        slim = apply_prune(g, plan, groups)
        def expected(graph):
            total = 0
            from slimgraph.graph import infer_shapes
            shapes = infer_shapes(graph)
            for nid, n in graph.nodes.items():
                if n.kind == "conv":
                    w = n.params["weight"]
                    _, _, ho, wo = shapes[(nid, 0)]
                    total += 2 * w.size * ho * wo + w.shape[0] * ho * wo
                elif n.kind == "batchnorm":
                    total += 2 * int(np.prod(shapes[(nid, 0)]))
                elif n.kind == "activation":
                    total += 4 * int(np.prod(shapes[(nid, 0)]))
            return total
        assert count_flops(slim) == expected(slim)
        assert count_flops(slim) < count_flops(g)

    def test_prune_never_increases_flops(self):
        g = build_mini_net("ecoweed_mini", (1, 3, 64, 64), 3, seed=0)
        last = count_flops(g)
        for f in (0.1, 0.3, 0.5):
            cur = count_flops(apply_prune(g, build_plan(g, f)))
            assert cur <= last
            last = cur


class TestMemory:
    def test_fp16_weight_bytes_half(self):
        for preset in PRESETS:
            g = build_mini_net(preset, (1, 3, 64, 64), 3, seed=0)
            m32 = estimate_memory(g, 32)
            m16 = estimate_memory(g, 16)
            assert m16.weight_bytes * 2 == m32.weight_bytes

    def test_single_conv_block_scratch_is_two_live_tensors(self):
        g = build_fragment("conv_block", (1, 3, 8, 8), cout=3, k=3)
        m = estimate_memory(g, 32)
        # equal-sized input and output maps: peak is exactly two live tensors
        assert m.scratch_bytes == 2 * (3 * 8 * 8 * 4)

    def test_engine_ratio_trend(self):
        for preset in PRESETS:
            g = build_mini_net(preset, (1, 3, 64, 64), 3, seed=0)
            e32 = estimate_memory(g, 32).engine_bytes
            e16 = estimate_memory(g, 16).engine_bytes
            assert e32 / e16 >= 1.4

    @pytest.mark.parametrize("bits", [16, 32])
    @pytest.mark.parametrize("name", [f"{p}-plain" for p in PRESETS]
                             + [f"{m}@{w}" for m, w in FRAGMENTS])
    def test_engine_bytes_equal_serialized_size(self, name, bits):
        module, _, width = name.partition("@")
        g = fragment_graph(module, int(width)) if width else preset_graph(name)
        assert estimate_memory(g, bits).engine_bytes == len(to_bytes(g, bits))

    @pytest.mark.parametrize("value, match", [(np.inf, "non-finite"), (1e6, "overflows half")])
    def test_fp16_engine_of_a_weight_binary16_cannot_hold_raises(self, value, match):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        g.node("s0.conv").params["weight"][0, 0, 0, 0] = value
        with pytest.raises(ExportError, match=match):
            estimate_memory(g, 16)
        assert estimate_memory(g, 32).engine_bytes == len(to_bytes(g, 32))


class TestReports:
    def test_published_rows_and_single_dense(self):
        from slimgraph.metrics import CompressionReport
        rows = [
            CompressionReport("eco", "dense", 32, None, 0.0, 2_780_000, (640, 640),
                              9_300_000_000, 0, 0, None),
            CompressionReport("eco", "pruned", 32, 0.1, 11.5, 2_459_176, (640, 640),
                              8_700_000_000, 0, 0, None),
            CompressionReport("eco", "pruned", 32, 0.65, 68.5, 876_859, (640, 640),
                              3_200_000_000, 0, 0, None),
        ]
        csv_text, table = emit_report(rows)
        assert abs(11.5 - 11.6) <= 0.5 and abs(68.5 - 68.5) <= 0.5
        assert "11.5" in csv_text and "68.5" in csv_text
        assert csv_text.splitlines()[0].startswith("#")
        assert "FLOPs = 2 x multiply-accumulates" in table

    def test_build_report_fields(self):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        slim = apply_prune(g, build_plan(g, 0.3))
        dense_params = count_params(g)
        rpt = build_report(slim, dense_params=dense_params, channel_fraction=0.3,
                           val_accuracy=0.9)
        assert rpt.stage == "pruned"
        assert rpt.params == count_params(slim)
        assert rpt.ratio_pct == round(100 * (1 - rpt.params / dense_params), 1)
        assert rpt.flops == count_flops(slim) and rpt.input_hw == (64, 64)

    @pytest.mark.parametrize("bits", [16, 32])
    @pytest.mark.parametrize("shape", [None, (1, 3, 128, 128)])
    def test_report_reads_the_estimate_and_the_flops(self, bits, shape):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        slim = apply_prune(g, build_plan(g, 0.3))
        rpt = build_report(slim, precision_bits=bits, input_shape=shape)
        mem = estimate_memory(slim, bits, shape)
        assert (rpt.weight_bytes, rpt.engine_bytes) == (mem.weight_bytes, mem.engine_bytes)
        assert rpt.engine_bytes == len(to_bytes(slim, bits))
        assert rpt.flops == count_flops(slim, shape)
        assert rpt.input_hw == ((64, 64) if shape is None else (128, 128))
        assert rpt.precision_bits == bits

    def test_dense_and_pruned_rows_differ_in_flops(self):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        slim = apply_prune(g, build_plan(g, 0.5))
        csv_text, _ = emit_report([build_report(g), build_report(slim)])
        lines = csv_text.splitlines()
        header = lines[1].split(",")
        dense, pruned = (dict(zip(header, ln.split(","))) for ln in lines[2:4])
        assert int(dense["flops"]) == count_flops(g) == 4_264_495
        assert int(pruned["flops"]) == count_flops(slim) < int(dense["flops"])
        assert dense["input"] == pruned["input"] == "64x64"

    def test_emit_requires_rows(self):
        with pytest.raises(GraphError, match="at least one report"):
            emit_report([])
