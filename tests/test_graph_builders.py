"""Module-zoo builders: parameter counts, shape inference, structure."""

import numpy as np
import pytest

from slimgraph import build_fragment, build_mini_net, forward_arrays, infer_shapes
from slimgraph.builders import PRESETS, GraphBuilder
from slimgraph.errors import GraphError
from slimgraph.kinds import SPECS
from slimgraph.metrics import count_params


def closed_form_params(graph):
    """Independent per-node closed forms: conv/linear = out*in*k*k + out,
    batchnorm = 2C, scale = C; summed over an exhaustive node walk."""
    total = 0
    for n in graph.nodes.values():
        if n.kind in ("conv", "linear"):
            w = n.params["weight"]
            total += w.size + (w.shape[0] if "bias" in n.params else 0)
        elif n.kind == "batchnorm":
            total += 2 * len(n.params["gamma"])
        elif n.kind == "scale":
            total += len(n.params["scale"])
    return total


class TestConvBlock:
    def test_param_count_3_16_3(self):
        g = build_fragment("conv_block", (1, 3, 8, 8), cout=16, k=3)
        assert count_params(g) == 3 * 16 * 9 + 16 + 2 * 16  # 480

    def test_param_count_1_1_1(self):
        g = build_fragment("conv_block", (1, 1, 4, 4), cout=1, k=1)
        assert count_params(g) == 1 + 1 + 2

    def test_stride_2_halves_even_spatial_dims(self):
        g = build_fragment("conv_block", (1, 3, 16, 16), cout=4, k=3, stride=2)
        out = g.output_ids[0]
        assert infer_shapes(g)[(out, 0)] == (1, 4, 8, 8)


class TestC3k2:
    def test_odd_output_width_rejected(self):
        with pytest.raises(GraphError, match="even"):
            build_fragment("c3k2", (1, 8, 8, 8), cout=7)

    def test_zero_bottlenecks_is_two_projections(self):
        g = build_fragment("c3k2", (1, 8, 8, 8), cout=8, n=0)
        convs = [n for n in g.nodes.values() if n.kind == "conv"]
        assert len(convs) == 2  # cv1 and cv2 only
        out = g.output_ids[0]
        assert infer_shapes(g)[(out, 0)] == (1, 8, 8, 8)

    def test_param_count_32_closed_form(self):
        g = build_fragment("c3k2", (1, 32, 8, 8), cout=32, n=1, shortcut=True)
        # cv1(32->32,k1)=1120, two blocks (16->16,k3)=2352 each, cv2=1120
        assert count_params(g) == 1120 + 2 * 2352 + 1120 == 6944
        assert count_params(g) == closed_form_params(g)

    def test_shortcut_halves_match(self):
        # residual add requires equal widths on both bottleneck ports
        g = build_fragment("c3k2", (1, 16, 8, 8), cout=16, n=2, shortcut=True)
        shapes = infer_shapes(g)
        for n in g.nodes.values():
            if n.kind == "add":
                s = [shapes[ref] for ref in n.inputs]
                assert s[0] == s[1]


class TestC2psa:
    def test_odd_output_rejected(self):
        with pytest.raises(GraphError, match="even"):
            build_fragment("c2psa", (1, 8, 4, 4), cout=9)

    def test_zero_blocks_split_merge(self):
        g = build_fragment("c2psa", (1, 8, 4, 4), cout=8, n=0)
        assert infer_shapes(g)[(g.output_ids[0], 0)] == (1, 8, 4, 4)

    def test_branch_widths_equal_and_spatial_preserved(self):
        g = build_fragment("c2psa", (1, 64, 6, 6), cout=64, n=1)
        shapes = infer_shapes(g)
        split = next(n for n in g.nodes.values() if n.kind == "split")
        assert split.attrs["sizes"] == [32, 32]
        assert shapes[(g.output_ids[0], 0)] == (1, 64, 6, 6)


class TestSppf:
    def test_even_pool_kernel_rejected(self):
        with pytest.raises(GraphError, match="odd"):
            build_fragment("sppf", (1, 8, 8, 8), cout=8, pool_k=4)

    def test_concat_width_is_four_hidden(self):
        g = build_fragment("sppf", (1, 16, 8, 8), cout=16, pool_k=5)
        shapes = infer_shapes(g)
        cat = next(n for n in g.nodes.values() if n.kind == "concat")
        assert shapes[(cat.id, 0)][1] == 4 * 8

    def test_pooling_preserves_spatial_dims(self):
        g = build_fragment("sppf", (1, 16, 8, 8), cout=16, pool_k=5)
        shapes = infer_shapes(g)
        for n in g.nodes.values():
            if n.kind == "maxpool":
                assert shapes[(n.id, 0)][2:] == (8, 8)

    def test_param_count_64(self):
        g = build_fragment("sppf", (1, 64, 4, 4), cout=64, pool_k=5)
        # cv1(64->32,k1)=2144, cv2(128->64,k1)=8384
        assert count_params(g) == 2144 + 8384 == 10528


class TestMaxpoolPadding:
    @pytest.mark.parametrize("k, padding, out", [(2, 1, 5), (5, 2, 4), (2, 3, None),
                                                 (5, 3, None), (1, 1, None)])
    def test_padding_at_most_half_the_window(self, k, padding, out):
        b = GraphBuilder("pool", (1, 1, 4, 4))
        y = b.add("maxpool", "pool", [b.add("input", "image", [])],
                  attrs={"k": k, "stride": 1, "padding": padding})
        b.add("output", "out", [y])
        if out is None:
            with pytest.raises(GraphError, match=rf"maxpool 'pool.*padding {padding} exceeds k // 2"):
                infer_shapes(b.graph)
        else:
            assert infer_shapes(b.graph)[y] == (1, 1, out, out)


def test_absent_stride_and_padding_take_their_defaults():
    """A conv with neither runs at stride 1 unpadded and a maxpool at stride k unpadded,
    in shape inference and in the forward."""
    b = GraphBuilder("defaults", (1, 2, 8, 8))
    conv = b.add("conv", "conv", [b.add("input", "image", [])],
                 params={"weight": b.conv_weight(3, 2, 3, 3)})
    pool = b.add("maxpool", "pool", [conv], attrs={"k": 2})
    b.add("output", "out", [pool])
    shapes = infer_shapes(b.graph)
    assert (shapes[conv], shapes[pool]) == ((1, 3, 6, 6), (1, 3, 3, 3))
    assert forward_arrays(b.graph, np.ones((1, 2, 8, 8), np.float32))["out"].shape == (1, 3, 3, 3)

class TestSpab:
    def test_zero_out3_gate_vanishes(self, rng):
        # zero the c3_r block's batchnorm so out3 == 0 (silu(0) = 0); the gate
        # sigmoid(0) - 0.5 = 0 then leaves the residual path untouched
        g = build_fragment("spab", (1, 4, 6, 6))
        for n in g.nodes.values():
            if n.id.startswith("spab.c3_r.bn"):
                n.params["gamma"][:] = 0.0
                n.params["beta"][:] = 0.0
        x = rng.normal(size=(1, 4, 6, 6)).astype(np.float32)
        out = forward_arrays(g, x)[g.output_ids[0]]
        assert np.allclose(out, x, atol=1e-6)

    def test_saturated_negative_gate_halves_input(self, rng):
        # drive sigmoid toward 0 by shifting out3 far negative through an
        # addconst just before the sigmoid: gate -> -0.5, output -> 0.5 * x
        from slimgraph.graph import Node
        g = build_fragment("spab", (1, 4, 6, 6))
        sig = next(n for n in g.nodes.values()
                   if n.kind == "activation" and n.attrs["fn"] == "sigmoid")
        src = sig.inputs[0]
        g.add(Node("push_down", "addconst", {"c": -60.0}, {}, [src]))
        sig.inputs = [("push_down", 0)]
        x = rng.normal(size=(1, 4, 6, 6)).astype(np.float32)
        out = forward_arrays(g, x)[g.output_ids[0]]
        assert np.allclose(out, 0.5 * x, atol=1e-5)

    def test_gate_width_matches_block_input(self):
        g = build_fragment("spab", (1, 16, 8, 8))
        shapes = infer_shapes(g)
        mul = next(n for n in g.nodes.values() if n.kind == "mul")
        s = [shapes[ref] for ref in mul.inputs]
        assert s[0][1] == s[1][1] == 16

    def test_param_count_16(self):
        g = build_fragment("spab", (1, 16, 8, 8))
        assert count_params(g) == 3 * (16 * 16 * 9 + 16 + 32) == 7056


class TestA2c2f:
    def test_residual_width_mismatch_rejected(self):
        with pytest.raises(GraphError, match="cin == cout"):
            build_fragment("a2c2f", (1, 8, 4, 4), cout=16, residual=True)

    def test_zero_gamma_is_identity_at_init(self, rng):
        g = build_fragment("a2c2f", (1, 8, 4, 4), cout=8, n=1, residual=True)
        x = rng.normal(size=(1, 8, 4, 4)).astype(np.float32)
        out = forward_arrays(g, x)[g.output_ids[0]]
        assert np.array_equal(out, x)

    def test_no_residual_plain_chain(self):
        g = build_fragment("a2c2f", (1, 8, 4, 4), cout=12, n=2, residual=False)
        assert not any(n.kind == "scale" and n.id.startswith("a2c2f.gamma")
                       for n in g.nodes.values())
        assert infer_shapes(g)[(g.output_ids[0], 0)] == (1, 12, 4, 4)

    def test_shape_inference_32(self):
        g = build_fragment("a2c2f", (1, 32, 4, 4), cout=32, n=2, residual=True)
        shapes = infer_shapes(g)
        assert shapes[(g.output_ids[0], 0)] == (1, 32, 4, 4)


class TestPresets:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_shape_inference_and_scales(self, preset):
        g = build_mini_net(preset, (1, 3, 64, 64), 3, seed=0)
        shapes = infer_shapes(g)
        det = g.meta["detect_outputs"]
        assert len(det) == 3
        spatial = [shapes[(d, 0)][2:] for d in det]
        assert spatial == [(8, 8), (4, 4), (2, 2)]  # strides 8/16/32

    @pytest.mark.parametrize("preset", PRESETS)
    def test_param_count_matches_closed_form_walk(self, preset):
        g = build_mini_net(preset, (1, 3, 64, 64), 3, seed=0)
        assert count_params(g) == closed_form_params(g)

    def test_detect_map_channels(self):
        g = build_mini_net("ecoweed_mini", (1, 3, 64, 64), 3, seed=0)
        shapes = infer_shapes(g)
        for d in g.meta["detect_outputs"]:
            assert shapes[(d, 0)][1] == 4 + 3
        g2 = build_mini_net("y11_mini", (1, 3, 64, 64), 2, seed=0)
        for d in g2.meta["detect_outputs"]:
            assert infer_shapes(g2)[(d, 0)][1] == 4 + 2

    def test_indivisible_input_rejected(self):
        with pytest.raises(GraphError, match="divisible"):
            build_mini_net("y11_mini", (1, 3, 60, 60), 3)

    def test_unknown_preset_rejected(self):
        with pytest.raises(GraphError, match="unknown preset"):
            build_mini_net("mega_net", (1, 3, 64, 64), 3)

    def test_trainable_kinds_cover_all_parameter_tensors(self):
        g = build_mini_net("y12_mini", (1, 3, 64, 64), 3, seed=1)
        for n in g.nodes.values():
            for pname in n.params:
                trainable = pname in SPECS[n.kind].trainable
                buffer = pname in ("running_mean", "running_var", "amax")
                assert trainable or buffer, (n.id, pname)

    @pytest.mark.parametrize("build", [
        lambda: build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=-1),
        lambda: build_fragment("spab", (1, 4, 6, 6), seed=-1),
        lambda: GraphBuilder("g", (1, 3, 4, 4), seed=-2),
    ], ids=["preset", "fragment", "builder"])
    def test_negative_seed_rejected(self, build):
        with pytest.raises(GraphError, match="seed must be >= 0, got -"):
            build()

    def test_seeded_build_is_deterministic(self):
        a = build_mini_net("ecoweed_mini", (1, 3, 64, 64), 3, seed=5)
        b = build_mini_net("ecoweed_mini", (1, 3, 64, 64), 3, seed=5)
        for nid in a.nodes:
            for pname, arr in a.nodes[nid].params.items():
                assert arr.tobytes() == b.nodes[nid].params[pname].tobytes()


class TestFragmentKeywords:
    def test_missing_keyword_named(self):
        with pytest.raises(GraphError, match="fragment 'c3k2' needs the keyword 'cout'"):
            build_fragment("c3k2", (1, 8, 8, 8))

    def test_misspelt_keyword_named(self):
        with pytest.raises(GraphError, match="fragment 'c3k2' takes no keyword 'n_bottlenecks'"):
            build_fragment("c3k2", (1, 8, 8, 8), cout=8, n_bottlenecks=2)

    @pytest.mark.parametrize("module, kwargs", [
        ("spab", {"cout": 8}), ("sppf", {"cout": 8, "k": 3}), ("conv_block", {"cout": 8, "n": 1}),
    ])
    def test_keyword_of_another_module_named(self, module, kwargs):
        with pytest.raises(GraphError, match=f"fragment '{module}' takes no keyword"):
            build_fragment(module, (1, 8, 8, 8), **kwargs)

    def test_unknown_module_rejected(self):
        with pytest.raises(GraphError, match="unknown fragment module 'c4k2'"):
            build_fragment("c4k2", (1, 8, 8, 8), cout=8)


class TestInferShapesErrors:
    def test_identity_graph(self):
        from slimgraph.builders import GraphBuilder
        b = GraphBuilder("id", (1, 3, 4, 4))
        x = b.add("input", "image", [])
        b.add("output", "out", [x])
        assert infer_shapes(b.graph)[("out", 0)] == (1, 3, 4, 4)

    def test_add_mismatch_names_both_producers(self):
        from slimgraph.builders import GraphBuilder
        b = GraphBuilder("bad", (1, 3, 4, 4))
        x = b.add("input", "image", [])
        a = b.conv(x, 3, 4, 1, prefix="a")
        c = b.conv(x, 3, 5, 1, prefix="b")
        b.add("add", "sum", [a, c])
        b.add("output", "out", [("sum", 0)])
        with pytest.raises(GraphError, match="'a'.*'b'"):
            infer_shapes(b.graph)


def test_validate_names_a_kind_set_in_place_to_an_unknown_name():
    g = build_mini_net("y11_mini")
    g.node("s0.conv").kind = "bogus"
    with pytest.raises(GraphError, match=r"^unknown node kind 'bogus' for node 's0.conv'$"):
        g.validate()
