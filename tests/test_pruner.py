"""Importance scoring, selection, slim rebuild, and the zero-embed oracle."""

import functools
import itertools
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import per_channel_reference as reference
from conftest import (FRAGMENTS, chain_graph, fragment_graph, images, preset_graph,
                      primitive_graphs, residual_graph, settled_graph, uneven_replication_graph)
from slimgraph import build_fragment, build_mini_net, forward_arrays, resolve_groups
from slimgraph.builders import PRESETS, GraphBuilder
from slimgraph.errors import GroupError, PlanError, SlimgraphError
from slimgraph.graph import infer_shapes
from slimgraph.metrics import count_params
from slimgraph.pruner import (PrunePlan, achieved_ratio, apply_prune, build_plan,
                              l1_importance, ratio_percent, read_plan, select_channels,
                              validate_plan, verify, write_plan, zero_embed_oracle)


def rel_err(a, b):
    return float(np.abs(a - b).max()) / max(float(np.abs(a).max()), 1e-12)


class TestImportance:
    def test_hand_l1_scores(self):
        g = chain_graph()
        # overwrite the middle conv with a 2-channel hand example
        b = GraphBuilder("two", (1, 1, 4, 4))
        x = b.add("input", "image", [])
        y = b.conv(x, 1, 2, 2, prefix="mid")
        y = b.conv(y, 2, 1, 1, prefix="head")
        b.add("output", "out", [y])
        g = b.graph
        g.node("mid").params["weight"] = np.array(
            [[[[1, -1], [2, -2]]], [[[0.5, 0.5], [0.5, 0.5]]]], dtype=np.float32)
        infer_shapes(g)
        groups = resolve_groups(g)
        mid = next(gr for gr in groups if not gr.protected and gr.length == 2)
        scores = l1_importance(g, mid)
        assert np.allclose(scores, [6.0, 2.0])

    def test_zero_filter_ranked_first(self):
        g = chain_graph()
        g.node("blk.conv").params["weight"][3] = 0.0
        groups = resolve_groups(g)
        mid = next(gr for gr in groups if not gr.protected and gr.length == 8)
        scores = l1_importance(g, mid)
        assert select_channels(scores, 0.2)[0] == 3

    def test_residual_group_sums_both_producers(self):
        g = residual_graph()
        groups = resolve_groups(g)
        res = next(gr for gr in groups if gr.kind == "residual")
        scores = l1_importance(g, res)
        expect = (np.abs(g.node("stem.conv").params["weight"]).sum(axis=(1, 2, 3))
                  + np.abs(g.node("f.conv").params["weight"]).sum(axis=(1, 2, 3)))
        assert np.allclose(scores, expect, rtol=1e-6)


    def test_group_with_no_conv_producer_raises_group_error(self):
        g = preset_graph("y11_mini-plain")
        image = next(gr for gr in resolve_groups(g) if gr.gid.endswith(".image"))
        with pytest.raises(SlimgraphError) as e:
            l1_importance(g, image)
        assert type(e.value) is GroupError
        assert str(e.value) == "group g014.image has no conv producer to score"

class TestSelection:
    def test_hand_cases(self):
        assert select_channels([6.0, 2.0], 0.5) == (1,)
        assert select_channels([6.0, 2.0], 0.0) == ()
        assert select_channels([3.0, 3.0, 3.0, 3.0], 0.5) == (2, 3)

    def test_min_keep_floor(self):
        assert len(select_channels([1.0, 2.0, 3.0], 0.99)) == 2

    def test_fraction_out_of_range(self):
        with pytest.raises(PlanError):
            select_channels([1.0], 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=10),
           st.floats(min_value=0, max_value=0.99))
    def test_matches_exhaustive_minimum(self, scores, fraction):
        removal = select_channels(scores, fraction)
        m = len(removal)
        if m == 0:
            return
        best = min(sum(scores[i] for i in combo)
                   for combo in itertools.combinations(range(len(scores)), m))
        assert sum(scores[i] for i in removal) == pytest.approx(best)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0, 1e6) | st.floats(-1e6, 0),
                    min_size=1, max_size=40),
           st.floats(min_value=0, max_value=0.99))
    def test_matches_python_sort_with_ties(self, scores, fraction):
        """The order of the Python sort it replaced: lowest score first, ties higher index
        first (scores drawn from three values to make ties common, -0.0 among them)."""
        m = min(int(np.floor(fraction * len(scores))), len(scores) - 1)
        order = sorted(range(len(scores)), key=lambda i: (scores[i], -i))
        want = tuple(sorted(order[:m])) if m > 0 else ()
        got = select_channels(scores, fraction)
        assert got == want and all(type(i) is int for i in got)

    def test_nan_score_fails_the_plan_naming_its_group(self):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        group = [grp for grp in resolve_groups(g) if not grp.protected][-1]
        (nid, _, _), (_, chans) = next((port, at) for port, at in group.index.items()
                                       if port[1] == "out" and g.nodes[port[0]].kind == "conv")
        g.nodes[nid].params["weight"][chans[0], 0, 0, 0] = np.nan
        with pytest.raises(PlanError, match=f"group {group.gid} has a NaN"):
            build_plan(g, 0.5)


class TestApplyPrune:
    def test_empty_plan_is_weight_identical(self):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        slim = apply_prune(g, PrunePlan())
        for nid, n in g.nodes.items():
            for pname, arr in n.params.items():
                assert arr.tobytes() == slim.node(nid).params[pname].tobytes()

    @pytest.mark.parametrize("preset", PRESETS)
    def test_every_tensor_is_c_contiguous_and_its_own(self, preset):
        g = build_mini_net(preset, (1, 3, 64, 64), 3, seed=0)
        for fraction in (0.0, 0.1, 0.5, 0.9):
            slim = apply_prune(g, build_plan(g, fraction))
            for nid, n in slim.nodes.items():
                for name, arr in n.params.items():
                    assert arr.flags.c_contiguous, (fraction, nid, name)
                    assert not np.shares_memory(arr, g.node(nid).params[name]), (nid, name)

    def test_detect_head_bytes_identical_after_prune(self):
        g = build_mini_net("ecoweed_mini", (1, 3, 64, 64), 3, seed=0)
        slim = apply_prune(g, build_plan(g, 0.4))
        shapes_dense, shapes_slim = infer_shapes(g), infer_shapes(slim)
        for nid, n in g.nodes.items():
            if not n.protected or not n.params:
                continue
            for pname, arr in n.params.items():
                assert arr.tobytes() == slim.node(nid).params[pname].tobytes()
        for d in g.meta["detect_outputs"]:
            assert shapes_dense[(d, 0)] == shapes_slim[(d, 0)]

    def test_achieved_reduction_matches_prediction(self):
        g = build_mini_net("ecoweed_mini", (1, 3, 64, 64), 3, seed=2)
        groups = resolve_groups(g)
        plan = build_plan(g, 0.3, groups)
        slim = apply_prune(g, plan, groups)
        assert count_params(g) - reference.predict_removed_params(g, groups, plan.removals) \
            == count_params(slim)

    def test_stale_plan_rejected(self):
        g = chain_graph()
        groups = resolve_groups(g)
        with pytest.raises(PlanError, match="stale"):
            validate_plan(groups, PrunePlan(removals={"g999.nothere": (0,)}))
        mid = next(gr for gr in groups if not gr.protected and gr.length == 8)
        with pytest.raises(PlanError, match="out of range"):
            validate_plan(groups, PrunePlan(removals={mid.gid: (99,)}))
        with pytest.raises(PlanError, match="every channel"):
            validate_plan(groups, PrunePlan(removals={mid.gid: tuple(range(8))}))

    @pytest.mark.parametrize("idxs", [(3, 1), (0, 2, 1), (1, 5, 4, 6)])
    def test_unordered_plan_rejected_naming_the_group(self, idxs):
        # PrunePlan promises increasing removal sets; every pass that reads a plan checks it
        g = preset_graph("y11_mini-plain")
        groups = resolve_groups(g)
        gid = next(gr.gid for gr in groups if not gr.protected and gr.length > 6)
        plan = PrunePlan({gid: idxs})
        for pass_ in (validate_plan, lambda gr, p: apply_prune(g, p, gr),
                      lambda gr, p: zero_embed_oracle(g, p, gr)):
            with pytest.raises(PlanError, match=f"{re.escape(repr(gid))} are not in increasing"):
                pass_(groups, plan)
        validate_plan(groups, PrunePlan({gid: tuple(sorted(idxs))}))

    @pytest.mark.parametrize("idxs", [(1, 1), (3, 1, 3), (2, 4, 4)])
    def test_duplicate_indices_keep_their_message(self, idxs):
        g = preset_graph("y11_mini-plain")
        groups = resolve_groups(g)
        gid = next(gr.gid for gr in groups if not gr.protected and gr.length > 6)
        with pytest.raises(PlanError, match=f"duplicate indices for group {re.escape(repr(gid))}"):
            validate_plan(groups, PrunePlan({gid: idxs}))

    @pytest.mark.parametrize("idxs, bad", [((-1, 2), -1), ((2, 9, 10), 9), ((0, 8), 8)])
    def test_out_of_range_names_the_first_bad_index(self, idxs, bad):
        g = chain_graph()
        groups = resolve_groups(g)
        mid = next(gr for gr in groups if not gr.protected and gr.length == 8)
        with pytest.raises(PlanError, match=rf"plan index {bad} out of range \[0, 8\)"):
            validate_plan(groups, PrunePlan({mid.gid: idxs}))


class TestZeroEmbedOracle:
    def test_empty_plan_identical(self):
        g = chain_graph()
        emb = zero_embed_oracle(g, PrunePlan())
        for nid, n in g.nodes.items():
            for pname, arr in n.params.items():
                assert arr.tobytes() == emb.node(nid).params[pname].tobytes()

    def test_chain_zeroes_consumer_column_and_matches_slim(self, rng):
        g = chain_graph()
        groups = resolve_groups(g)
        mid = next(gr for gr in groups if not gr.protected and gr.length == 8)
        plan = PrunePlan(removals={mid.gid: (5,)})
        emb = zero_embed_oracle(g, plan, groups)
        assert not emb.node("head").params["weight"][:, 5].any()
        slim = apply_prune(g, plan, groups)
        for _ in range(20):
            x = rng.normal(0.3, 0.4, (1, 3, 8, 8)).astype(np.float32)
            ya = forward_arrays(emb, x)["out"]
            yb = forward_arrays(slim, x)["out"]
            assert rel_err(ya, yb) <= 1e-5

    def test_sppf_replicated_columns_zeroed(self, rng):
        g = build_fragment("sppf", (1, 16, 8, 8), cout=16, pool_k=5)
        groups = resolve_groups(g)
        rep = next(gr for gr in groups if gr.kind == "sppf-replicated")
        plan = PrunePlan(removals={rep.gid: (2,)})
        emb = zero_embed_oracle(g, plan, groups)
        cv2 = next(nid for nid in g.nodes if nid.endswith("cv2.conv"))
        h = 8
        for col in (2, h + 2, 2 * h + 2, 3 * h + 2):
            assert not emb.node(cv2).params["weight"][:, col].any()
        slim = apply_prune(g, plan, groups)
        x = rng.normal(0.0, 1.0, (2, 16, 8, 8)).astype(np.float32)
        assert rel_err(forward_arrays(emb, x)["out"], forward_arrays(slim, x)["out"]) <= 1e-5

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("fraction", [0.1, 0.3, 0.5])
    def test_preset_equivalence(self, preset, fraction):
        g = build_mini_net(preset, (1, 3, 64, 64), 3, seed=hash((preset, fraction)) % 1000)
        groups = resolve_groups(g)
        plan = build_plan(g, fraction, groups)
        emb = zero_embed_oracle(g, plan, groups)
        slim = apply_prune(g, plan, groups)
        r = np.random.default_rng(42)
        x = r.normal(0.4, 0.3, (2, 3, 64, 64)).astype(np.float32)
        ya, yb = forward_arrays(emb, x), forward_arrays(slim, x)
        for k in ya:
            assert rel_err(ya[k].astype(np.float64), yb[k].astype(np.float64)) <= 1e-5


@functools.cache
def verify_case(name, fraction):
    """A settled preset variant or a compress fragment, its plan at ``fraction``, and two
    input batches (shared: do not mutate)."""
    if name.split("-")[0] in PRESETS:
        g, shape = settled_graph(name), (2, 3, 64, 64)
    else:
        module, width = name.split("-")
        g, shape = fragment_graph(module, int(width)), (2, int(width), 16, 16)
    return g, build_plan(g, fraction), [images(shape, seed) for seed in (3, 4)]


def pruned_case(name="y11_mini-calibrated"):
    """The dense graph, plan and inputs of ``verify_case(name, 0.5)``, with a new copy of
    the plan's own prune to edit."""
    dense, plan, xs = verify_case(name, 0.5)
    return dense, apply_prune(dense, plan), plan, xs


class TestVerify:
    @pytest.mark.parametrize("fraction", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("name", [f"{p}-{v}" for p in PRESETS for v in ("plain", "calibrated")]
                             + [f"{m}-{w}" for m, w in FRAGMENTS])
    def test_the_plans_own_prune_reads_within_tolerance(self, name, fraction):
        dense, plan, xs = verify_case(name, fraction)
        assert plan.removals
        assert verify(dense, apply_prune(dense, plan), plan, xs) <= 1e-5

    def test_reads_the_worst_output_of_the_worst_input(self):
        """A surviving weight of the last output's head, doubled, shows in that output
        alone, and the reading is the largest over the inputs, in any order."""
        dense, slim, plan, xs = pruned_case()
        slim.node("aux.fc").params["weight"] *= 2
        xs = xs + [images((1, 3, 64, 64), 5)]
        oracle = zero_embed_oracle(dense, plan)
        each = [verify(dense, slim, plan, [x]) for x in xs]
        assert len(set(each)) == len(each) and min(each) > 1e-5
        for x, dev in zip(xs, each):
            ya, yb = forward_arrays(oracle, x), forward_arrays(slim, x)
            assert dev == max(rel_err(ya[k], yb[k]) for k in ya) == rel_err(ya["cls"], yb["cls"])
            assert max(rel_err(ya[k], yb[k]) for k in ya if k != "cls") <= 1e-5
        for order in itertools.permutations(range(len(xs))):
            assert verify(dense, slim, plan, (xs[i] for i in order)) == max(each)

    def test_an_all_zero_oracle_output_divides_by_1e_12(self):
        dense = chain_graph()
        for name in ("weight", "bias"):
            dense.node("head").params[name][:] = 0.0
        plan = build_plan(dense, 0.5)
        slim = apply_prune(dense, plan)
        slim.node("head").params["bias"][:] = 1e-9
        got = verify(dense, slim, plan, [images((1, 3, 8, 8))])
        assert got == float(np.float32(1e-9)) / 1e-12

    def test_no_input_reads_zero(self):
        dense, slim, plan, _ = pruned_case()
        assert verify(dense, slim, plan, []) == 0.0

    def test_a_plan_that_does_not_fit_raises_plan_error(self):
        dense, slim, _, xs = pruned_case()
        with pytest.raises(PlanError, match="stale group id 'nope'"):
            verify(dense, slim, PrunePlan(removals={"nope": (0,)}), xs)

    def test_the_dense_graph_fails_the_parameter_count(self):
        dense, _, plan, xs = pruned_case()
        with pytest.raises(SlimgraphError, match="^verify: slim model parameter count does "
                                                 "not match the plan$"):
            verify(dense, dense, plan, xs)

    def test_a_nan_slim_weight_is_not_finite(self):
        dense, slim, plan, xs = pruned_case()
        next(n for n in slim.nodes.values() if n.kind == "conv").params["weight"][0, 0] = np.nan
        with pytest.raises(SlimgraphError, match=r"^verify: output 'det0' is not finite "
                                                 r"\(relative deviation nan\)$"):
            verify(dense, slim, plan, xs)

    def test_a_missing_output_does_not_match(self):
        dense, slim, plan, xs = pruned_case()
        del slim.nodes["cls"]
        with pytest.raises(SlimgraphError, match=r"^verify: output 'cls' does not match: "
                                                 r"dense shape \(2, 3\), slim missing$"):
            verify(dense, slim, plan, xs)

    def test_an_output_of_another_shape_does_not_match(self):
        dense, slim, plan, xs = pruned_case()
        slim.node("cls").inputs = [("detect.s2.map", 0)]
        with pytest.raises(SlimgraphError, match=r"^verify: output 'cls' does not match: "
                                                 r"dense shape \(2, 3\), slim shape \(2, "):
            verify(dense, slim, plan, xs)


class TestMatchesPerChannelReference:
    """Index-array pruning against the per-channel reference path, bit for bit."""

    @staticmethod
    def assert_same_weights(a, b):
        assert a.nodes.keys() == b.nodes.keys()
        for nid, n in a.nodes.items():
            m = b.node(nid)
            assert n.attrs == m.attrs and n.params.keys() == m.params.keys(), nid
            for pname, arr in n.params.items():
                other = m.params[pname]
                assert (arr.dtype, arr.shape) == (other.dtype, other.shape), (nid, pname)
                assert arr.tobytes() == other.tobytes(), (nid, pname)

    def assert_same_path(self, g, fraction):
        groups, ref_groups = resolve_groups(g), reference.resolve_groups(g)
        for grp, ref_grp in zip(groups, ref_groups):
            if not grp.protected:
                scores = l1_importance(g, grp)
                assert scores.tobytes() == reference.l1_importance(g, ref_grp).tobytes()
        plan = build_plan(g, fraction, groups)
        ref_plan = reference.build_plan(g, fraction, ref_groups)
        assert plan.removals == ref_plan.removals
        self.assert_same_weights(apply_prune(g, plan, groups),
                                 reference.apply_prune(g, ref_plan, ref_groups))
        self.assert_same_weights(zero_embed_oracle(g, plan, groups),
                                 reference.zero_embed_oracle(g, ref_plan, ref_groups))

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("fraction", [0.25, 0.5])
    def test_presets(self, preset, fraction):
        self.assert_same_path(build_mini_net(preset, (1, 3, 64, 64), 3, seed=7), fraction)

    def test_unevenly_replicated_group(self):
        self.assert_same_path(uneven_replication_graph(), 0.5)

    @settings(max_examples=100, deadline=None)
    @given(primitive_graphs(), st.sampled_from([0.25, 0.5]))
    def test_generated_primitive_graphs(self, g, fraction):
        self.assert_same_path(g, fraction)


class TestRatio:
    # (slim parameter count, published ratio label), dense baseline 2.78M
    TABLE = [
        (876_859, 68.5), (1_243_853, 55.3), (1_683_879, 39.5),
        (1_931_397, 30.6), (2_196_937, 21.1), (2_459_176, 11.6),
    ]

    @pytest.mark.parametrize("slim,label", TABLE)
    def test_published_ratio_rows_within_half_point(self, slim, label):
        assert abs(ratio_percent(2_780_000, slim) - label) <= 0.5

    def test_equal_counts_zero(self):
        assert achieved_ratio(1000, 1000) == 0.0

    def test_slim_larger_than_dense_rejected(self):
        with pytest.raises(PlanError):
            achieved_ratio(10, 20)

    def test_monotone_shrinkage(self):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        dense = count_params(g)
        ratios = []
        for f in (0.0, 0.1, 0.3, 0.5):
            slim = apply_prune(g, build_plan(g, f))
            ratios.append(achieved_ratio(dense, count_params(slim)))
        assert ratios == sorted(ratios)
        assert ratios[0] == 0.0 and ratios[-1] > 0.3


class TestPlanFile:
    def test_roundtrip(self, tmp_path):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        plan = build_plan(g, 0.25, epoch_trigger=40)
        path = tmp_path / "plan.txt"
        write_plan(plan, path)
        back = read_plan(path)
        assert back.removals == plan.removals
        assert back.channel_fraction == plan.channel_fraction
        assert back.epoch_trigger == 40

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("group g000 delete 1,2\n")
        with pytest.raises(PlanError, match="malformed"):
            read_plan(path)

    @pytest.mark.parametrize("line", ["group g000 remove 1,a", "group g000 remove 1,,2",
                                      "fraction abc", "epoch x", "epoch", "fraction 0.5 0.6",
                                      "remove 1"])
    def test_unparsable_line_rejected_naming_it(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"# slimgraph prune plan v1\n{line}\n")
        with pytest.raises(PlanError, match="malformed") as info:
            read_plan(path)
        assert line in str(info.value)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"group g000 remove \xff\n")
        with pytest.raises(PlanError, match="UTF-8"):
            read_plan(path)

    TOKENS = st.sampled_from(["fraction", "epoch", "group", "remove", "g003.s1.conv",
                              "0.5", "-3", "1,2", "1,a", ",", "#", "nan", "1e999"])

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.lists(TOKENS | st.text(max_size=6), max_size=5).map(" ".join),
                    max_size=6).map("\n".join))
    def test_fuzzed_text_raises_only_plan_error(self, tmp_path, text):
        path = tmp_path / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        try:
            plan = read_plan(path)
        except PlanError:
            return
        assert all(isinstance(i, int) for idxs in plan.removals.values() for i in idxs)
