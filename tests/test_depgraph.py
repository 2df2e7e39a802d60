"""Channel-group resolution: coupling rules, partition, costs."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import group_reference
import per_channel_reference as reference
from conftest import (FRAGMENTS, assert_same_bits, chain_graph, concat_segment_graph,
                      fragment_graph, preset_graph, primitive_graphs, residual_graph,
                      two_component_graph, uneven_replication_graph, uneven_weighted_graph)
from slimgraph import (build_fragment, build_mini_net, depgraph, forward_arrays, infer_shapes,
                       resolve_groups)
from slimgraph.builders import PRESETS
from slimgraph.depgraph import ChannelGroup, ChannelSlot, _make_group, format_groups, group_cost
from slimgraph.graph import Graph
from slimgraph.metrics import count_params
from slimgraph.pruner import PrunePlan, apply_prune, build_plan, zero_embed_oracle


def groups_by_slot(groups):
    """(node, side, port, channel) -> group, for direct membership queries."""
    idx = {}
    for g in groups:
        for li, cls in enumerate(g.classes):
            for inst in cls:
                idx[inst] = (g, li)
    return idx


def total_slots(graph):
    shapes = infer_shapes(graph)
    n_slots = 0
    for nid in graph.topo_order():
        n = graph.node(nid)
        for i, (src, sp) in enumerate(n.inputs):
            n_slots += shapes[(src, sp)][1]
        for p in range(n.n_out_ports()):
            n_slots += shapes[(nid, p)][1]
    return n_slots


class TestResolutionRules:
    def test_chain_conv_bn_conv_single_free_group(self):
        g = chain_graph()
        groups = resolve_groups(g)
        free = [gr for gr in groups if not gr.protected]
        # the 8-wide middle group couples conv out, bn params, consumer input
        mid = next(gr for gr in free if gr.length == 8)
        nodes = {n for cls in mid.classes for (n, _, _, _) in cls}
        assert "blk.conv" in nodes and "blk.bn" in nodes and "head" in nodes
        # the 3-channel image group is protected
        img = next(gr for gr in groups if gr.length == 3 and gr.protected)
        assert any(n == "image" for cls in img.classes for (n, _, _, _) in cls)

    def test_residual_merges_producer_groups(self):
        g = residual_graph()
        groups = resolve_groups(g)
        idx = groups_by_slot(groups)
        a = idx[("stem.conv", "out", 0, 0)][0]
        b = idx[("f.conv", "out", 0, 0)][0]
        assert a is b and a.kind == "residual"

    def test_sppf_replicated_indices(self):
        g = build_fragment("sppf", (1, 16, 8, 8), cout=16, pool_k=5)
        groups = resolve_groups(g)
        idx = groups_by_slot(groups)
        h = 8
        cv2 = next(nid for nid in g.nodes if nid.endswith("cv2.conv"))
        for j in (0, 3, 7):
            grp, li = idx[(next(nid for nid in g.nodes if nid.endswith("cv1.conv")), "out", 0, j)]
            assert grp.kind == "sppf-replicated"
            cols = sorted(ch for (n, s, p, ch) in grp.classes[li]
                          if n == cv2 and s == "in")
            assert cols == [j, h + j, 2 * h + j, 3 * h + j]

    def test_split_halves_are_distinct_groups(self):
        g = build_fragment("c3k2", (1, 8, 8, 8), cout=8, n=1, shortcut=True)
        groups = resolve_groups(g)
        idx = groups_by_slot(groups)
        cv1 = next(nid for nid in g.nodes if nid.endswith("cv1.conv") and nid.startswith("c3k2.cv1"))
        ga = idx[(cv1, "out", 0, 0)][0]   # passthrough half
        gb = idx[(cv1, "out", 0, 4)][0]   # processed half
        assert ga is not gb
        assert ga.length == gb.length == 4

    def test_spab_gate_ties_c3r_to_block_input(self):
        g = build_fragment("spab", (1, 8, 8, 8))
        groups = resolve_groups(g)
        idx = groups_by_slot(groups)
        g_in = idx[("image", "out", 0, 0)][0]
        g_c3 = idx[("spab.c3_r.conv", "out", 0, 0)][0]
        g_c1 = idx[("spab.c1_r.conv", "out", 0, 0)][0]
        g_c2 = idx[("spab.c2_r.conv", "out", 0, 0)][0]
        assert g_c3 is g_in            # modulation/residual tie
        assert g_c1 is not g_in and g_c2 is not g_in and g_c1 is not g_c2

    def test_a2c2f_residual_ties_cv2_through_gamma(self):
        g = build_fragment("a2c2f", (1, 8, 4, 4), cout=8, n=1, residual=True)
        groups = resolve_groups(g)
        idx = groups_by_slot(groups)
        assert idx[("a2c2f.cv2.conv", "out", 0, 0)][0] is idx[("image", "out", 0, 0)][0]

    def test_partition_covers_every_slot_exactly_once(self):
        for preset in PRESETS:
            g = build_mini_net(preset, (1, 3, 64, 64), 3, seed=0)
            groups = resolve_groups(g)
            seen = {}
            for gr in groups:
                for cls in gr.classes:
                    for inst in cls:
                        seen[inst] = seen.get(inst, 0) + 1
            assert len(seen) == total_slots(g)
            assert all(v == 1 for v in seen.values())

    def test_concat_segments_tile_without_gap_or_overlap(self):
        g = build_mini_net("ecoweed_mini", (1, 3, 64, 64), 3, seed=0)
        shapes = infer_shapes(g)
        groups = resolve_groups(g)
        idx = groups_by_slot(groups)
        for n in g.nodes.values():
            if n.kind != "concat":
                continue
            off = 0
            for i, (src, sp) in enumerate(n.inputs):
                c = shapes[(src, sp)][1]
                for ch in range(c):
                    # segment channel and its producer channel share a class
                    assert idx[(n.id, "in", i, ch)] == idx[(n.id, "out", 0, off + ch)]
                off += c
            assert off == shapes[(n.id, 0)][1]

    def test_add_producers_share_group(self):
        g = build_mini_net("y12_mini", (1, 3, 64, 64), 3, seed=0)
        groups = resolve_groups(g)
        idx = groups_by_slot(groups)
        for n in g.nodes.values():
            if n.kind != "add":
                continue
            base = idx[(n.id, "in", 0, 0)][0]
            for i in range(1, len(n.inputs)):
                assert idx[(n.id, "in", i, 0)][0] is base

    def test_idempotent_resolution(self):
        g = build_mini_net("ecoweed_mini", (1, 3, 64, 64), 3, seed=0)
        a = resolve_groups(g)
        b = resolve_groups(g)
        assert [(x.gid, x.length, x.kind, x.protected) for x in a] == \
               [(x.gid, x.length, x.kind, x.protected) for x in b]
        assert [x.classes for x in a] == [x.classes for x in b]

    def test_detect_head_and_outputs_protected(self):
        g = build_mini_net("ecoweed_mini", (1, 3, 64, 64), 3, seed=0)
        groups = resolve_groups(g)
        idx = groups_by_slot(groups)
        for n in g.nodes.values():
            if n.protected and n.kind == "conv":
                grp, _ = idx[(n.id, "out", 0, 0)]
                assert grp.protected
                grp_in, _ = idx[(n.id, "in", 0, 0)]
                assert grp_in.protected  # input slices of the head too


def group_fields(groups):
    return [(g.gid, g.length, g.protected, g.kind, g.classes, g.slots) for g in groups]


def fragment(module, width, n=1):
    kwargs = {} if module == "spab" else {"cout": width}
    if module in ("c3k2", "c2psa", "a2c2f"):
        kwargs["n"] = n
    return build_fragment(module, (1, width, 8, 8), seed=width, **kwargs)


FRAGMENT_MODULES = ("conv_block", "c3k2", "c2psa", "sppf", "spab", "a2c2f")


class TestSegmentResolutionMatchesPerChannel:
    """The segment-level resolver against the per-channel union-find reference."""

    @pytest.mark.parametrize("preset", PRESETS)
    def test_presets(self, preset):
        g = build_mini_net(preset, (1, 3, 64, 64), 3, seed=0)
        assert group_fields(resolve_groups(g)) == group_fields(reference.resolve_groups(g))

    @pytest.mark.parametrize("module", FRAGMENT_MODULES)
    @pytest.mark.parametrize("width", [8, 64, 256])
    def test_fragments(self, module, width):
        g = fragment(module, width)
        assert group_fields(resolve_groups(g)) == group_fields(reference.resolve_groups(g))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(FRAGMENT_MODULES), st.integers(1, 24).map(lambda h: 2 * h),
           st.integers(0, 3))
    def test_generated_fragments(self, module, width, n):
        g = fragment(module, width, n)
        assert group_fields(resolve_groups(g)) == group_fields(reference.resolve_groups(g))

    @settings(max_examples=150, deadline=None)
    @given(primitive_graphs())
    def test_generated_primitive_graphs(self, g):
        assert group_fields(resolve_groups(g)) == group_fields(reference.resolve_groups(g))

    def test_index_arrays_give_each_class_its_channels(self):
        g = build_fragment("sppf", (1, 16, 8, 8), cout=16, pool_k=5)
        rep = next(gr for gr in resolve_groups(g) if gr.kind == "sppf-replicated")
        cv2_in = next(port for port in rep.index if port[0].endswith("cv2.conv"))
        local, chans = rep.index[cv2_in]
        assert chans[local == 3].tolist() == [3, 11, 19, 27]

    def test_uneven_replication_within_one_group(self):
        g = uneven_replication_graph()
        groups = resolve_groups(g)
        assert group_fields(groups) == group_fields(reference.resolve_groups(g))
        stem = next(gr for gr in groups if ("stem", "out", 0) in gr.index)
        assert [sum(1 for m in cls if m[:3] == ("split", "out", 0)) for cls in stem.classes] == [1, 2]
        assert stem.index[("stem", "out", 0)][1].tolist() == [1, 0]


def group_record(groups):
    """Every field of every group; each port's index arrays in key order, with dtypes."""
    return [(g.gid, g.kind, g.length, g.protected, g.slots,
             [(port, local.dtype, local.tolist(), chans.dtype, chans.tolist())
              for port, (local, chans) in g.index.items()]) for g in groups]


# the compress benchmark's graphs, and each preset with quantizers and pruned at 0.5
CORPUS = ([f"{p}-{v}" for p in PRESETS for v in ("plain", "calibrated", "pruned")]
          + [f"{m}@{w}" for m, w in FRAGMENTS])


def corpus_graph(name):
    module, _, width = name.partition("@")
    if width:
        return fragment_graph(module, int(width))
    if name.endswith("-pruned"):
        g = preset_graph(name.replace("-pruned", "-plain"))
        return apply_prune(g, build_plan(g, 0.5))
    return preset_graph(name)


class TestGroupAssemblyMatchesOracle:
    """Groups against ``group_reference``, which assembles every port from scratch."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus(self, name):
        g = corpus_graph(name)
        assert group_record(resolve_groups(g)) == group_record(group_reference.resolve_groups(g))

    def test_corpus_holds_a_replicated_port(self):
        # a local index with several channels on one port: the general path runs
        assert any(len(np.unique(local)) < len(local)
                   for name in CORPUS for g in resolve_groups(corpus_graph(name))
                   for local, _ in g.index.values())

    @settings(max_examples=200, deadline=None)
    @given(primitive_graphs())
    def test_generated_primitive_graphs(self, g):
        assert group_record(resolve_groups(g)) == group_record(group_reference.resolve_groups(g))

    @pytest.mark.parametrize("bucket", [
        [(0, 2, {"a": [0], "b": [3]}), (2, 1, {"a": [2], "b": [0, 5]})],
        [(0, 1, {"a": [0, 4], "b": [1]}), (1, 2, {"a": [1, 5], "b": [2]})],
    ])
    def test_two_component_bucket(self, bucket):
        # buckets whose components replicate unevenly across a port, built by hand
        g = uneven_replication_graph()
        ports = {"a": ("join", "in", 0), "b": ("split", "out", 0)}
        bucket = [(anchor, n, {ports[k]: s for k, s in starts.items()})
                  for anchor, n, starts in bucket]
        sig = tuple(sorted(ports.values()))
        assert (group_record([_make_group(g, sig, bucket)])
                == group_record([group_reference.make_group(g, sig, bucket)]))

    @pytest.mark.parametrize("name", CORPUS)
    def test_identity_ports_share_the_local_array(self, name, monkeypatch):
        # a port of a one-component group with one segment at channel 0 maps channel k
        # to local index k: its channel array is the local array, which refuses writes
        g = corpus_graph(name)
        made = []

        def spy(graph, sig, bucket):
            made.append((bucket, _make_group(graph, sig, bucket)))
            return made[-1][1]
        monkeypatch.setattr(depgraph, "_make_group", spy)
        resolve_groups(g)
        identity = [group.index[port] for bucket, group in made if len(bucket) == 1
                    for port, starts in bucket[0][2].items() if starts == [0]]
        assert identity
        for local, chans in identity:
            assert chans is local
            with pytest.raises(ValueError, match="read-only"):
                chans[0] = 1

    def test_shared_index_arrays_refuse_writes(self):
        groups = resolve_groups(preset_graph("ecoweed_mini-plain"))
        shared = [a for g in groups for (a, _), (b, _) in
                  zip(g.index.values(), list(g.index.values())[1:]) if a is b]
        assert shared
        with pytest.raises(ValueError, match="read-only"):
            shared[0][0] = 1


def assert_index_runs_by_local_then_channel(groups):
    for g in groups:
        for port, (local, chans) in g.index.items():
            pairs = list(zip(local.tolist(), chans.tolist()))
            assert pairs == sorted(pairs), (g.gid, port)
            assert len(set(chans.tolist())) == len(chans), (g.gid, port)


class TestIndexClaims:
    """The ``ChannelGroup`` and module docstrings' claims on the index and the union-find."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_entries_run_by_local_then_channel_with_no_repeat(self, name):
        assert_index_runs_by_local_then_channel(resolve_groups(corpus_graph(name)))

    @settings(max_examples=100, deadline=None)
    @given(primitive_graphs())
    def test_generated_primitive_graphs(self, g):
        assert_index_runs_by_local_then_channel(resolve_groups(g))

    @pytest.mark.parametrize("module,segments",
                             [("c3k2", 44), ("sppf", 32), ("c2psa", 40), ("a2c2f", 31), ("spab", 31)])
    def test_union_find_does_not_grow_with_width(self, module, segments, monkeypatch):
        sizes = []
        init = depgraph._UnionFind.__init__

        def spy(uf, n):
            sizes.append(n)
            init(uf, n)
        monkeypatch.setattr(depgraph._UnionFind, "__init__", spy)
        for width in (64, 128, 256):
            resolve_groups(fragment_graph(module, width))
        assert sizes == [segments] * 3


def test_resolve_sorts_the_graph_once(monkeypatch):
    # the coupling rules take their node order from infer_shapes' result
    g = preset_graph("ecoweed_mini-plain")
    calls = []
    topo_order = Graph.topo_order

    def spy(graph):
        calls.append(graph)
        return topo_order(graph)
    monkeypatch.setattr(Graph, "topo_order", spy)
    resolve_groups(g)
    assert calls == [g]


class TestTwoComponentGroup:
    """``two_component_graph``: one free group aligned from two components, through
    ``resolve_groups``."""

    def test_group_is_aligned_from_components_of_length_1_and_3(self, monkeypatch):
        lengths = []

        def spy(graph, sig, bucket):
            lengths.append([n for _, n, _ in bucket])
            return _make_group(graph, sig, bucket)
        monkeypatch.setattr(depgraph, "_make_group", spy)
        groups = resolve_groups(two_component_graph())
        free = [(g.gid, g.length) for g in groups if not g.protected]
        assert free == [("g000.cat", 4)]
        assert [n for n in lengths if len(n) > 1] == [[1, 3]]

    def test_groups_match_both_references(self):
        g = two_component_graph()
        groups = resolve_groups(g)
        assert group_fields(groups) == group_fields(reference.resolve_groups(g))
        assert group_record(groups) == group_record(group_reference.resolve_groups(g))

    def test_prune_at_half_equals_the_zero_embedding(self):
        g = two_component_graph()
        groups = resolve_groups(g)
        plan = build_plan(g, 0.5, groups)
        assert [(gid, len(r)) for gid, r in plan.removals.items()] == [("g000.cat", 2)]
        slim = apply_prune(g, plan, groups)
        assert (count_params(g), count_params(slim)) == (30, 16)
        embedded = zero_embed_oracle(g, plan, groups)
        x = np.random.default_rng(0).normal(0.5, 0.3, (2, 3, 4, 4)).astype(np.float32)
        want, got = forward_arrays(embedded, x), forward_arrays(slim, x)
        assert want.keys() == got.keys() == {"out", "out.1"}
        for k in want:
            assert_same_bits(got[k], want[k], k)


class TestConcatSegmentGroup:
    """``concat_segment_graph``: the ``concat-segment`` kind on a fixed graph (no preset
    or fragment yields one)."""

    def test_second_producer_takes_a_concat_segment(self):
        groups = resolve_groups(concat_segment_graph())
        producers = {n: g.kind for g in groups for (n, side, _) in g.index
                     if side == "out" and n.startswith("conv")}
        assert producers == {"conv": "plain", "conv.1": "concat-segment", "conv.2": "plain"}
        free = {g.kind: g.length for g in groups if not g.protected}
        assert free == {"plain": 4, "concat-segment": 6}

    def test_groups_match_both_references(self):
        """Kinds included: ``per_channel_reference`` labels them on its own."""
        g = concat_segment_graph()
        groups = resolve_groups(g)
        assert group_fields(groups) == group_fields(reference.resolve_groups(g))
        assert group_record(groups) == group_record(group_reference.resolve_groups(g))


class TestGroupCost:
    def test_chain_middle_group_costs_66(self):
        g = chain_graph()
        groups = resolve_groups(g)
        mid = next(gr for gr in groups if not gr.protected and gr.length == 8)
        cost = group_cost(g, mid)
        # producer row 3*9 + bias 1 + bn pair 2 + consumer columns 4*9
        assert cost.dtype == np.int64
        assert cost.tolist() == [27 + 1 + 2 + 36] * 8 == [66] * 8

    def test_protected_group_cost_reported_but_removal_forbidden(self):
        g = chain_graph()
        groups = resolve_groups(g)
        img = next(gr for gr in groups if gr.protected and gr.length == 3)
        assert (group_cost(g, img) > 0).all()
        from slimgraph.errors import PlanError
        from slimgraph.pruner import validate_plan
        with pytest.raises(PlanError, match="protected"):
            validate_plan(groups, PrunePlan(removals={img.gid: (0,)}))

    def test_sppf_consumer_cost_multiplied_by_four(self):
        g = build_fragment("sppf", (1, 16, 8, 8), cout=16, pool_k=5)
        groups = resolve_groups(g)
        rep = next(gr for gr in groups if gr.kind == "sppf-replicated")
        cost = group_cost(g, rep)
        # cv1 row (16 in, k1) + bias + bn + cv1's bn, then 4 cv2 columns (16 out, k1)
        assert cost.tolist() == [(16 + 1 + 2) + 4 * 16] * rep.length

    def test_exact_accounting_on_presets(self):
        for preset in PRESETS:
            g = build_mini_net(preset, (1, 3, 64, 64), 3, seed=1)
            groups = resolve_groups(g)
            for frac in (0.2, 0.45):
                plan = build_plan(g, frac, groups)
                slim = apply_prune(g, plan, groups)
                predicted = reference.predict_removed_params(g, groups, plan.removals)
                assert count_params(g) - predicted == count_params(slim)

    def test_single_group_removal_matches_marginal_cost(self):
        # with only one group pruned there is no row/column interaction, so
        # the naive removed = count * cost_per_channel is exact
        g = chain_graph()
        groups = resolve_groups(g)
        mid = next(gr for gr in groups if not gr.protected and gr.length == 8)
        plan = PrunePlan(removals={mid.gid: (1, 5)})
        slim = apply_prune(g, plan, groups)
        assert count_params(g) - group_cost(g, mid)[[1, 5]].sum() == count_params(slim)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_cost_equals_removing_one_channel(self, preset):
        # independent oracle: prune local index 0 alone and count what went away
        g = build_mini_net(preset, (1, 3, 64, 64), 3, seed=1)
        groups = resolve_groups(g)
        for gr in groups:
            if gr.protected or gr.length < 2:
                continue
            slim = apply_prune(g, PrunePlan({gr.gid: (0,)}), groups)
            assert group_cost(g, gr)[0] == count_params(g) - count_params(slim), gr.gid

    def test_uneven_classes_cost_apart(self):
        g = uneven_weighted_graph()
        stem = next(gr for gr in resolve_groups(g) if ("stem", "out", 0) in gr.index)
        assert not stem.protected and sorted(group_cost(g, stem).tolist()) == [17, 18]
        assert f"{stem.gid} kind=sppf-replicated len=2 free params/ch=17..18\n" in format_groups(g)

    @pytest.mark.parametrize("name", ["uneven_weighted"]
                             + [f"{p}-{v}" for p in PRESETS for v in ("plain", "calibrated", "pruned")])
    def test_every_class_costs_what_pruning_it_alone_removes(self, name):
        assert_costs_match_one_class_prunes(
            uneven_weighted_graph() if name == "uneven_weighted" else corpus_graph(name))

    @settings(max_examples=100, deadline=None)
    @given(primitive_graphs())
    def test_generated_primitive_graphs(self, g):
        assert_costs_match_one_class_prunes(g)


def assert_costs_match_one_class_prunes(g):
    """Each class of each free group of length >= 2 costs what pruning it alone removes."""
    groups = resolve_groups(g)
    dense = count_params(g)
    for gr in groups:
        if gr.protected or gr.length < 2:
            continue
        cost = group_cost(g, gr)
        assert cost.dtype == np.int64 and cost.shape == (gr.length,), gr.gid
        for li in range(gr.length):
            slim = apply_prune(g, PrunePlan({gr.gid: (li,)}), groups)
            assert cost[li] == dense - count_params(slim), (gr.gid, li)


class TestDump:
    def test_slots_are_the_runs_of_each_ports_channels(self):
        # channels 0-1, 3 and 5-7 of one port, listed by local index as in a pyramid
        rep = (np.array([0, 0, 1, 1, 2, 2]), np.array([0, 5, 1, 6, 3, 7]))
        group = ChannelGroup(gid="g000.a", length=3, protected=False, kind="sppf-replicated",
                             index={("a", "in", 0): rep, ("b", "out", 1): (np.arange(3), np.arange(2, 5))})
        assert group.slots == [ChannelSlot("a", "in", 0, 0, 2), ChannelSlot("a", "in", 0, 3, 1),
                               ChannelSlot("a", "in", 0, 5, 3), ChannelSlot("b", "out", 1, 2, 3)]
        assert {type(v) for s in group.slots for v in (s.port, s.offset, s.length)} == {int}

    def test_format_groups_lists_every_group(self):
        g = build_fragment("sppf", (1, 8, 8, 8), cout=8, pool_k=3)
        groups = resolve_groups(g)
        text = format_groups(g, groups)
        for gr in groups:
            assert gr.gid in text
        assert "sppf-replicated" in text


# the hand graphs that hold the kinds no preset does
HAND_GRAPHS = {"concat_segment": concat_segment_graph, "two_component": two_component_graph,
               "uneven_replication": uneven_replication_graph}
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_GROUPS = [f"{p}-{v}" for p in PRESETS for v in ("plain", "pruned")] + list(HAND_GRAPHS)


class TestGoldenDumps:
    """``format_groups`` of each preset, plain and pruned at 0.5, and of each hand graph,
    pinned byte for byte in ``tests/golden/<name>.groups.txt``."""

    @pytest.mark.parametrize("name", GOLDEN_GROUPS)
    def test_dump_matches_the_golden(self, name):
        g = HAND_GRAPHS[name]() if name in HAND_GRAPHS else corpus_graph(name)
        assert format_groups(g).encode() == (GOLDEN / f"{name}.groups.txt").read_bytes()

    def test_goldens_hold_every_kind(self):
        kinds = {line.split()[1] for name in GOLDEN_GROUPS
                 for line in (GOLDEN / f"{name}.groups.txt").read_text().splitlines()
                 if not line.startswith(" ")}
        assert kinds == {f"kind={k}" for k in ("plain", "residual", "concat-segment",
                                               "split-half", "sppf-replicated")}
