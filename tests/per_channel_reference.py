"""Per-channel reference for channel-group resolution and structured removal.

This is the original formulation, kept as an independent oracle: a union-find
over every individual (node, side, port, channel) instance, and a pruner that
looks each instance up in a channel -> class map. The library resolves whole
port segments and prunes from per-port index arrays instead; the equivalence
tests require both to agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from slimgraph.depgraph import ChannelSlot
from slimgraph.graph import infer_shapes
from slimgraph.pruner import PrunePlan, select_channels

# kinds whose output channel k is their input channel k; written out here, not
# read from the library's kind table, so the reference stays independent
CHANNEL_TRANSPARENT = frozenset({
    "batchnorm", "activation", "maxpool", "gap", "addconst", "scale", "fakequant",
})


@dataclass
class RefGroup:
    gid: str
    length: int
    protected: bool
    kind: str
    classes: list      # per local index: sorted tuple of member instances
    slots: list        # list[ChannelSlot]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _enumerate_instances(graph, shapes):
    index, order = {}, []
    for nid in graph.topo_order():
        n = graph.node(nid)
        for i, (src, sp) in enumerate(n.inputs):
            for ch in range(shapes[(src, sp)][1]):
                index[(nid, "in", i, ch)] = len(order)
                order.append((nid, "in", i, ch))
        for p in range(n.n_out_ports()):
            for ch in range(shapes[(nid, p)][1]):
                index[(nid, "out", p, ch)] = len(order)
                order.append((nid, "out", p, ch))
    return index, order


def resolve_groups(graph) -> list[RefGroup]:
    """Partition every channel instance of the graph into coupled groups."""
    shapes = infer_shapes(graph)
    index, order = _enumerate_instances(graph, shapes)
    uf = _UnionFind(len(order))

    def join(a, b):
        uf.union(index[a], index[b])

    for nid in graph.topo_order():
        n = graph.node(nid)
        in_chans = [shapes[(src, sp)][1] for (src, sp) in n.inputs]
        for i, (src, sp) in enumerate(n.inputs):
            for ch in range(in_chans[i]):
                join((nid, "in", i, ch), (src, "out", sp, ch))
        if n.kind in ("conv", "linear", "input", "output"):
            continue
        if n.kind in CHANNEL_TRANSPARENT:
            for ch in range(in_chans[0]):
                join((nid, "in", 0, ch), (nid, "out", 0, ch))
        elif n.kind in ("add", "mul"):
            for ch in range(in_chans[0]):
                for i in range(1, len(n.inputs)):
                    join((nid, "in", 0, ch), (nid, "in", i, ch))
                join((nid, "in", 0, ch), (nid, "out", 0, ch))
        elif n.kind == "concat":
            off = 0
            for i, c in enumerate(in_chans):
                for ch in range(c):
                    join((nid, "in", i, ch), (nid, "out", 0, off + ch))
                off += c
        elif n.kind == "split":
            off = 0
            for p, size in enumerate(n.attrs["sizes"]):
                for ch in range(size):
                    join((nid, "out", p, ch), (nid, "in", 0, off + ch))
                off += size
        else:
            raise AssertionError(f"no coupling rule for kind {n.kind!r}")

    members = {}
    for inst, idx in index.items():
        members.setdefault(uf.find(idx), []).append(inst)
    classes = [tuple(sorted(v)) for v in members.values()]

    def class_protected(cls):
        return any(graph.node(n).protected or graph.node(n).kind in ("input", "output")
                   for (n, _, _, _) in cls)

    buckets = {}
    for cls in classes:
        sig = tuple(sorted({(n, s, p) for (n, s, p, _) in cls}))
        buckets.setdefault(sig, []).append(cls)

    groups = []
    for sig, bucket in buckets.items():
        bucket.sort(key=lambda cls: cls[0])
        slots = _derive_slots(bucket)
        groups.append((bucket[0][0], RefGroup(
            gid="", length=len(bucket), protected=any(class_protected(c) for c in bucket),
            kind=_group_kind(graph, sig, bucket, slots), classes=bucket, slots=slots)))
    groups.sort(key=lambda t: t[0])
    for i, (anchor, g) in enumerate(groups):
        g.gid = f"g{i:03d}.{anchor[0]}"
    return [g for _, g in groups]


def _derive_slots(bucket):
    per_port = {}
    for cls in bucket:
        for (n, s, p, ch) in cls:
            per_port.setdefault((n, s, p), []).append(ch)
    slots = []
    for (n, s, p), chans in sorted(per_port.items()):
        chans.sort()
        start = prev = chans[0]
        for ch in chans[1:]:
            if ch == prev + 1:
                prev = ch
                continue
            slots.append(ChannelSlot(n, s, p, start, prev - start + 1))
            start = prev = ch
        slots.append(ChannelSlot(n, s, p, start, prev - start + 1))
    return slots


def _group_kind(graph, sig, bucket, slots):
    counts = {}
    for (n, s, p, _) in bucket[0]:
        counts[(n, s, p)] = counts.get((n, s, p), 0) + 1
    if any(c >= 2 for c in counts.values()):
        return "sppf-replicated"
    kinds = {graph.node(n).kind for (n, _, _) in sig}
    if "add" in kinds or "mul" in kinds:
        return "residual"
    if any(graph.node(n).kind == "split" and s == "out" for (n, s, _) in sig):
        return "split-half"
    for slot in slots:
        if slot.side == "in" and slot.offset > 0 and graph.node(slot.node).kind in ("conv", "linear"):
            return "concat-segment"
    return "plain"


# ---------------------------------------------------------------------------
# per-channel pruning
# ---------------------------------------------------------------------------

def l1_importance(graph, group) -> np.ndarray:
    scores = np.zeros(group.length, dtype=np.float64)
    for li, cls in enumerate(group.classes):
        for (nid, side, _, ch) in cls:
            n = graph.node(nid)
            if side == "out" and n.kind in ("conv", "linear"):
                scores[li] += np.abs(n.params["weight"][ch]).sum(dtype=np.float64)
    return scores


def build_plan(graph, fraction, groups) -> PrunePlan:
    plan = PrunePlan(channel_fraction=fraction)
    for g in groups:
        if not g.protected:
            removal = select_channels(l1_importance(graph, g), fraction)
            if removal:
                plan.removals[g.gid] = removal
    return plan


def _removed_classes(groups, removals) -> set:
    by_gid = {g.gid: g for g in groups}
    return {by_gid[gid].classes[i] for gid, idxs in removals.items() for i in idxs}


def _member_of(groups) -> dict:
    return {inst: cls for g in groups for cls in g.classes for inst in cls}


def apply_prune(graph, plan, groups):
    """Slim graph built from a channel -> class lookup of every instance."""
    shapes = infer_shapes(graph)
    removed = _removed_classes(groups, plan.removals)
    member_of = _member_of(groups)

    def keep(nid, side, port, width):
        return [ch for ch in range(width) if member_of[(nid, side, port, ch)] not in removed]

    slim = graph.clone(copy_params=False)
    for nid, n in slim.nodes.items():
        out_width = shapes[(nid, 0)][1]
        if n.kind in ("conv", "linear"):
            rows = keep(nid, "out", 0, out_width)
            cols = keep(nid, "in", 0, shapes[n.inputs[0]][1])
            n.params = dict(n.params)
            n.params["weight"] = np.ascontiguousarray(n.params["weight"][np.ix_(rows, cols)])
            if "bias" in n.params:
                n.params["bias"] = n.params["bias"][rows].copy()
        elif n.kind in ("batchnorm", "scale"):
            chans = keep(nid, "out", 0, out_width)
            n.params = {name: arr[chans].copy() for name, arr in n.params.items()}
        elif n.kind == "split":
            n.attrs = dict(n.attrs)
            n.attrs["sizes"] = [len(keep(nid, "out", p, size))
                                for p, size in enumerate(n.attrs["sizes"])]
        else:
            n.params = {name: arr.copy() for name, arr in n.params.items()}
    if plan.removals:
        slim.meta["stage"] = "pruned"
    return slim


def zero_embed_oracle(graph, plan, groups):
    """Dense copy with every removed consumer input column zeroed, class by class."""
    dense = graph.clone(copy_params=True)
    for cls in _removed_classes(groups, plan.removals):
        for (nid, side, _, ch) in cls:
            n = dense.node(nid)
            if side == "in" and n.kind in ("conv", "linear"):
                n.params["weight"][:, ch] = 0.0
    return dense


def predict_removed_params(graph, groups, removals: dict) -> int:
    """Exact parameter count removed by a plan, via per-node surviving widths.

    Independent per-group marginal costs overcount when a conv loses rows and
    columns in the same plan, so the prediction works from surviving channel
    counts per port instead.
    """
    removed = _removed_classes(groups, removals)
    member_of = _member_of(groups)

    def kept(nid, side, total):
        return sum(1 for ch in range(total) if member_of[(nid, side, 0, ch)] not in removed)

    count = 0
    for n in graph.nodes.values():
        if n.kind in ("conv", "linear"):
            w = n.params["weight"]
            out_c, in_c = w.shape[:2]
            taps = int(np.prod(w.shape[2:]))
            ko, ki = kept(n.id, "out", out_c), kept(n.id, "in", in_c)
            count += (out_c * in_c - ko * ki) * taps
            if "bias" in n.params:
                count += out_c - ko
        elif n.kind == "batchnorm":
            c = len(n.params["gamma"])
            count += 2 * (c - kept(n.id, "out", c))
        elif n.kind == "scale":
            c = len(n.params["scale"])
            count += c - kept(n.id, "out", c)
    return count
