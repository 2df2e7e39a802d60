"""Resolution of coupled channel groups across a graph.

Channels that must share one pruning decision are found on port segments,
not on single channels. Every coupling rule ties a contiguous channel range
of one port to an equally long range of another, channel k to channel k:

wires tie a consumer input port to its producer output port, and each node
kind's ``coupling`` rule in :data:`slimgraph.kinds.SPECS` ties its own ports
(decouple, through, tie-all, concat or split).

Resolution cuts every port at the ends of the ranges its rules tie, carries
each cut across the rules until no new one appears, and then unions whole
segments with a union-find. After the cuts every rule maps whole segments
onto whole segments, so the k-th channels of the segments in one component
form one coupled class. The union-find sees O(ports) segments whatever the
width; only filling the index arrays grows with it, and that is numpy work.

Components touching the same set of ports are aligned into one group, the
component with the smallest anchor channel first. A group holds, per port,
integer arrays pairing each member channel with its local index; pruning
gathers and masks these arrays instead of looking up single channels. An
identity port, a group's one component in one segment that starts at channel
0, holds the group's read-only local array as its channel array, and pruning
takes a plan's indices there as they are.

A group's kind is read by one rule from its ports' node kinds and its
components' segments, never from an index array: ``sppf-replicated`` when
its first component holds several segments on one port (pyramid-pooling
fan-in: a local index with several channels there); else ``residual`` when
an add or mul touches it (gated and scaled residual ties emerge from the
same coupling rules); else ``split-half`` when a split touches it; else
``concat-segment`` when, on a conv or linear input port, its segments'
highest end differs from their total channel count, so its channels there
are not exactly 0..k-1; else ``plain``.

Groups touching the network input, any graph output, or a protected
node (the detection head) are protected and admit only the empty removal set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Graph, infer_shapes
from .kinds import SPECS

Port = tuple[str, str, int]   # (node_id, "in"|"out", port)


@dataclass(frozen=True)
class ChannelSlot:
    """A contiguous channel range on one port that belongs to a group."""
    node: str
    side: str          # "in" | "out"
    port: int
    offset: int
    length: int


@dataclass(eq=False)
class ChannelGroup:
    """Channels that share one pruning decision, addressed by local index.

    ``index`` maps each port the group touches to two equally long int arrays
    ``(local, channel)``: the port's channel ``channel[j]`` belongs to local index
    ``local[j]``. Entries run by local index, then by channel, and no channel
    repeats on a port. Treat the arrays as read-only: ports may share one, and a
    shared one refuses writes. An identity port (the group's one component, in one
    segment starting at channel 0) maps channel k to local index k, and shares the
    array: its ``channel is local``.
    """
    gid: str
    length: int
    protected: bool
    kind: str          # plain | residual | concat-segment | split-half | sppf-replicated
    index: dict        # Port -> (local, channel) int arrays, in sorted port order

    @cached_property
    def slots(self) -> list:
        """Per port in ``index`` order, each maximal run of its channels as a ChannelSlot."""
        ports = ((port, np.sort(chans)) for port, (_, chans) in self.index.items())
        return [ChannelSlot(*port, int(run[0]), len(run)) for port, c in ports
                for run in np.split(c, np.flatnonzero(np.diff(c) != 1) + 1)]

    @cached_property
    def classes(self) -> list:
        """Per local index: the sorted tuple of (node, side, port, channel) members."""
        members = [[] for _ in range(self.length)]
        for (n, s, p), (local, chans) in self.index.items():
            for li, ch in zip(local.tolist(), chans.tolist()):
                members[li].append((n, s, p, ch))
        return [tuple(m) for m in members]


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


def _coupling_rules(graph: Graph, shapes):
    """Port widths, and every tie as (port_a, offset_a, port_b, offset_b, length).

    Nodes come in the topological order that ``infer_shapes`` filled ``shapes`` in,
    so the graph is not sorted a second time."""
    outs_of: dict[str, list] = {}
    for (nid, _), s in shapes.items():
        outs_of.setdefault(nid, []).append(s[1])
    width: dict[Port, int] = {}
    ties = []
    for nid, outs in outs_of.items():
        n = graph.nodes[nid]
        ins = [shapes[ref][1] for ref in n.inputs]
        width.update({(nid, "in", i): w for i, w in enumerate(ins)})
        width.update({(nid, "out", p): w for p, w in enumerate(outs)})
        ties += [((nid, "in", i), 0, (src, "out", sp), 0, w)  # wires
                 for i, ((src, sp), w) in enumerate(zip(n.inputs, ins))]
        ties += [((nid, *a), oa, (nid, *b), ob, k)
                 for a, oa, b, ob, k in SPECS[n.kind].coupling(ins, outs)]
    return width, ties


def _cut_ports(width, ties) -> dict:
    """Sorted segment boundaries per port, closed under carrying cuts across ties."""
    cuts = {port: {0, w} for port, w in width.items()}
    across: dict[Port, list] = {port: [] for port in width}
    for a, oa, b, ob, n in ties:
        across[a].append((oa, b, ob, n))
        across[b].append((ob, a, oa, n))
        cuts[a].update((oa, oa + n))
        cuts[b].update((ob, ob + n))
    # a port's ends lie inside no tie's range, so only inner cuts are carried
    todo = [(port, x) for port, xs in cuts.items() if len(xs) > 2 for x in xs]
    while todo:
        port, x = todo.pop()
        for off, other, other_off, n in across[port]:
            y = other_off + x - off
            if off < x < off + n and y not in cuts[other]:
                cuts[other].add(y)
                todo.append((other, y))
    return {port: sorted(xs) for port, xs in cuts.items()}


def resolve_groups(graph: Graph) -> list[ChannelGroup]:
    """Partition every channel instance of the graph into coupled groups."""
    width, ties = _coupling_rules(graph, infer_shapes(graph))
    cuts = _cut_ports(width, ties)
    seg_id: dict[tuple, int] = {}
    segs = []   # (port, start, length)
    for port, xs in cuts.items():
        for lo, hi in zip(xs, xs[1:]):
            seg_id[(port, lo)] = len(segs)
            segs.append((port, lo, hi - lo))
    uf = _UnionFind(len(segs))
    for a, oa, b, ob, n in ties:
        for lo in cuts[a]:
            if oa <= lo < oa + n:
                uf.union(seg_id[(a, lo)], seg_id[(b, ob + lo - oa)])

    # component -> port -> segment starts, ascending
    comps: dict[int, dict[Port, list[int]]] = {}
    for i, (port, lo, _) in enumerate(segs):
        comps.setdefault(uf.find(i), {}).setdefault(port, []).append(lo)

    # align components whose port signatures match; a component's k-th class
    # has its smallest member at anchor start + k on the smallest port
    buckets: dict[tuple, list] = {}
    for root, starts in comps.items():
        sig = tuple(sorted(starts))
        buckets.setdefault(sig, []).append((starts[sig[0]][0], segs[root][2], starts))

    groups = []
    for sig, bucket in buckets.items():
        bucket.sort(key=lambda comp: comp[0])
        groups.append((sig[0] + (bucket[0][0],), _make_group(graph, sig, bucket)))
    groups.sort(key=lambda t: t[0])
    for i, (anchor, g) in enumerate(groups):
        g.gid = f"g{i:03d}.{anchor[0]}"
    return [g for _, g in groups]


def _make_group(graph: Graph, sig, bucket) -> ChannelGroup:
    lengths = [length for _, length, _ in bucket]
    locals_ = [np.arange(sum(lengths[:i]), sum(lengths[:i + 1])) for i in range(len(lengths))]
    for local in locals_:
        local.flags.writeable = False  # built once per component, shared by its ports
    index = {}
    for port in sig:
        starts = [comp[port] for _, _, comp in bucket]
        if len(starts) == 1 and len(starts[0]) == 1:  # one segment: the local, shifted unless at 0
            start = starts[0][0]
            index[port] = (locals_[0], locals_[0] + start if start else locals_[0])
        else:
            index[port] = (
                np.concatenate([np.repeat(local, len(s)) for local, s in zip(locals_, starts)]),
                np.concatenate([np.add.outer(np.arange(n), s).ravel()
                                for n, s in zip(lengths, starts)]))
    nodes = [graph.nodes[n] for (n, _, _) in sig]
    protected = any(n.protected or n.kind in ("input", "output") for n in nodes)
    return ChannelGroup(gid="", length=sum(lengths), protected=protected,
                        kind=_group_kind([n.kind for n in nodes], sig, bucket), index=index)


def _group_kind(kinds, sig, bucket) -> str:
    """The kind of a group, from ``kinds``, its ports' node kinds in ``sig`` order, and
    the segment starts of each component in ``bucket``, by the module docstring's rule."""
    if any(len(starts) > 1 for starts in bucket[0][2].values()):
        return "sppf-replicated"
    if "add" in kinds or "mul" in kinds:
        return "residual"
    if "split" in kinds:  # a split ties each input channel to one of its outputs
        return "split-half"
    if any(port[1] == "in" and k in ("conv", "linear")
           and max(c[port][-1] + n for _, n, c in bucket)
           != sum(n * len(c[port]) for _, n, c in bucket) for k, port in zip(kinds, sig)):
        return "concat-segment"
    return "plain"


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------

def group_cost(graph: Graph, group: ChannelGroup) -> np.ndarray:
    """Per local index (one int64 each), the trainable entries that removing that
    class alone takes away: every entry one of whose prune axes indexes a removed
    channel, counted once. A class replicated on a port loses each of its channels
    there, so the classes of one group may cost differently.
    """
    cut: dict[str, dict] = {}  # node -> side -> each class's channel count on port 0
    for (nid, side, port), (local, _) in group.index.items():
        if port == 0:  # the one port that weights index
            cut.setdefault(nid, {})[side] = np.bincount(local, minlength=group.length)
    cost = np.zeros(group.length, dtype=np.int64)
    for nid, per_side in cut.items():
        n = graph.node(nid)
        spec = SPECS[n.kind]
        for name in n.params.keys() & spec.trainable:
            arr = n.params[name]  # an axis keeps its width less the class's cut on it
            cost += arr.size - math.prod(d - per_side.get(t, 0)
                                         for d, t in zip(arr.shape, spec.params[name]))
    return cost


# ---------------------------------------------------------------------------
# debug dump
# ---------------------------------------------------------------------------

def format_groups(graph: Graph, groups: list[ChannelGroup] | None = None) -> str:
    """Human-readable group listing for inspection and golden tests.

    Each group's line gives ``params/ch=N`` when every class costs N
    parameters (``group_cost``), and ``params/ch=LO..HI`` otherwise.
    """
    groups = groups or resolve_groups(graph)
    lines = []
    for g in groups:
        cost = group_cost(graph, g)
        lo, hi = int(cost.min()), int(cost.max())
        flag = "protected" if g.protected else "free"
        lines.append(f"{g.gid} kind={g.kind} len={g.length} {flag} "
                     f"params/ch={lo}" + (f"..{hi}" if hi > lo else ""))
        for s in g.slots:
            lines.append(f"  {s.node} {s.side}{s.port} [{s.offset}:{s.offset + s.length})")
    return "\n".join(lines) + "\n"
