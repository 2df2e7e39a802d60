"""Per-port group assembly, kept as an oracle.

This is ``depgraph._make_group`` as it was first written: for every port it
builds each component's local indices and channels from ``arange``,
``repeat``, ``add.outer`` and ``concatenate``, and sorts and merges the
segment runs into slots. The library builds each component's local indices
once and derives the slots from the index on demand; the groups must not
change, down to the dtypes and key order of the index arrays, and the merged
runs must equal ``ChannelGroup.slots``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from slimgraph import depgraph
from slimgraph.depgraph import ChannelGroup, ChannelSlot


def make_group(graph, sig, bucket) -> ChannelGroup:
    lengths = [length for _, length, _ in bucket]
    firsts = np.cumsum([0] + lengths[:-1])
    index, slots = {}, []
    for port in sig:
        starts = [comp[port] for _, _, comp in bucket]
        index[port] = (
            np.concatenate([np.repeat(np.arange(f, f + n), len(s))
                            for f, n, s in zip(firsts, lengths, starts)]),
            np.concatenate([np.add.outer(np.arange(n), s).ravel()
                            for n, s in zip(lengths, starts)]))
        runs = sorted((x, x + n) for n, s in zip(lengths, starts) for x in s)
        lo, hi = runs[0]
        for a, b in runs[1:]:
            if a != hi:
                slots.append(ChannelSlot(*port, lo, hi - lo))
                lo = a
            hi = b
        slots.append(ChannelSlot(*port, lo, hi - lo))
    nodes = [graph.node(n) for (n, _, _) in sig]
    protected = any(n.protected or n.kind in ("input", "output") for n in nodes)
    group = ChannelGroup(gid="", length=sum(lengths), protected=protected,
                         kind=depgraph._group_kind([n.kind for n in nodes], sig, bucket), index=index)
    assert group.slots == slots, (group.slots, slots)
    return group


def resolve_groups(graph) -> list[ChannelGroup]:
    """``depgraph.resolve_groups`` with every group assembled by ``make_group``."""
    with mock.patch.object(depgraph, "_make_group", make_group):
        return depgraph.resolve_groups(graph)
