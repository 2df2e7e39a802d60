"""Quadratic last-use sweep for activation scratch, kept as an oracle.

This is the original ``estimate_memory`` scratch computation: it runs every
node of the graph in ``topo_order``, finds each edge's last consumer, and after
each node sums every live edge again. The library instead walks
``Graph.schedule`` once, which also leaves out nodes no output needs.
"""

from __future__ import annotations

import numpy as np

from slimgraph.graph import infer_shapes


def quadratic_scratch_bytes(graph, precision_bits: int = 32, input_shape=None) -> int:
    elem = precision_bits // 8
    shapes = infer_shapes(graph, input_shape)
    order = graph.topo_order()
    pos = {nid: i for i, nid in enumerate(order)}
    # an output tensor stays live until its last consumer has executed
    last_use: dict[tuple, int] = {}
    for n in graph.nodes.values():
        for (src, sp) in n.inputs:
            last_use[(src, sp)] = max(last_use.get((src, sp), -1), pos[n.id])
    for nid in order:  # unconsumed outputs live to the end
        n = graph.node(nid)
        for p in range(n.n_out_ports()):
            last_use.setdefault((nid, p), len(order) - 1)

    live = {}
    peak = 0
    for i, nid in enumerate(order):
        n = graph.node(nid)
        for p in range(n.n_out_ports()):
            live[(nid, p)] = int(np.prod(shapes[(nid, p)])) * elem
        peak = max(peak, sum(live.values()))
        dead = [k for k, last in last_use.items() if last == i and k in live]
        for k in dead:
            del live[k]
    return int(peak)
