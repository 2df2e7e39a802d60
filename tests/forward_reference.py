"""Per-call batchnorm fold and inference, kept as an oracle.

This is the original ``forward_arrays``: on every call it restricts the graph
to what ``outputs`` need, finds the conv -> batchnorm pairs, builds a new
graph whose folded convs own their rescaled weights, and runs it through a
fresh ``Graph.schedule`` (on a new graph object, so ``run_graph`` keeps none).
The library instead keeps one plan per graph and recomputes only the fold's
arithmetic on each call.
"""

from __future__ import annotations

import numpy as np

from slimgraph import ops
from slimgraph.executor import run_graph
from slimgraph.graph import Graph, Node

_BN = ("gamma", "beta", "running_mean", "running_var")


def fold_batchnorm(graph, keep=()):
    readers = [src for n in graph.nodes.values() for src, _ in n.inputs]
    pairs = [(c, bn) for bn in graph.nodes.values() if bn.kind == "batchnorm"
             for c in [graph.nodes.get(bn.inputs[0][0])] if c is not None and c.kind == "conv"
             and readers.count(c.id) == 1 and c.id not in keep and bn.id not in keep
             and {bn.params[k].shape for k in _BN} == {c.params["weight"].shape[:1]}]
    if not pairs:
        return graph
    gamma, beta, mean, var = (np.concatenate([bn.params[k] for _, bn in pairs]) for k in _BN)
    widths = [len(bn.params["gamma"]) for _, bn in pairs]
    eps = np.repeat(np.array([bn.attrs.get("eps", 1e-5) for _, bn in pairs], var.dtype), widths)
    bias = np.concatenate([c.params.get("bias", np.zeros(w, np.float32))
                           for (c, _), w in zip(pairs, widths)])
    bias = ops.batchnorm_infer(bias[None, :, None, None], gamma, beta, mean, var, eps).ravel()
    inv = gamma / np.sqrt(var + eps)
    out, at = Graph(graph.name, graph.input_shape, graph.meta), np.cumsum([0] + widths)
    out.nodes = dict(graph.nodes)
    for (c, bn), i, j in zip(pairs, at, at[1:]):
        del out.nodes[c.id]
        out.nodes[bn.id] = Node(bn.id, "conv", c.attrs, {
            "weight": c.params["weight"] * inv[i:j, None, None, None], "bias": bias[i:j]},
            c.inputs, bn.protected)
    return out


def shell(graph):
    """A new graph object sharing ``graph``'s nodes, so ``run_graph`` has no schedule kept
    for it and builds one."""
    out = Graph(graph.name, graph.input_shape, graph.meta)
    out.nodes = dict(graph.nodes)
    return out


def forward_arrays(graph, x, outputs=None) -> dict:
    if outputs:
        needed, full = graph.ancestors_of(outputs), graph
        graph = Graph(full.name, full.input_shape, full.meta)
        graph.nodes = {nid: n for nid, n in full.nodes.items() if nid in needed}
    graph = shell(fold_batchnorm(graph, outputs or ()))
    return {k: v.value for k, v in run_graph(graph, x, mode="eval", outputs=outputs).items()}
