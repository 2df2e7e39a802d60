"""Computation-graph representation with deterministic topology and shape inference.

Nodes are primitive operators; composite blocks (CSP blocks, pyramid pooling,
attention stubs, detection heads) are built out of primitives by
:mod:`slimgraph.builders`. Graphs are treated as immutable after construction:
every transformation (pruning, instrumentation) returns a new graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphError

NODE_KINDS = frozenset({
    "input", "output",
    "conv", "batchnorm", "activation", "maxpool", "gap", "linear",
    "concat", "add", "mul", "addconst", "split", "scale",
    "fakequant",
})

# kinds that forward channel identity unchanged from their single input
CHANNEL_TRANSPARENT = frozenset({
    "batchnorm", "activation", "maxpool", "gap", "addconst", "scale", "fakequant",
})


@dataclass
class Node:
    id: str
    kind: str
    attrs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)      # name -> np.ndarray
    inputs: list = field(default_factory=list)      # [(src_id, src_port), ...]
    protected: bool = False

    def n_out_ports(self) -> int:
        return len(self.attrs["sizes"]) if self.kind == "split" else 1

    def clone(self, copy_params=True):
        params = {k: v.copy() for k, v in self.params.items()} if copy_params else dict(self.params)
        return Node(self.id, self.kind, dict(self.attrs), params,
                    [tuple(e) for e in self.inputs], self.protected)


class Graph:
    """A DAG of primitive nodes with a declared input shape."""

    def __init__(self, name: str, input_shape, meta: dict | None = None):
        self.name = name
        self.input_shape = tuple(int(d) for d in input_shape)
        self.meta = dict(meta or {})
        self.nodes: dict[str, Node] = {}

    # -- construction -------------------------------------------------------

    def add(self, node: Node) -> Node:
        if node.kind not in NODE_KINDS:
            raise GraphError(f"unknown node kind {node.kind!r} for node {node.id!r}")
        if node.id in self.nodes:
            raise GraphError(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node
        return node

    def clone(self, copy_params=True) -> "Graph":
        g = Graph(self.name, self.input_shape, self.meta)
        for n in self.nodes.values():
            g.nodes[n.id] = n.clone(copy_params)
        return g

    # -- lookups ------------------------------------------------------------

    def node(self, nid: str) -> Node:
        try:
            return self.nodes[nid]
        except KeyError:
            raise GraphError(f"no node with id {nid!r}") from None

    @property
    def input_id(self) -> str:
        ids = [n.id for n in self.nodes.values() if n.kind == "input"]
        if len(ids) != 1:
            raise GraphError(f"graph must have exactly one input node, found {len(ids)}")
        return ids[0]

    @property
    def output_ids(self) -> list[str]:
        ids = [n.id for n in self.nodes.values() if n.kind == "output"]
        if not ids:
            raise GraphError("graph has no output node")
        return ids

    def consumers(self, nid: str):
        """All (consumer_id, in_port) pairs reading any port of node nid."""
        out = []
        for n in self.nodes.values():
            for i, (src, _) in enumerate(n.inputs):
                if src == nid:
                    out.append((n.id, i))
        return out

    # -- structure ----------------------------------------------------------

    def validate(self):
        _ = self.input_id
        _ = self.output_ids
        for n in self.nodes.values():
            for (src, port) in n.inputs:
                if src not in self.nodes:
                    raise GraphError(f"node {n.id!r} consumes missing node {src!r}")
                if port >= self.nodes[src].n_out_ports():
                    raise GraphError(
                        f"node {n.id!r} reads port {port} of {src!r} "
                        f"which has {self.nodes[src].n_out_ports()} ports")
            _check_arity(n)
        self.topo_order()  # raises on cycles

    def topo_order(self) -> list[str]:
        """Deterministic topological order (ties broken by node id)."""
        indeg = {nid: 0 for nid in self.nodes}
        for n in self.nodes.values():
            indeg[n.id] = len(n.inputs)
        ready = sorted(nid for nid, d in indeg.items() if d == 0)
        consumer_map: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        for n in self.nodes.values():
            for (src, _) in n.inputs:
                consumer_map[src].append(n.id)
        order = []
        import heapq
        heapq.heapify(ready)
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for c in consumer_map[nid]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) != len(self.nodes):
            stuck = sorted(set(self.nodes) - set(order))
            raise GraphError(f"graph contains a cycle involving {stuck[:4]}")
        return order

    def ancestors_of(self, targets) -> set[str]:
        """All nodes reachable backwards from the given node ids (inclusive)."""
        seen = set()
        stack = list(targets)
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(src for (src, _) in self.node(nid).inputs)
        return seen


_ARITY = {
    "input": 0, "output": 1, "conv": 1, "batchnorm": 1, "activation": 1,
    "maxpool": 1, "gap": 1, "linear": 1, "addconst": 1, "split": 1,
    "scale": 1, "fakequant": 1,
}


def _check_arity(n: Node):
    if n.kind in _ARITY:
        if len(n.inputs) != _ARITY[n.kind]:
            raise GraphError(
                f"node {n.id!r} kind {n.kind} expects {_ARITY[n.kind]} inputs, got {len(n.inputs)}")
    elif n.kind in ("add", "mul", "concat"):
        if len(n.inputs) < 2:
            raise GraphError(f"node {n.id!r} kind {n.kind} needs >= 2 inputs")


def infer_shapes(graph: Graph, input_shape=None) -> dict:
    """Annotate every (node_id, out_port) with its tensor shape.

    Fails on the first inconsistent edge, naming the offending nodes.
    """
    shape = tuple(input_shape or graph.input_shape)
    shapes: dict[tuple[str, int], tuple] = {}

    def in_shape(n: Node, i: int):
        src, port = n.inputs[i]
        return shapes[(src, port)]

    for nid in graph.topo_order():
        n = graph.node(nid)
        if n.kind == "input":
            shapes[(nid, 0)] = shape
        elif n.kind == "output":
            shapes[(nid, 0)] = in_shape(n, 0)
        elif n.kind == "conv":
            s = in_shape(n, 0)
            w = n.params["weight"]
            if len(s) != 4:
                raise GraphError(f"conv {nid!r} needs a 4-D input, got {s}")
            if s[1] != w.shape[1]:
                raise GraphError(
                    f"conv {nid!r} input channels {s[1]} != weight Cin {w.shape[1]} "
                    f"(producer {n.inputs[0][0]!r})")
            kh, kw = w.shape[2], w.shape[3]
            st, pd = n.attrs.get("stride", 1), n.attrs.get("padding", 0)
            ho = (s[2] + 2 * pd - kh) // st + 1
            wo = (s[3] + 2 * pd - kw) // st + 1
            if ho < 1 or wo < 1:
                raise GraphError(f"conv {nid!r} collapses spatial dims to {ho}x{wo}")
            shapes[(nid, 0)] = (s[0], w.shape[0], ho, wo)
        elif n.kind == "batchnorm":
            s = in_shape(n, 0)
            c = len(n.params["gamma"])
            if s[1] != c:
                raise GraphError(f"batchnorm {nid!r} has {c} channels but input has {s[1]}")
            shapes[(nid, 0)] = s
        elif n.kind in ("activation", "addconst", "fakequant"):
            shapes[(nid, 0)] = in_shape(n, 0)
        elif n.kind == "scale":
            s = in_shape(n, 0)
            c = len(n.params["scale"])
            if s[1] != c:
                raise GraphError(f"scale {nid!r} has {c} channels but input has {s[1]}")
            shapes[(nid, 0)] = s
        elif n.kind == "maxpool":
            s = in_shape(n, 0)
            k, st = n.attrs["k"], n.attrs.get("stride", n.attrs["k"])
            pd = n.attrs.get("padding", 0)
            ho = (s[2] + 2 * pd - k) // st + 1
            wo = (s[3] + 2 * pd - k) // st + 1
            if ho < 1 or wo < 1:
                raise GraphError(f"maxpool {nid!r} collapses spatial dims to {ho}x{wo}")
            shapes[(nid, 0)] = (s[0], s[1], ho, wo)
        elif n.kind == "gap":
            s = in_shape(n, 0)
            shapes[(nid, 0)] = (s[0], s[1])
        elif n.kind == "linear":
            s = in_shape(n, 0)
            w = n.params["weight"]
            if s[1] != w.shape[1]:
                raise GraphError(
                    f"linear {nid!r} input features {s[1]} != weight columns {w.shape[1]}")
            shapes[(nid, 0)] = (s[0], w.shape[0])
        elif n.kind in ("add", "mul"):
            s0 = in_shape(n, 0)
            for i in range(1, len(n.inputs)):
                si = in_shape(n, i)
                if si != s0:
                    raise GraphError(
                        f"{n.kind} {nid!r} shape mismatch between producers "
                        f"{n.inputs[0][0]!r} {s0} and {n.inputs[i][0]!r} {si}")
            shapes[(nid, 0)] = s0
        elif n.kind == "concat":
            s0 = in_shape(n, 0)
            c = s0[1]
            for i in range(1, len(n.inputs)):
                si = in_shape(n, i)
                if si[0] != s0[0] or si[2:] != s0[2:]:
                    raise GraphError(
                        f"concat {nid!r} non-channel dims differ: "
                        f"{n.inputs[0][0]!r} {s0} vs {n.inputs[i][0]!r} {si}")
                c += si[1]
            shapes[(nid, 0)] = (s0[0], c) + s0[2:]
        elif n.kind == "split":
            s = in_shape(n, 0)
            sizes = n.attrs["sizes"]
            if sum(sizes) != s[1]:
                raise GraphError(
                    f"split {nid!r} sizes {sizes} do not sum to input channels {s[1]}")
            for p, sz in enumerate(sizes):
                shapes[(nid, p)] = (s[0], sz) + s[2:]
        else:
            raise GraphError(f"no shape rule for kind {n.kind!r} (node {nid!r})")
    return shapes


# trainable parameter names by node kind; running statistics and quantizer
# state are buffers, not trainable weights
TRAINABLE = {
    "conv": ("weight", "bias"),
    "batchnorm": ("gamma", "beta"),
    "linear": ("weight", "bias"),
    "scale": ("scale",),
}

BUFFERS = {
    "batchnorm": ("running_mean", "running_var"),
    "fakequant": ("amax",),
}


def trainable_items(graph: Graph):
    """Yield ((node_id, param_name), array) over all trainable tensors."""
    for n in graph.nodes.values():
        for pname in TRAINABLE.get(n.kind, ()):
            if pname in n.params:
                yield (n.id, pname), n.params[pname]


def buffer_items(graph: Graph):
    for n in graph.nodes.values():
        for pname in BUFFERS.get(n.kind, ()):
            if pname in n.params:
                yield (n.id, pname), n.params[pname]
