"""Computation-graph representation with deterministic topology and shape inference.

Nodes are primitive operators; composite blocks (CSP blocks, pyramid pooling,
attention stubs, detection heads) are built out of primitives by
:mod:`slimgraph.builders`. Every transformation (pruning, instrumentation)
returns a new graph, but a graph may also be edited in place between runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import GraphError
from .kinds import SPECS, check_node, check_widths, spec_of


@dataclass
class Node:
    id: str
    kind: str
    attrs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)      # name -> np.ndarray
    inputs: list = field(default_factory=list)      # [(src_id, src_port), ...]
    protected: bool = False

    def n_out_ports(self) -> int:
        return spec_of(self).ports(self.attrs)

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
        spec_of(node)  # an unknown kind raises
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
    def output_ids(self) -> list[str]:
        ids = [n.id for n in self.nodes.values() if n.kind == "output"]
        if not ids:
            raise GraphError("graph has no output node")
        return ids

    # -- structure ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Check each node against its kind's spec, every edge, and that the graph is
        acyclic; returns the topological order, which ``infer_shapes`` can take."""
        n_inputs = sum(n.kind == "input" for n in self.nodes.values())
        if n_inputs != 1:
            raise GraphError(f"graph must have exactly one input node, found {n_inputs}")
        _ = self.output_ids
        for n in self.nodes.values():
            check_node(n)
        for n in self.nodes.values():
            self.check_inputs(n)
        return self.topo_order()  # raises on cycles

    def check_inputs(self, n: Node) -> None:
        """Raise ``GraphError`` unless each input of ``n`` names a node of this graph and a
        port that node has."""
        for (src, port) in n.inputs:
            if src not in self.nodes:
                raise GraphError(f"node {n.id!r} consumes missing node {src!r}")
            if not 0 <= port < self.nodes[src].n_out_ports():
                raise GraphError(f"node {n.id!r} reads port {port} of {src!r} "
                                 f"which has {self.nodes[src].n_out_ports()} ports")

    def topo_order(self) -> list[str]:
        """Deterministic topological order (ties broken by node id)."""
        indeg = {nid: len(n.inputs) for nid, n in self.nodes.items()}
        ready = sorted(nid for nid, d in indeg.items() if d == 0)  # a sorted list is a heap
        consumer_map: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        for n in self.nodes.values():
            for (src, _) in n.inputs:
                consumer_map[src].append(n.id)
        order = []
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
            if nid not in seen:
                seen.add(nid)
                stack += [src for src, _ in self.node(nid).inputs]
        return seen

    def schedule(self, outputs) -> list[tuple[Node, list]]:
        """The nodes ``outputs`` need, in topological order, each paired with the edges
        it reads last; edges of ``outputs``, or read by no node here, are never paired."""
        keep = set(outputs)
        needed = self.ancestors_of(outputs)
        order = [self.nodes[nid] for nid in self.topo_order() if nid in needed]
        last_reader = {ref: n for n in order for ref in n.inputs}
        return [(n, [ref for ref in dict.fromkeys(n.inputs)
                     if last_reader[ref] is n and ref[0] not in keep]) for n in order]


def io_shapes(n: Node, shapes: dict) -> tuple[list, list]:
    """Shapes of a node's input ports and of its output ports."""
    return ([shapes[ref] for ref in n.inputs],
            [shapes[(n.id, p)] for p in range(n.n_out_ports())])


def infer_shapes(graph: Graph, input_shape=None, order=None) -> dict:
    """Annotate every (node_id, out_port) with its tensor shape, in topological order.

    ``order`` is ``graph.topo_order()`` when the caller has it already (``validate``
    returns it), so the graph is not sorted again. Fails on the first inconsistent
    edge, naming the offending nodes.
    """
    shape = tuple(input_shape or graph.input_shape)
    if len(shape) < 2:
        raise GraphError(f"input shape {shape} lacks batch and channel dims")
    shapes: dict[tuple[str, int], tuple] = {}
    nodes = graph.nodes
    for nid in graph.topo_order() if order is None else order:
        n = nodes[nid]
        # the input node reads the declared input shape
        ins = [shapes[ref] for ref in n.inputs] or [shape]
        outs = SPECS[n.kind].shape(n, ins)
        if n.params:  # a node without tensors has no width to check
            check_widths(n, ins, outs)
        shapes.update(((nid, p), s) for p, s in enumerate(outs))
    return shapes


def trainable_items(graph: Graph):
    """Yield ((node_id, param_name), array) over all trainable tensors."""
    for n in graph.nodes.values():
        for pname in SPECS[n.kind].trainable:
            if pname in n.params:
                yield (n.id, pname), n.params[pname]


def buffer_items(graph: Graph):
    """Yield ((node_id, buffer_name), array) over running statistics and quantizer state."""
    for n in graph.nodes.values():
        for pname in SPECS[n.kind].buffers:
            if pname in n.params:
                yield (n.id, pname), n.params[pname]
