"""Forward execution of a graph, optionally recording onto an autograd tape."""

from __future__ import annotations

import numpy as np

from . import ops
from .autograd import Tape, Var
from .errors import GraphError
from .graph import Graph, Node
from .kinds import _BN, SPECS

BN_MOMENTUM = 0.1  # running-statistics update rate in training mode


class RunState:
    """Mutable training-time storage for parameters and buffers.

    ``vars`` maps (node_id, param_name) to the trained autograd variables;
    ``buffers`` maps (node_id, buffer_name) to plain arrays (batchnorm
    running statistics). Pure inference runs pass ``state=None``.
    """

    def __init__(self, vars: dict, buffers: dict):
        self.vars = vars
        self.buffers = buffers


class _Run:
    """What forward rules read: the batch, mode and tape, and the tensors,
    taken from the training state when it holds them, else the node."""

    def __init__(self, x, mode, tape, state):
        self.x, self.mode, self.tape = x, mode, tape
        self.vars, self.buffers = (state.vars, state.buffers) if state is not None else ({}, {})

    def param(self, n, name) -> Var | None:
        if (n.id, name) in self.vars:
            return self.vars[(n.id, name)]
        return Var(n.params[name]) if name in n.params else None

    def buffer(self, n, name):
        return self.buffers[(n.id, name)] if (n.id, name) in self.buffers else n.params[name]

    def track(self, n, name, batch_value) -> None:
        """Fold a batch statistic into a running buffer, in training mode only."""
        if self.mode == "train":
            self.buffers[(n.id, name)] = (
                (1 - BN_MOMENTUM) * self.buffer(n, name) + BN_MOMENTUM * batch_value
            ).astype(np.float32)


def run_graph(graph: Graph, x: np.ndarray, *, mode: str = "eval",
              tape: Tape | None = None, state: RunState | None = None,
              outputs=None) -> dict[str, Var]:
    """Evaluate the graph on a batch.

    Args:
        x: input batch matching the graph's declared layout.
        mode: "train" uses batch statistics in batchnorm and updates running
            buffers; "calibrate" uses batch statistics without touching the
            buffers (so calibration sees the distribution training will see);
            "eval" normalizes with stored statistics.
        tape: optional autograd tape for backward; train mode only, since
            eval and calibrate runs record no gradients.
        state: training state; required for mode="train".
        outputs: restrict computation to these node ids and their ancestors. In every
            mode, each other value is dropped after its last reader in ``graph.schedule``,
            which ``estimate_memory`` counts.

    With a tape, the tape's records hold every op output Var (backward accumulates its
    gradient there), so dropping an edge would not free its array. A taped run therefore
    also releases the value (``Var.value = None``) once no live edge holds the Var: rules
    that return an input Var (``output``, a disabled ``fakequant``) put one Var on several
    edges, so live edges are counted per Var. Requested outputs are never released, and
    no backward closure reads a released value (see :mod:`slimgraph.autograd`). Untaped
    runs keep no count: their dropped Vars are freed with their arrays.

    Returns a dict mapping each requested node id to its Var, in topological order.
    """
    if mode not in ("train", "eval", "calibrate"):
        raise GraphError(f"unknown execution mode {mode!r}")
    if mode == "train" and state is None:
        raise GraphError("training mode requires a RunState")
    if tape is not None and mode != "train":
        raise GraphError(f"a tape records gradients in mode='train' only, not mode={mode!r}")
    wanted = list(outputs) if outputs is not None else graph.output_ids
    plan = graph.schedule(wanted)
    values: dict[tuple[str, int], Var] = {}
    # id(Var) -> live edges; a Var is freed only at 0, so a reused id starts from 0
    edges: dict[int, int] | None = {} if tape is not None else None
    run = _Run(x, mode, tape, state)
    for n, last_read in plan:
        out = SPECS[n.kind].forward(run, n, [values[ref] for ref in n.inputs])
        for p, v in enumerate(out if isinstance(out, list) else [out]):
            values[(n.id, p)] = v
            if edges is not None:
                edges[id(v)] = edges.get(id(v), 0) + 1
        for ref in last_read:
            v = values.pop(ref)
            if edges is not None:
                edges[id(v)] -= 1
                if not edges[id(v)]:
                    v.value = None
    return {n.id: values[(n.id, 0)] for n, _ in plan if n.id in wanted}


def fold_batchnorm(graph: Graph, keep=()) -> Graph:
    """Each conv -> batchnorm pair folded into one conv, as an inference engine does:
    ``w' = w·γ/√(σ²+ε)``, ``b' = β + (b−μ)·γ/√(σ²+ε)``. A pair folds when nothing else
    reads the conv, their widths agree and neither id is in ``keep``. The folded conv takes
    the batchnorm's id; other nodes are shared, and with nothing to fold ``graph`` returns."""
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


def forward_arrays(graph: Graph, x: np.ndarray, outputs=None) -> dict[str, np.ndarray]:
    """Pure inference on ``fold_batchnorm(graph, outputs)``, as an inference engine runs;
    returns plain arrays keyed by output node id. The fold changes float rounding only,
    but an active quantizer after a folded conv can turn that into whole int8 steps.
    ``run_graph``, and so training, calibration, evaluation and export, stays unfolded.
    With ``outputs``, only the nodes they need are folded, so no other batchnorm is read."""
    if outputs:
        needed, full = graph.ancestors_of(outputs), graph
        graph = Graph(full.name, full.input_shape, full.meta)
        graph.nodes = {nid: n for nid, n in full.nodes.items() if nid in needed}
    graph = fold_batchnorm(graph, outputs or ())
    return {k: v.value for k, v in run_graph(graph, x, mode="eval", outputs=outputs).items()}
