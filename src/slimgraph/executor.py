"""Forward execution of a graph, optionally recording onto an autograd tape."""

from __future__ import annotations

import weakref
from collections import Counter

import numpy as np

from . import ops
from .autograd import Tape, Var
from .errors import GraphError
from .graph import Graph, Node
from .kinds import _BN, _BN_EPS, SPECS, OpSpec

BN_MOMENTUM = 0.1  # running-statistics update rate in training mode


class RunState:
    """Tensors a run reads in place of a node's own. ``vars`` maps (node_id, param_name) to
    what forward rules read through its ``.value``: the trained autograd variables, or in
    ``forward_arrays`` the folded conv weights. ``buffers`` maps (node_id, buffer_name) to
    plain arrays: batchnorm running statistics, which a training run moves, or the folded
    conv biases."""

    def __init__(self, vars: dict, buffers: dict):
        self.vars = vars
        self.buffers = buffers


class _Run:
    """What forward rules read: the batch, mode, tape and tensors of one run."""

    def __init__(self, x, mode, tape, state):
        self.x, self.mode, self.tape = x, mode, tape
        self.vars, self.buffers = (state.vars, state.buffers) if state is not None else ({}, {})

    def array(self, n, name):
        """A tensor as forward rules read it: a state var's value, else a buffer, else the
        node's own; None for an absent optional tensor."""
        key = (n.id, name)
        v = self.vars.get(key)
        return self.buffers.get(key, n.params.get(name)) if v is None else v.value

    def track(self, n, name, batch_value) -> None:
        """Move a running buffer one momentum step toward a batch statistic, in training
        mode only."""
        if self.mode == "train":
            self.buffers[(n.id, name)] = (
                (1 - BN_MOMENTUM) * self.array(n, name) + BN_MOMENTUM * batch_value
            ).astype(np.float32)


_RULES = {kind: spec.array for kind, spec in SPECS.items()}  # kind -> forward rule
# kind -> port count rule, for the kinds whose attrs set their port count (a split's sizes)
_PORTS = {kind: spec.ports for kind, spec in SPECS.items() if spec.ports is not OpSpec.ports}

# Plans, weakly keyed by graph so that they never keep one alive: at most one per graph,
# stored with the snapshot it was built from, or with _FOLDED for a graph that ``_fold`` made.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_FOLDED = object()


def _node_ids(outputs) -> list | None:
    """``outputs`` read once into a list; None (the graph's output nodes) stays None."""
    if isinstance(outputs, str):
        raise GraphError(f"outputs must be a sequence of node ids, not the string {outputs!r}")
    return None if outputs is None else list(outputs)


def _snapshot(graph: Graph, outputs, build) -> list:
    """What a plan's builder reads of ``graph``: the builder and outputs; each node object,
    id, kind, attrs dict, parameter count and inputs; every parameter shape (which decides
    the fold pairs); and the port count of each node whose attrs set it."""
    return [build, outputs, *[(k, id(n), n.id, n.kind, id(n.attrs), len(n.params), *n.inputs)
                              for k, n in graph.nodes.items()],
            *[a.shape for n in graph.nodes.values() for a in n.params.values()],
            *[ports(n.attrs) for n in graph.nodes.values() if (ports := _PORTS.get(n.kind))]]


def _plan(graph: Graph, outputs, build):
    """``build(graph, outputs)``, kept for ``graph`` and rebuilt when the snapshot
    (``_snapshot``), taken on every call, changes. A graph keeps one plan, for the builder and
    outputs last asked for, so another of either costs a rebuild. Runs read attribute and
    parameter values, so writing them needs no rebuild; the one thing a plan takes from
    attributes, a port count (a split's ``sizes``), is in the snapshot. Ids are safe to
    compare: a plan holds the nodes it runs and the attrs dicts it shares, and reads of any
    other node only the fields compared by value.

    A rebuild raises the ``GraphError`` of ``Graph.validate`` for a node whose kind is
    unknown or whose input reads a port its source lacks.

    A graph made by ``_fold`` is private to ``forward_arrays``, which runs it only for the
    outputs it was folded for; its schedule, compiled with it, is returned unchecked."""
    hit = _PLANS.get(graph)
    if hit is not None and hit[0] is _FOLDED:
        return hit[1]
    snapshot = _snapshot(graph, outputs, build)
    if hit is None or hit[0] != snapshot:
        hit = _PLANS[graph] = (snapshot, build(graph, outputs))
    return hit[1]


def run_graph(graph: Graph, x: np.ndarray, *, mode: str = "eval",
              tape: Tape | None = None, state: RunState | None = None,
              outputs=None) -> dict[str, Var]:
    """Evaluate the graph on a batch; returns each requested node id's value as a ``Var``,
    in topological order.

    Args:
        x: input batch matching the graph's declared layout.
        mode: "train" normalizes batchnorm by batch statistics and moves the running
            buffers; "calibrate" normalizes by batch statistics and leaves the buffers, so
            calibration sees what training will; "eval" normalizes by the stored statistics.
        tape: records the run for backward, in mode="train" only.
        state: a ``RunState``, required for mode="train".
        outputs: a sequence of node ids, run with their ancestors only; None means the
            graph's output nodes, ``[]`` none. Each other value is dropped after its last
            reader in ``graph.schedule``, as ``estimate_memory`` counts. Without a tape no
            conv keeps its patches.

    The schedule is a plan (``_plan``). A run walks plain arrays through each kind's forward
    rule and wraps only the returned outputs in ``Var``s. With a tape, each rule also
    records its node with what its backward rule reads (:mod:`slimgraph.autograd`); a
    second run on the same tape raises ``GraphError``.
    """
    if mode not in ("train", "eval", "calibrate"):
        raise GraphError(f"unknown execution mode {mode!r}")
    if mode == "train" and state is None:
        raise GraphError("training mode requires a RunState")
    if tape is not None and mode != "train":
        raise GraphError(f"a tape records gradients in mode='train' only, not mode={mode!r}")
    steps, n_slots, returned = _plan(graph, _node_ids(outputs), _schedule)
    run = _Run(x, mode, tape, state)
    if tape is not None:
        tape._open(steps, n_slots, run.vars)
    values = [None] * n_slots
    for n, ins, outs, free in steps:
        out = _RULES[n.kind](run, n, [values[i] for i in ins])
        if isinstance(out, list):
            for i, v in zip(outs, out, strict=True):
                values[i] = v
        else:
            values[outs[0]] = out
        for i in free:
            values[i] = None
    out = {nid: Var(values[i]) for nid, i in returned}
    if tape is not None:
        tape._outputs = [(i, out[nid]) for nid, i in returned]
    return out


def _schedule(graph: Graph, outputs):
    """``graph.schedule`` for ``outputs`` over list slots, one per output port: the steps
    (node, slots read, its ports' slots, slots read last), the slot count, and the (id, slot)
    pairs returned."""
    wanted = graph.output_ids if outputs is None else outputs
    slot, steps = {}, []
    for n, last_read in graph.schedule(wanted):  # topological: a node's inputs have slots
        if not all(ref in slot for ref in n.inputs):  # an in-place edit took a port away
            graph.check_inputs(n)
        ins, outs = [slot[ref] for ref in n.inputs], []
        for p in range(n.n_out_ports()):
            outs.append(len(slot))
            slot[(n.id, p)] = outs[-1]
        steps.append((n, ins, outs, [slot[ref] for ref in last_read]))
    return steps, len(slot), [(n.id, outs[0]) for n, _, outs, _ in steps if n.id in wanted]


def _fold_pairs(nodes: dict[str, Node], keep) -> list[tuple[Node, Node]]:
    """The conv -> batchnorm pairs that fold: nothing else reads the conv, their widths
    agree and neither id is in ``keep``."""
    readers = Counter(src for n in nodes.values() for src, _ in n.inputs)
    return [(c, bn) for bn in nodes.values() if bn.kind == "batchnorm"
            for c in [nodes.get(bn.inputs[0][0])] if c is not None and c.kind == "conv"
            and readers[c.id] == 1 and c.id not in keep and bn.id not in keep
            and {bn.params[k].shape for k in _BN} == {c.params["weight"].shape[:1]}]


class _FoldedWeight:
    """A folded conv weight ``w·inv``, multiplied each time its ``value`` is read."""

    __slots__ = ("w", "inv")

    def __init__(self, w, inv):
        self.w, self.inv = w, inv

    @property
    def value(self):
        return self.w * self.inv


def _fold_params(pairs) -> RunState:
    """The state of each pair's folded conv under the batchnorm's id, from the current
    parameter values: its ``weight`` a ``_FoldedWeight`` var, its ``bias`` a buffer, all
    biases from one ``ops.batchnorm_infer`` call."""
    if not pairs:
        return RunState({}, {})
    gamma, beta, mean, var = (np.concatenate([bn.params[k] for _, bn in pairs]) for k in _BN)
    widths = [len(bn.params["gamma"]) for _, bn in pairs]
    eps = np.repeat(np.array([bn.attrs.get("eps", _BN_EPS) for _, bn in pairs], var.dtype), widths)
    bias = np.concatenate([c.params.get("bias", np.zeros(w, np.float32))
                           for (c, _), w in zip(pairs, widths)])
    bias = ops.batchnorm_infer(bias[None, :, None, None], gamma, beta, mean, var, eps).ravel()
    inv = (gamma / np.sqrt(var + eps))[:, None, None, None]
    at = np.cumsum([0] + widths)
    weights, biases = {}, {}
    for (c, bn), i, j in zip(pairs, at, at[1:]):
        weights[(bn.id, "weight")] = _FoldedWeight(c.params["weight"], inv[i:j])
        biases[(bn.id, "bias")] = bias[i:j]
    return RunState(weights, biases)


def _fold(graph: Graph, outputs):
    """What ``forward_arrays`` runs: a new graph of the nodes ``outputs`` need, each folding
    pair replaced by one conv without parameters under the batchnorm's id, every other node
    shared; and the pairs."""
    nodes = graph.nodes
    if outputs is not None:
        needed = graph.ancestors_of(outputs)
        nodes = {nid: n for nid, n in nodes.items() if nid in needed}
    pairs = _fold_pairs(nodes, outputs or ())
    folded = Graph(graph.name, graph.input_shape, graph.meta)
    folded.nodes = dict(nodes)
    for c, bn in pairs:
        del folded.nodes[c.id]
        folded.nodes[bn.id] = Node(bn.id, "conv", c.attrs, {}, c.inputs, bn.protected)
    _PLANS[folded] = (_FOLDED, _schedule(folded, outputs))
    return folded, pairs


def forward_arrays(graph: Graph, x: np.ndarray, outputs=None) -> dict[str, np.ndarray]:
    """Pure inference with each conv -> batchnorm pair folded into one conv, as an inference
    engine runs; returns plain arrays keyed by requested node id, as ``run_graph`` orders
    them. A pair folds when nothing else reads the conv, their widths agree and neither id
    is in ``outputs``; the folded conv takes the batchnorm's id, with ``w' = w·γ/√(σ²+ε)``
    and ``b' = β + (b−μ)·γ/√(σ²+ε)``. The fold changes float rounding only, but an active
    quantizer after a folded conv can turn that into a whole int8 step. ``run_graph``, and
    so training, calibration, evaluation and export, stays unfolded. Only the nodes
    ``outputs`` need are folded and run, so no other batchnorm is read. The fold is a plan
    (``_plan``), yet outputs equal a fresh fold's bit for bit, also after an edit.

    A call holds the folded biases and ``γ/√(σ²+ε)`` of every pair from its start, and each
    folded weight only while its conv runs; between calls, no array."""
    outputs = _node_ids(outputs)
    folded, pairs = _plan(graph, outputs, _fold)
    out = run_graph(folded, x, mode="eval", state=_fold_params(pairs), outputs=outputs)
    return {k: v.value for k, v in out.items()}
