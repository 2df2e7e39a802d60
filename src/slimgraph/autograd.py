"""Reverse-mode differentiation of a taped ``run_graph`` and the loss on its outputs.

A ``Tape`` records one taped run. Each node that passes a gradient saves a record
of itself, the slots of its inputs and outputs, and what its forward rule saved for
its ``backward`` rule (:mod:`slimgraph.kinds`); nothing else holds that state. A
loss on the run's outputs records a closure over the output ``Var``s it read.
``backward`` runs the losses, then the node records strictly in reverse: it
accumulates each input's gradient into its slot and each trained tensor's into
the run state's ``Var``. A trained Var the pass never reaches keeps ``grad=None``.

Pure data takes no gradient: the batch is never recorded, a quantizer or output
that passes it on records nothing (and a quantizer takes no clip mask), and a conv
on it computes no input gradient.

A tape is used once. A second run on it raises ``GraphError``, since slot numbers
of two runs would collide. ``backward`` pops each record before it runs, so what it
saved is freed as the pass goes, and drops each slot's gradient once that gradient
has been passed on. Trained Vars keep their gradients. ``len(tape)`` still counts
every record made.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError, ShapeError
from .kinds import SPECS


class Var:
    """A trained tensor, a run's returned output or a loss: a value, and the gradient
    ``backward`` accumulates into it. ``backward`` resets a returned output's or a
    loss's ``grad`` to None once it is passed on."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = value
        self.grad = None


def _accum(total, g):
    """``total + g``, or ``g`` itself when there is no total yet. A sum is a new array, so
    no rule's output is written into, and one array may reach two slots."""
    return g if total is None else total + g


class Tape:
    """What backward reads of one taped run and the losses on its outputs; single-use."""

    def __init__(self):
        self._records = []  # (node, input slots, output slots, saved), consumed by backward
        self._losses = []   # (loss Var, backward closure), consumed by backward
        self._slots = None  # node id -> (input slots, output slots) of the recorded run
        self._live = []     # per slot: whether a record made it, so that it takes a gradient
        self._vars = {}     # the run's trained Vars, by (node id, tensor name)
        self._outputs = []  # (slot, returned Var)
        self._made = 0
        self._spent = False

    def _open(self, steps, n_slots: int, vars_: dict) -> None:
        """Take the schedule of the run about to be recorded."""
        if self._spent or self._slots is not None:
            raise GraphError("a tape records one run; record a new one")
        self._slots = {n.id: (ins, outs) for n, ins, outs, _ in steps}
        self._live = [False] * n_slots
        self._vars = vars_

    def save(self, n, *saved) -> None:
        """Record node ``n`` of the run, with what its backward rule reads."""
        ins, outs = self._slots[n.id]
        self._records.append((n, ins, outs, saved))
        self._made += 1
        for i in outs:
            self._live[i] = True

    def takes_grad(self, n) -> bool:
        """Whether the first input of ``n`` takes a gradient: a record made it, so it is
        not pure data."""
        return self._live[self._slots[n.id][0][0]]

    def record(self, out: Var, backward_fn) -> None:
        """Record a loss on the run's outputs: ``backward_fn(g)`` accumulates ``out``'s
        gradient into the Vars it was computed from."""
        self._losses.append((out, backward_fn))
        self._made += 1

    def __len__(self):
        """Records made, including those ``backward`` has consumed."""
        return self._made


def backward(tape: Tape, loss: Var) -> None:
    """Run the tape in reverse from a scalar loss, accumulating into the trained Vars.

    Consumes the tape: each record is popped before it runs, so what it saved is
    freed as the pass goes, and each gradient is dropped once passed on. Only the
    trained Vars keep gradients, and a second ``backward`` on the same tape raises
    ``GraphError``.
    """
    if tape._spent:
        raise GraphError("this tape has run backward already; record a new one")
    if loss.value.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    tape._spent = True
    loss.grad = np.ones_like(loss.value)
    grads = [None] * len(tape._live)  # per slot
    for out, fn in reversed(tape._losses):
        g, out.grad = out.grad, None
        if g is not None:
            fn(g)
    tape._losses.clear()
    for i, var in tape._outputs:
        grads[i], var.grad = var.grad, None
    records, vars_ = tape._records, tape._vars
    while records:
        n, ins, outs, saved = records.pop()
        g, reached = [], False
        for i in outs:
            gi, grads[i] = grads[i], None
            g.append(gi)
            reached = reached or gi is not None
        if not reached:  # no output of the node reaches the loss
            continue
        into_ins, into_tensors = SPECS[n.kind].backward(n, saved, g)
        for i, gi in zip(ins, into_ins):
            if gi is not None:
                grads[i] = _accum(grads[i], gi)
        for name, gt in into_tensors.items():
            var = vars_.get((n.id, name))
            if var is not None:
                var.grad = _accum(var.grad, gt)


def softmax_cross_entropy(tape, logits: Var, labels) -> Var:
    """Mean softmax cross-entropy over a batch of integer labels."""
    z = logits.value
    if z.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects (N,K) logits, got {z.shape}")
    n = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    denom = ez.sum(axis=1, keepdims=True)
    logp = (z - zmax) - np.log(denom)
    loss = Var(np.asarray(-logp[np.arange(n), labels].mean(), dtype=z.dtype))

    def grad(g):
        gz = ez / denom
        gz[np.arange(n), labels] -= 1.0
        logits.grad = _accum(logits.grad, gz * (g / n))
    if tape is not None:
        tape.record(loss, grad)
    return loss
