"""The retaining ``run_graph`` and ``backward``, and the capturing ``silu`` and
``qdq``, kept as an oracle for training.

This is how a taped run worked before activations were released: ``run_graph``
drops only its own reference to each value after the last reader, so the tape
keeps every op output, and ``backward`` leaves the tape, its closures and every
intermediate gradient in place until the caller drops them. ``silu`` keeps its
input and sigmoid and builds the derivative in backward; ``qdq`` keeps its float
input and builds the straight-through mask in backward. The library frees or
never takes each of these; the gradients, and so every trained parameter, must
come out bit for bit the same.
"""

from __future__ import annotations

import numpy as np

from slimgraph import ops
from slimgraph.autograd import _accum, _taped
from slimgraph.executor import _Run
from slimgraph.fakequant import QMAX, QMIN, qdq as qdq_forward
from slimgraph.kinds import SPECS


def run_graph(graph, x, *, mode="eval", tape=None, state=None, outputs=None):
    wanted = list(outputs) if outputs is not None else graph.output_ids
    plan = graph.schedule(wanted)
    values = {}
    run = _Run(x, mode, tape, state)
    for n, last_read in plan:
        out = SPECS[n.kind].forward(run, n, [values[ref] for ref in n.inputs])
        for p, v in enumerate(out if isinstance(out, list) else [out]):
            values[(n.id, p)] = v
        for ref in last_read:
            del values[ref]
    return {n.id: values[(n.id, 0)] for n, _ in plan if n.id in wanted}


def backward(tape, loss) -> None:
    loss.grad = np.ones_like(loss.value)
    for out, fn in reversed(tape._records):
        if out.grad is not None:
            fn(out.grad)


def silu(tape, x):
    xv = x.value
    s = ops.sigmoid(xv)

    def grad(g):
        t = 1.0 - s  # g*s*(1 + x*(1-s)) in one buffer
        t *= xv
        t += 1.0
        t *= s
        t *= g
        _accum(x, t)
    return _taped(tape, xv * s, grad)


def qdq_backward(upstream_grad, x, scale):
    inside = np.greater_equal(x, QMIN * scale)
    inside &= np.less_equal(x, QMAX * scale)
    g = inside.astype(upstream_grad.dtype)
    g *= upstream_grad
    return g


def qdq(tape, x, scale):
    xv = x.value
    return _taped(tape, qdq_forward(xv, scale),
                  lambda g: _accum(x, qdq_backward(g, xv, scale)),
                  stop_grad=x.stop_grad)
