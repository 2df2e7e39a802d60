"""The retaining ``run_graph`` and ``backward``, kept as an oracle for training.

This is how a taped run worked before activations were released: ``run_graph``
drops only its own reference to each value after the last reader, so the tape
keeps every op output, and ``backward`` leaves the tape, its closures and every
intermediate gradient in place until the caller drops them. The library frees
each of these once nothing reads it again; the gradients, and so every trained
parameter, must come out bit for bit the same.
"""

from __future__ import annotations

import numpy as np

from slimgraph.executor import _Run
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
