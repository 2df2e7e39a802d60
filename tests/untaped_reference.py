"""The untaped ``run_graph`` as a ``Var`` walk, kept as an oracle.

This is how ``eval``, ``calibrate`` and untaped ``train`` runs worked before they
walked plain arrays: each kind's ``Var`` rule (``OpSpec.forward``) runs with
``tape=None``, so every parameter and intermediate value is wrapped in a ``Var``
and goes through an :mod:`slimgraph.autograd` wrapper that records nothing. The
array rules call the same kernels with the same arguments, so outputs and running
buffers must come out bit for bit the same.
"""

from __future__ import annotations

from slimgraph.executor import _Run
from slimgraph.kinds import SPECS


def run_graph(graph, x, *, mode="eval", state=None, outputs=None) -> dict:
    """Plain arrays keyed by requested node id, in schedule order."""
    wanted = list(outputs) if outputs is not None else graph.output_ids
    plan = graph.schedule(wanted)
    values = {}
    run = _Run(x, mode, None, state)
    for n, last_read in plan:
        out = SPECS[n.kind].forward(run, n, [values[ref] for ref in n.inputs])
        for p, v in enumerate(out if isinstance(out, list) else [out]):
            values[(n.id, p)] = v
        for ref in last_read:
            del values[ref]
    return {n.id: values[(n.id, 0)].value for n, _ in plan if n.id in wanted}
