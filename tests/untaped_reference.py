"""An untaped ``run_graph`` as a ``Var`` walk, kept as an oracle. It imports no part
of the library's autograd or executor.

Each kind has a forward rule here that works on ``Var``s: every parameter and
intermediate value is wrapped in a ``Var``, and each rule unwraps its operands, calls
the :mod:`slimgraph.ops` kernel and wraps the result, recording nothing and taking no
derivative, mask or argmax. The library's array walk calls the same kernels with the
same arguments, so outputs and running buffers must come out bit for bit the same.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from slimgraph import ops
from slimgraph.executor import BN_MOMENTUM

BN_EPS = 1e-5  # a batchnorm's eps when its node sets none


class Var:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Run:
    """The batch and mode, and the tensors: the training state's when it holds them,
    else the node's."""

    def __init__(self, x, mode, state):
        self.x, self.mode = x, mode
        self.vars, self.buffers = (state.vars, state.buffers) if state is not None else ({}, {})

    def param(self, n, name):
        if (n.id, name) in self.vars:
            return self.vars[(n.id, name)]
        return Var(n.params[name]) if name in n.params else None

    def array(self, n, name):
        key = (n.id, name)
        v = self.vars.get(key)
        return self.buffers.get(key, n.params.get(name)) if v is None else v.value

    def track(self, n, name, batch_value):
        if self.mode == "train":
            self.buffers[(n.id, name)] = (
                (1 - BN_MOMENTUM) * self.array(n, name) + BN_MOMENTUM * batch_value
            ).astype(np.float32)


def _value(v):
    return None if v is None else v.value


# -- wrappers: a kernel on the operands' values --------------------------------

def conv2d(x, w, b, stride, padding):
    return Var(ops.conv2d_forward(x.value, w.value, _value(b), stride, padding)[0])


def batchnorm(run, n, x):
    gamma, beta = run.param(n, "gamma").value, run.param(n, "beta").value
    eps = n.attrs.get("eps", BN_EPS)
    if run.mode == "eval":
        return Var(ops.batchnorm_infer(x.value, gamma, beta, run.array(n, "running_mean"),
                                       run.array(n, "running_var"), eps))
    y, cache = ops.batchnorm_train_forward(x.value, gamma, beta, eps)
    run.track(n, "running_mean", cache[2])
    run.track(n, "running_var", cache[3])
    return Var(y)


def activation(fn, x):
    s = ops.sigmoid(x.value)
    return Var(s if fn == "sigmoid" else np.multiply(x.value, s, out=s))


def fakequant(n, x):
    if n.attrs.get("phase", "disabled") == "disabled":
        return Var(x.value)
    return Var(ops.qdq(x.value, float(n.params["amax"][0]) / ops.QMAX))


FORWARD = {
    "input": lambda run, n, ins: Var(np.ascontiguousarray(run.x)),
    "output": lambda run, n, ins: Var(ins[0].value),
    "conv": lambda run, n, ins: conv2d(ins[0], run.param(n, "weight"), run.param(n, "bias"),
                                       n.attrs.get("stride", 1), n.attrs.get("padding", 0)),
    "batchnorm": lambda run, n, ins: batchnorm(run, n, ins[0]),
    "activation": lambda run, n, ins: activation(n.attrs["fn"], ins[0]),
    "maxpool": lambda run, n, ins: Var(ops.maxpool2d_forward(
        ins[0].value, n.attrs["k"], n.attrs.get("stride", n.attrs["k"]),
        n.attrs.get("padding", 0))[0]),
    "gap": lambda run, n, ins: Var(ops.global_avg_pool(ins[0].value)),
    "linear": lambda run, n, ins: Var(ops.linear(ins[0].value, run.param(n, "weight").value,
                                                 _value(run.param(n, "bias")))),
    "concat": lambda run, n, ins: Var(ops.concat_channels([v.value for v in ins])),
    "add": lambda run, n, ins: reduce(lambda a, b: Var(ops.add(a.value, b.value)), ins),
    "mul": lambda run, n, ins: reduce(lambda a, b: Var(ops.multiply(a.value, b.value)), ins),
    "addconst": lambda run, n, ins: Var(ins[0].value + n.attrs["c"]),
    "split": lambda run, n, ins: [Var(v) for v in ops.split_channels(ins[0].value,
                                                                      n.attrs["sizes"])],
    "scale": lambda run, n, ins: Var(ops.scale_channels(ins[0].value,
                                                        run.param(n, "scale").value)),
    "fakequant": lambda run, n, ins: fakequant(n, ins[0]),
}


def run_graph(graph, x, *, mode="eval", state=None, outputs=None) -> dict:
    """Plain arrays keyed by requested node id, in schedule order."""
    wanted = list(outputs) if outputs is not None else graph.output_ids
    plan = graph.schedule(wanted)
    values = {}
    run = _Run(x, mode, state)
    for n, last_read in plan:
        out = FORWARD[n.kind](run, n, [values[ref] for ref in n.inputs])
        for p, v in enumerate(out if isinstance(out, list) else [out]):
            values[(n.id, p)] = v
        for ref in last_read:
            del values[ref]
    return {n.id: values[(n.id, 0)].value for n, _ in plan if n.id in wanted}
