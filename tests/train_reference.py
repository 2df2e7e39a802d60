"""A taped ``run_graph`` over ``Var``s and a retaining ``backward``, kept as an oracle
for training. It imports no part of the library's autograd or executor.

Each kind has a forward rule here that works on ``Var``s through a differentiable
wrapper: the wrapper calls the :mod:`slimgraph.ops` kernel and records a closure that
computes the gradient from what it captured. ``identity`` gives the rules that pass
their input on a Var of their own. ``run_graph`` drops only its own reference to each
value after the last reader, so the tape keeps every op output, and ``backward``
leaves the tape, its closures and every intermediate gradient in place until the
caller drops them.

``saving_silu`` and ``saving_qdq`` take the SiLU derivative and the clip mask at
forward time; ``silu`` and ``qdq`` keep their float inputs instead and build both in
backward. The walk calls ``SILU`` and ``QDQ``, the saving forms unless a caller swaps
them. The library's gradients, and so every trained tensor, must come out bit for bit
the same under either pair.

``Tape``, ``backward`` and ``softmax_cross_entropy`` replace the library's in a
``Trainer`` step, so that the whole step runs here.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from slimgraph import ops
from slimgraph.executor import BN_MOMENTUM
from slimgraph.ops import QMAX, QMIN

BN_EPS = 1e-5  # a batchnorm's eps when its node sets none


class Var:
    """A value and the gradient accumulated into it; ``stop_grad`` marks pure data."""

    __slots__ = ("value", "grad", "stop_grad")

    def __init__(self, value, stop_grad=False):
        self.value = value
        self.grad = None
        self.stop_grad = stop_grad


class Tape:
    def __init__(self):
        self._records = []  # (output Var, backward closure), in execution order

    def record(self, out, backward_fn):
        self._records.append((out, backward_fn))

    def __len__(self):
        return len(self._records)


def _accum(var, g):
    var.grad = g if var.grad is None else var.grad + g


def _taped(tape, value, grad, stop_grad=False):
    out = Var(value, stop_grad)
    if tape is not None and not stop_grad:
        tape.record(out, grad)
    return out


def backward(tape, loss) -> None:
    loss.grad = np.ones_like(loss.value)
    for out, fn in reversed(tape._records):
        if out.grad is not None:
            fn(out.grad)


# -- differentiable wrappers ----------------------------------------------------

def identity(tape, x):
    return _taped(tape, x.value, lambda g: _accum(x, g), stop_grad=x.stop_grad)


def conv2d(tape, x, w, b, stride, padding):
    wv, x_shape, need_gx = w.value, x.value.shape, not x.stop_grad
    y, cols = ops.conv2d_forward(x.value, wv, None if b is None else b.value, stride, padding)

    def grad(g):
        gx, gw, gb = ops.conv2d_backward(g, x_shape, wv, cols, stride, padding,
                                         with_bias=b is not None, need_gx=need_gx)
        if gx is not None:
            _accum(x, gx)
        _accum(w, gw)
        if b is not None:
            _accum(b, gb)
    return _taped(tape, y, grad)


def batchnorm(tape, x, gamma, beta, eps):
    """Batch statistics; returns (out, batch mean, batch variance)."""
    gv = gamma.value
    y, cache = ops.batchnorm_train_forward(x.value, gv, beta.value, eps)

    def grad(g):
        gx, dgamma, dbeta = ops.batchnorm_train_backward(g, gv, cache)
        _accum(x, gx)
        _accum(gamma, dgamma)
        _accum(beta, dbeta)
    return _taped(tape, y, grad), cache[2], cache[3]


def sigmoid(tape, x):
    s = ops.sigmoid(x.value)

    def grad(g):
        t = 1.0 - s
        t *= s
        t *= g
        _accum(x, t)
    return _taped(tape, s, grad)


def saving_silu(tape, x):
    """x·sigmoid(x) in the sigmoid's buffer, the derivative taken before that multiply."""
    xv = x.value
    s = ops.sigmoid(xv)
    d = 1.0 - s  # s·(1 + x·(1-s))
    d *= xv
    d += 1.0
    d *= s

    def grad(g):
        _accum(x, np.multiply(d, g, out=d))
    return _taped(tape, np.multiply(xv, s, out=s), grad)


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


def add(tape, a, b):
    def grad(g):
        _accum(a, g)
        _accum(b, g)
    return _taped(tape, ops.add(a.value, b.value), grad)


def multiply(tape, a, b):
    av, bv = a.value, b.value

    def grad(g):
        _accum(a, g * bv)
        _accum(b, g * av)
    return _taped(tape, ops.multiply(av, bv), grad)


def add_const(tape, x, c):
    return _taped(tape, x.value + c, lambda g: _accum(x, g))


def scale_channels(tape, x, s):
    xv, sv = x.value, s.value

    def grad(g):
        _accum(x, g * sv[None, :, None, None])
        _accum(s, (g * xv).sum(axis=(0, 2, 3)))
    return _taped(tape, ops.scale_channels(xv, sv), grad)


def concat_channels(tape, parts):
    widths = [p.value.shape[1] for p in parts]

    def grad(g):
        off = 0
        for p, s in zip(parts, widths):
            _accum(p, g[:, off:off + s])
            off += s
    return _taped(tape, ops.concat_channels([p.value for p in parts]), grad)


def split_channels(tape, x, sizes):
    # one record per piece; each accumulates into its own slice
    outs, off, shape, dtype = [], 0, x.value.shape, x.value.dtype
    for v, s in zip(ops.split_channels(x.value, sizes), sizes):
        def grad(g, off=off, s=s):
            gx = np.zeros(shape, dtype)
            gx[:, off:off + s] = g
            _accum(x, gx)
        outs.append(_taped(tape, v, grad))
        off += s
    return outs


def maxpool2d(tape, x, k, stride, padding):
    shape = x.value.shape
    y, arg = ops.maxpool2d_forward(x.value, k, stride, padding, need_arg=True)

    def grad(g):
        _accum(x, ops.maxpool2d_backward(g, arg, shape, k, stride, padding))
    return _taped(tape, y, grad)


def global_avg_pool(tape, x):
    n, c, h, w = x.value.shape

    def grad(g):
        _accum(x, np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w)).astype(g.dtype))
    return _taped(tape, ops.global_avg_pool(x.value), grad)


def linear(tape, x, w, b):
    xv, wv = x.value, w.value

    def grad(g):
        _accum(x, g @ wv)
        _accum(w, g.T @ xv)
        if b is not None:
            _accum(b, g.sum(axis=0))
    return _taped(tape, ops.linear(xv, wv, None if b is None else b.value), grad)


def saving_qdq(tape, x, scale):
    """The clip mask taken at forward time; nothing for a ``stop_grad`` input."""
    xv = x.value
    y = ops.qdq(xv, scale)
    inside = None if x.stop_grad else ops.ste_mask(xv, scale)
    return _taped(tape, y, lambda g: _accum(x, ops.qdq_backward(g, inside)),
                  stop_grad=x.stop_grad)


def qdq_backward(upstream_grad, x, scale):
    inside = np.greater_equal(x, QMIN * scale)
    inside &= np.less_equal(x, QMAX * scale)
    g = inside.astype(upstream_grad.dtype)
    g *= upstream_grad
    return g


def qdq(tape, x, scale):
    xv = x.value
    return _taped(tape, ops.qdq(xv, scale), lambda g: _accum(x, qdq_backward(g, xv, scale)),
                  stop_grad=x.stop_grad)


SILU, QDQ = saving_silu, saving_qdq  # the forms the walk calls


def softmax_cross_entropy(tape, logits, labels):
    z = logits.value
    n = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    denom = ez.sum(axis=1, keepdims=True)
    logp = (z - zmax) - np.log(denom)
    loss = -logp[np.arange(n), labels].mean()

    def grad(g):
        gz = ez / denom
        gz[np.arange(n), labels] -= 1.0
        _accum(logits, gz * (g / n))
    return _taped(tape, np.asarray(loss, dtype=z.dtype), grad)


# -- the Var walk -------------------------------------------------------------

class _Run:
    """The batch, mode and tape, and the tensors: the training state's when it holds
    them, else the node's."""

    def __init__(self, x, mode, tape, state):
        self.x, self.mode, self.tape = x, mode, tape
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


def _batchnorm(run, n, ins):
    out, mean, var = batchnorm(run.tape, ins[0], run.param(n, "gamma"), run.param(n, "beta"),
                               n.attrs.get("eps", BN_EPS))
    run.track(n, "running_mean", mean)
    run.track(n, "running_var", var)
    return out


def _fakequant(run, n, ins):
    if n.attrs.get("phase", "disabled") == "disabled":
        return identity(run.tape, ins[0])
    return QDQ(run.tape, ins[0], float(n.params["amax"][0]) / QMAX)


FORWARD = {
    "input": lambda run, n, ins: Var(np.ascontiguousarray(run.x), stop_grad=True),
    "output": lambda run, n, ins: identity(run.tape, ins[0]),
    "conv": lambda run, n, ins: conv2d(
        run.tape, ins[0], run.param(n, "weight"), run.param(n, "bias"),
        n.attrs.get("stride", 1), n.attrs.get("padding", 0)),
    "batchnorm": _batchnorm,
    "activation": lambda run, n, ins: (SILU if n.attrs["fn"] == "silu" else sigmoid)(
        run.tape, ins[0]),
    "maxpool": lambda run, n, ins: maxpool2d(
        run.tape, ins[0], n.attrs["k"], n.attrs.get("stride", n.attrs["k"]),
        n.attrs.get("padding", 0)),
    "gap": lambda run, n, ins: global_avg_pool(run.tape, ins[0]),
    "linear": lambda run, n, ins: linear(run.tape, ins[0], run.param(n, "weight"),
                                         run.param(n, "bias")),
    "concat": lambda run, n, ins: concat_channels(run.tape, ins),
    "add": lambda run, n, ins: reduce(lambda a, b: add(run.tape, a, b), ins),
    "mul": lambda run, n, ins: reduce(lambda a, b: multiply(run.tape, a, b), ins),
    "addconst": lambda run, n, ins: add_const(run.tape, ins[0], n.attrs["c"]),
    "split": lambda run, n, ins: split_channels(run.tape, ins[0], n.attrs["sizes"]),
    "scale": lambda run, n, ins: scale_channels(run.tape, ins[0], run.param(n, "scale")),
    "fakequant": _fakequant,
}


def run_graph(graph, x, *, mode="eval", tape=None, state=None, outputs=None):
    """A taped training run (``mode="train"`` with a tape); returns Vars by node id."""
    assert mode == "train" and tape is not None
    wanted = list(outputs) if outputs is not None else graph.output_ids
    plan = graph.schedule(wanted)
    values = {}
    run = _Run(x, mode, tape, state)
    for n, last_read in plan:
        out = FORWARD[n.kind](run, n, [values[ref] for ref in n.inputs])
        for p, v in enumerate(out if isinstance(out, list) else [out]):
            values[(n.id, p)] = v
        for ref in last_read:
            del values[ref]
    return {n.id: values[(n.id, 0)] for n, _ in plan if n.id in wanted}
