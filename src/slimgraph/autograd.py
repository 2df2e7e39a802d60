"""Reverse-mode differentiation over the operators in :mod:`slimgraph.ops`.

A ``Tape`` only records: each primitive run with a tape appends its output
and a backward closure, in execution order. ``backward`` replays the records
strictly in reverse and accumulates into each input Var's ``.grad``; a Var
the forward pass never reached keeps ``grad=None``. Callers read gradients
off the Vars they hold.

What a tape holds, and when it lets go:

* Each closure captures the arrays its gradient formula reads, taken at
  forward time: conv its patch matrix (the largest term), batchnorm its
  normalized map, sigmoid its output, SiLU its derivative, qdq its clip mask
  (one byte per element), linear, multiply and scale the operands they
  multiply, and maxpool its argmax; concat, split, average pooling and conv
  keep only the shapes they need, and identity nothing. Called without a
  tape, the wrappers take no derivative and no mask; an untaped ``run_graph``
  calls none of them, but the array rules of :mod:`slimgraph.kinds`. No
  closure reads an input Var's ``.value``, and ``identity`` gives a rule that
  passes its input on a Var of its own, so each Var sits on one graph edge
  and a taped ``run_graph`` can drop each activation (``Var.value = None``)
  once that edge's last reader has run; the Var stays, as the place its
  gradient accumulates.
* A tape is used once. ``backward`` pops each record before running it, so
  its closure and what it captured are freed as the pass goes, and clears an
  op output's ``.grad`` once that gradient has been passed on. Leaves
  (parameters, inputs: Vars no record outputs) keep their gradients.
  ``len(tape)`` still counts every record made.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .errors import GraphError, ShapeError


class Var:
    """A value flowing through a taped forward pass.

    ``stop_grad`` marks pure data (e.g. the network input): operators skip
    computing its upstream gradient entirely. A taped ``run_graph`` sets
    ``value`` to None once no later node reads it (backward never does), and
    ``backward`` resets an op output's ``grad`` to None once it is passed on.
    """

    __slots__ = ("value", "grad", "stop_grad")

    def __init__(self, value, stop_grad=False):
        self.value = value
        self.grad = None
        self.stop_grad = stop_grad

    def __repr__(self):
        shape = "released" if self.value is None else self.value.shape
        return f"Var(shape={shape}, grad={'set' if self.grad is not None else 'none'})"


def _accum(var: Var, g):
    # accumulation always rebinds, so aliasing the upstream gradient is safe
    var.grad = g if var.grad is None else var.grad + g


class Tape:
    """Ordered record of executed primitives and their backward closures; single-use."""

    def __init__(self):
        self._records = []  # (output Var, backward closure), consumed by backward
        self._made = 0
        self._spent = False

    def record(self, out: Var, backward_fn):
        self._records.append((out, backward_fn))
        self._made += 1

    def __len__(self):
        """Records made, including those ``backward`` has consumed."""
        return self._made


def backward(tape: Tape, loss: Var) -> None:
    """Run the tape in reverse from a scalar loss, accumulating into ``.grad``.

    Consumes the tape: each record is popped before it runs, so its closure and
    the arrays it captured are freed as the pass goes, and each op output's
    ``.grad`` is reset to None once passed on. Only leaves keep gradients, and
    a second ``backward`` on the same tape raises ``GraphError``.
    """
    if tape._spent:
        raise GraphError("this tape has run backward already; record a new one")
    if loss.value.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    tape._spent = True
    loss.grad = np.ones_like(loss.value)
    records = tape._records
    while records:
        out, fn = records.pop()
        g, out.grad = out.grad, None
        if g is not None:
            fn(g)


def _taped(tape, value, grad, stop_grad=False) -> Var:
    """Wrap a result, recording its backward closure if taping and differentiable."""
    out = Var(value, stop_grad)
    if tape is not None and not stop_grad:
        tape.record(out, grad)
    return out


# ---------------------------------------------------------------------------
# differentiable wrappers; tape=None degrades to a plain forward computation
# ---------------------------------------------------------------------------

def identity(tape, x: Var) -> Var:
    """A new Var on the same array, its gradient passed on unchanged. A rule that
    passes its input on returns this, so that no Var sits on two edges."""
    return _taped(tape, x.value, lambda g: _accum(x, g), stop_grad=x.stop_grad)


def conv2d(tape, x: Var, w: Var, b: Var | None, stride=1, padding=0) -> Var:
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


def batchnorm(tape, x: Var, gamma: Var, beta: Var, mean, var, eps, training: bool) -> Var:
    """Batch statistics when training, stored statistics otherwise.

    ``mean``/``var`` are plain arrays (running statistics, never trained).
    Returns (out, batch_mean, batch_var); the batch stats are None in eval.
    Tapes work in training only: with stored statistics nothing is recorded,
    and ``run_graph`` refuses a tape outside ``mode="train"``.
    """
    if not training:
        y = ops.batchnorm_infer(x.value, gamma.value, beta.value, mean, var, eps)
        return Var(y), None, None
    gv = gamma.value
    y, cache = ops.batchnorm_train_forward(x.value, gv, beta.value, eps)

    def grad(g):
        gx, dgamma, dbeta = ops.batchnorm_train_backward(g, gv, cache)
        _accum(x, gx)
        _accum(gamma, dgamma)
        _accum(beta, dbeta)
    return _taped(tape, y, grad), cache[2], cache[3]


def sigmoid(tape, x: Var) -> Var:
    s = ops.sigmoid(x.value)

    def grad(g):
        t = 1.0 - s  # g*s*(1-s) in one buffer
        t *= s
        t *= g
        _accum(x, t)
    return _taped(tape, s, grad)


def silu_derivative(x, s):
    """d(x·s)/dx = s·(1 + x·(1-s)) for s = sigmoid(x), in one buffer."""
    d = 1.0 - s
    d *= x
    d += 1.0
    d *= s
    return d


def silu(tape, x: Var) -> Var:
    """x·sigmoid(x), written into the sigmoid's buffer. A tape keeps only the
    derivative, taken at forward time before that multiply, so backward is one
    multiply, in place: the tape runs each closure once."""
    xv = x.value
    s = ops.sigmoid(xv)
    d = None if tape is None else silu_derivative(xv, s)

    def grad(g):
        _accum(x, np.multiply(d, g, out=d))
    return _taped(tape, np.multiply(xv, s, out=s), grad)


def add(tape, a: Var, b: Var) -> Var:
    def grad(g):
        _accum(a, g)
        _accum(b, g)
    return _taped(tape, ops.add(a.value, b.value), grad)


def multiply(tape, a: Var, b: Var) -> Var:
    av, bv = a.value, b.value

    def grad(g):
        _accum(a, g * bv)
        _accum(b, g * av)
    return _taped(tape, ops.multiply(av, bv), grad)


def add_const(tape, x: Var, c: float) -> Var:
    return _taped(tape, x.value + c, lambda g: _accum(x, g))


def scale_channels(tape, x: Var, s: Var) -> Var:
    """Per-channel multiplication of a (N,C,H,W) map by a length-C vector."""
    xv, sv = x.value, s.value
    y = ops.scale_channels(xv, sv)

    def grad(g):
        _accum(x, g * sv[None, :, None, None])
        _accum(s, (g * xv).sum(axis=(0, 2, 3)))
    return _taped(tape, y, grad)


def concat_channels(tape, parts: list[Var]) -> Var:
    widths = [p.value.shape[1] for p in parts]

    def grad(g):
        off = 0
        for p, s in zip(parts, widths):
            _accum(p, g[:, off:off + s])
            off += s
    return _taped(tape, ops.concat_channels([p.value for p in parts]), grad)


def split_channels(tape, x: Var, sizes) -> list[Var]:
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


def maxpool2d(tape, x: Var, k, stride, padding) -> Var:
    """Window max. The backward routes each gradient to its window's argmax cell,
    so the kernel computes the argmax only when a tape records the op."""
    shape = x.value.shape
    y, arg = ops.maxpool2d_forward(x.value, k, stride, padding, need_arg=tape is not None)

    def grad(g):
        _accum(x, ops.maxpool2d_backward(g, arg, shape, k, stride, padding))
    return _taped(tape, y, grad)


def global_avg_pool(tape, x: Var) -> Var:
    n, c, h, w = x.value.shape

    def grad(g):
        _accum(x, np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w)).astype(g.dtype))
    return _taped(tape, ops.global_avg_pool(x.value), grad)


def linear(tape, x: Var, w: Var, b: Var | None) -> Var:
    xv, wv = x.value, w.value

    def grad(g):
        _accum(x, g @ wv)
        _accum(w, g.T @ xv)
        if b is not None:
            _accum(b, g.sum(axis=0))
    return _taped(tape, ops.linear(xv, wv, None if b is None else b.value), grad)


def qdq(tape, x: Var, scale: float) -> Var:
    """Quantize-dequantize with clipped straight-through gradients. A tape keeps
    only the clip mask (``ops.ste_mask``, one byte per element), taken at
    forward time; nothing is taken for an untaped or ``stop_grad`` input."""
    xv = x.value
    y = ops.qdq(xv, scale)
    inside = None if tape is None or x.stop_grad else ops.ste_mask(xv, scale)

    def grad(g):
        _accum(x, ops.qdq_backward(g, inside))
    return _taped(tape, y, grad, stop_grad=x.stop_grad)


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
    loss = -logp[np.arange(n), labels].mean()

    def grad(g):
        gz = ez / denom
        gz[np.arange(n), labels] -= 1.0
        _accum(logits, gz * (g / n))
    return _taped(tape, np.asarray(loss, dtype=z.dtype), grad)
