"""Reverse-mode differentiation over the operators in :mod:`slimgraph.ops`.

A ``Tape`` records every primitive in execution order; ``backward`` replays
the records strictly in reverse and accumulates gradients on the variables
that were registered with ``tape.watch``. Variables a forward pass never
touched simply get no entry in the returned gradient map.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .errors import ShapeError


class Var:
    """A value flowing through a taped forward pass.

    ``stop_grad`` marks pure data (e.g. the network input): operators skip
    computing its upstream gradient entirely.
    """

    __slots__ = ("value", "grad", "stop_grad")

    def __init__(self, value, stop_grad=False):
        self.value = value
        self.grad = None
        self.stop_grad = stop_grad

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, grad={'set' if self.grad is not None else 'none'})"


def _accum(var: Var, g):
    # accumulation always rebinds, so aliasing the upstream gradient is safe
    var.grad = g if var.grad is None else var.grad + g


class Tape:
    """Ordered record of executed primitives plus watched parameters."""

    def __init__(self):
        self._records = []  # (output Var, backward closure)
        self._watched = {}  # key -> Var

    def record(self, out: Var, backward_fn):
        self._records.append((out, backward_fn))

    def watch(self, var: Var, key):
        self._watched[key] = var
        return var

    def __len__(self):
        return len(self._records)


def backward(tape: Tape, loss: Var):
    """Run the tape in reverse from a scalar loss; returns {key: gradient}."""
    if loss.value.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    loss.grad = np.ones_like(loss.value)
    for out, fn in reversed(tape._records):
        if out.grad is not None:
            fn(out.grad)
    return {k: v.grad for k, v in tape._watched.items() if v.grad is not None}


# ---------------------------------------------------------------------------
# differentiable wrappers; tape=None degrades to a plain forward computation
# ---------------------------------------------------------------------------

def conv2d(tape, x: Var, w: Var, b: Var | None, stride=1, padding=0) -> Var:
    y, cols = ops.conv2d_forward(x.value, w.value, None if b is None else b.value,
                                 stride, padding)
    out = Var(y)
    if tape is not None:
        def grad(g):
            gx, gw, gb = ops.conv2d_backward(
                g, x.value, w.value, cols, stride, padding,
                with_bias=b is not None, need_gx=not x.stop_grad)
            if gx is not None:
                _accum(x, gx)
            _accum(w, gw)
            if b is not None:
                _accum(b, gb)
        tape.record(out, grad)
    return out


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
    y, cache = ops.batchnorm_train_forward(x.value, gamma.value, beta.value, eps)
    out = Var(y)
    if tape is not None:
        def grad(g):
            gx, dgamma, dbeta = ops.batchnorm_train_backward(g, gamma.value, cache)
            _accum(x, gx)
            _accum(gamma, dgamma)
            _accum(beta, dbeta)
        tape.record(out, grad)
    return out, cache[2], cache[3]


def sigmoid(tape, x: Var) -> Var:
    s = ops.sigmoid(x.value)
    out = Var(s)
    if tape is not None:
        def grad(g):
            t = 1.0 - s  # g*s*(1-s) in one buffer
            t *= s
            t *= g
            _accum(x, t)
        tape.record(out, grad)
    return out


def silu(tape, x: Var) -> Var:
    s = ops.sigmoid(x.value)
    out = Var(x.value * s)
    if tape is not None:
        def grad(g):
            t = 1.0 - s  # g*s*(1 + x*(1-s)) in one buffer
            t *= x.value
            t += 1.0
            t *= s
            t *= g
            _accum(x, t)
        tape.record(out, grad)
    return out


def add(tape, a: Var, b: Var) -> Var:
    out = Var(ops.add(a.value, b.value))
    if tape is not None:
        def grad(g):
            _accum(a, g)
            _accum(b, g)
        tape.record(out, grad)
    return out


def multiply(tape, a: Var, b: Var) -> Var:
    out = Var(ops.multiply(a.value, b.value))
    if tape is not None:
        def grad(g):
            _accum(a, g * b.value)
            _accum(b, g * a.value)
        tape.record(out, grad)
    return out


def add_const(tape, x: Var, c: float) -> Var:
    out = Var(x.value + c)
    if tape is not None:
        def grad(g):
            _accum(x, g)
        tape.record(out, grad)
    return out


def scale_channels(tape, x: Var, s: Var) -> Var:
    """Per-channel multiplication of a (N,C,H,W) map by a length-C vector."""
    if x.value.ndim != 4 or s.value.shape != (x.value.shape[1],):
        raise ShapeError(
            f"scale_channels needs 4-D input and per-channel vector, got {x.value.shape} and {s.value.shape}")
    out = Var(x.value * s.value[None, :, None, None])
    if tape is not None:
        def grad(g):
            _accum(x, g * s.value[None, :, None, None])
            _accum(s, (g * x.value).sum(axis=(0, 2, 3)))
        tape.record(out, grad)
    return out


def concat_channels(tape, parts: list[Var]) -> Var:
    out = Var(ops.concat_channels([p.value for p in parts]))
    if tape is not None:
        sizes = [p.value.shape[1] for p in parts]
        def grad(g):
            off = 0
            for p, s in zip(parts, sizes):
                _accum(p, g[:, off:off + s])
                off += s
        tape.record(out, grad)
    return out


def split_channels(tape, x: Var, sizes) -> list[Var]:
    outs = [Var(v) for v in ops.split_channels(x.value, sizes)]
    if tape is not None:
        # one record per piece; each accumulates into its own slice
        off = 0
        for o, s in zip(outs, sizes):
            def grad(g, off=off, s=s):
                gx = np.zeros_like(x.value)
                gx[:, off:off + s] = g
                _accum(x, gx)
            tape.record(o, grad)
            off += s
    return outs


def maxpool2d(tape, x: Var, k, stride, padding) -> Var:
    y, arg = ops.maxpool2d_forward(x.value, k, stride, padding)
    out = Var(y)
    if tape is not None:
        def grad(g):
            _accum(x, ops.maxpool2d_backward(g, arg, x.value.shape, k, stride, padding))
        tape.record(out, grad)
    return out


def global_avg_pool(tape, x: Var) -> Var:
    out = Var(ops.global_avg_pool(x.value))
    if tape is not None:
        n, c, h, w = x.value.shape
        def grad(g):
            _accum(x, np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w)).astype(g.dtype))
        tape.record(out, grad)
    return out


def linear(tape, x: Var, w: Var, b: Var | None) -> Var:
    out = Var(ops.linear(x.value, w.value, None if b is None else b.value))
    if tape is not None:
        def grad(g):
            _accum(x, g @ w.value)
            _accum(w, g.T @ x.value)
            if b is not None:
                _accum(b, g.sum(axis=0))
        tape.record(out, grad)
    return out


def qdq(tape, x: Var, scale: float) -> Var:
    """Quantize-dequantize with clipped straight-through gradients."""
    from . import fakequant  # local import avoids a module cycle
    out = Var(fakequant.qdq(x.value, scale), stop_grad=x.stop_grad)
    if tape is not None and not x.stop_grad:
        def grad(g):
            _accum(x, fakequant.qdq_backward(g, x.value, scale))
        tape.record(out, grad)
    return out


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
    out = Var(np.asarray(loss, dtype=z.dtype))
    if tape is not None:
        p = ez / denom
        def grad(g):
            gz = p.copy()
            gz[np.arange(n), labels] -= 1.0
            _accum(logits, gz * (g / n))
        tape.record(out, grad)
    return out
