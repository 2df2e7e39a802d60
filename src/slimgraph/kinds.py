"""One specification per node kind; every pass reads its per-kind rules here.

``SPECS`` maps each kind to a frozen :class:`OpSpec`. Validation, shape
inference, the executor, channel-group resolution and costs, pruning,
zero-embedding and FLOP counting read it instead of branching on kinds, so a
new kind is one entry. ``params`` maps each tensor to a shape template:
``"out"``/``"in"`` is the channel count of output/input port 0 and marks an
axis that pruning slices (a prune axis), ``None`` is any size and an int a
fixed one. ``coupling`` is one of the five channel-tie rules below.

Each kind has one forward rule, ``array``, on plain arrays, which every run
walks. In a taped run it also saves on the tape what the kind's ``backward``
rule reads: conv its patch matrix, batchnorm its cache, sigmoid its output,
SiLU its derivative, an active quantizer its clip mask, maxpool its argmax, mul,
linear and scale their operands, and concat, split and gap the shapes they
need. ``backward`` maps that and the upstream gradient of each output port to
the gradient of each input and of each trained tensor. Both rules reach
operators through their modules at call time, so a tracer that rebinds module
attributes sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate
from typing import Callable

import numpy as np

from . import ops
from .errors import GraphError, QuantError, ShapeError

PHASES = ("disabled", "active")               # quantizer lifecycle, in order
_ACTIVATION_FLOPS = {"silu": 4, "sigmoid": 3}  # per output element
_BN_EPS = 1e-5                                 # a batchnorm's eps when its node sets none

# -- channel coupling: (input widths, output widths) -> ties (port_a, offset_a,
# port_b, offset_b, length), each coupling channel offset_a + k of port_a with
# channel offset_b + k of port_b; a port is ("in" | "out", index) on the node.


def decouple(ins, outs):  # the weight matrix mixes channels: nothing ties across the node
    return []


def through(ins, outs):  # channel k of the input is channel k of the output
    return [(("in", 0), 0, ("out", 0), 0, ins[0])]


def tie_all(ins, outs):  # every operand and the result share channel k (residual and gating)
    return [(("in", 0), 0, port, 0, ins[0])
            for port in [("in", i) for i in range(1, len(ins))] + [("out", 0)]]


def concat(ins, outs):  # each input ties to its range of the output
    return [(("in", i), 0, ("out", 0), off, w)
            for i, (off, w) in enumerate(zip(accumulate(ins, initial=0), ins))]


def split(ins, outs):  # each output ties to its range of the input
    return [(("out", p), 0, ("in", 0), off, w)
            for p, (off, w) in enumerate(zip(accumulate(outs, initial=0), outs))]


@dataclass(frozen=True)
class OpSpec:
    array: Callable                   # (run context, node, input arrays) -> array, or one per port
    backward: Callable | None         # (node, saved, upstream gradient per port) ->
    #                                   (gradient per input, {trained tensor: gradient})
    arity: int = 1                    # input count; the least one when variadic
    variadic: bool = False
    ports: Callable = lambda attrs: 1                 # output port count
    attrs: dict = field(default_factory=dict)         # name -> (required, description, check)
    params: dict = field(default_factory=dict)        # tensor name -> shape template
    optional: tuple = ()              # tensors that may be absent
    buffers: tuple = ()               # tensors never trained
    shape: Callable = lambda n, ins: [ins[0]]         # (node, input shapes) -> shape per port
    coupling: Callable = through
    flops: Callable = lambda n, ins, outs: 0          # (node, in shapes, out shapes) -> FLOPs
    resize: Callable | None = None    # (attrs, kept(port, width)) -> attrs after pruning

    @cached_property
    def trainable(self) -> tuple:
        return tuple(name for name in self.params if name not in self.buffers)

    @cached_property
    def filters(self) -> tuple:  # channel-mixing tensors: rows follow out, columns in
        return tuple(name for name, t in self.params.items() if "out" in t and "in" in t)


# -- attribute schema entries: (required, description, check) -----------------

def is_int(v, lo=0) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _int(lo, required=False):
    return required, f"an int >= {lo}", lambda v: is_int(v, lo)


def _one_of(choices, required=False):
    return required, f"one of {list(choices)}", lambda v: isinstance(v, str) and v in choices


# -- shape, FLOP, forward and backward rules ----------------------------------

def _rank(n, s, r):
    if len(s) != r:
        raise GraphError(f"{n.kind} {n.id!r} needs a {r}-D input, got {s}")
    return s


def _conv_args(n, stride=1):
    """(stride, padding) of a window node; a pool's stride defaults to its k."""
    return n.attrs.get("stride", stride), n.attrs.get("padding", 0)


def _pool_args(n):
    return n.attrs["k"], *_conv_args(n, n.attrs["k"])


def _window(n, s, out_dims, *window):
    """out_dims(H, W, *window), with its ShapeError raised as a GraphError."""
    _rank(n, s, 4)
    try:
        return out_dims(s[2], s[3], *window)
    except ShapeError as e:
        raise GraphError(f"{n.kind} {n.id!r}: {e}") from None


def _conv_shape(n, ins):
    s, w = ins[0], n.params["weight"]
    return [(s[0], w.shape[0]) + _window(n, s, ops._conv_out_dims, *w.shape[2:], *_conv_args(n))]


def _pool_shape(n, ins):
    return [ins[0][:2] + _window(n, ins[0], ops._pool_out_dims, *_pool_args(n))]


def _equal_shapes(n, ins):
    for i, s in enumerate(ins[1:], start=1):
        if s != ins[0]:
            raise GraphError(f"{n.kind} {n.id!r} shape mismatch between producers "
                             f"{n.inputs[0][0]!r} {ins[0]} and {n.inputs[i][0]!r} {s}")
    return [ins[0]]


def _concat_shape(n, ins):
    s0 = ins[0]
    for i, s in enumerate(ins[1:], start=1):
        if len(s) != len(s0) or s[0] != s0[0] or s[2:] != s0[2:]:
            raise GraphError(f"concat {n.id!r} non-channel dims differ: "
                             f"{n.inputs[0][0]!r} {s0} vs {n.inputs[i][0]!r} {s}")
    return [(s0[0], sum(s[1] for s in ins)) + s0[2:]]


def _split_shape(n, ins):
    s, sizes = ins[0], n.attrs["sizes"]
    if sum(sizes) != s[1]:
        raise GraphError(f"split {n.id!r} sizes {sizes} do not sum to input channels {s[1]}")
    return [(s[0], size) + s[2:] for size in sizes]


def _per_output(k):
    return lambda n, ins, outs: k * math.prod(outs[0])


def _matmul_flops(n, ins, outs):
    """Per output element: a multiply-add per input channel and kernel tap, plus the bias."""
    taps = math.prod(n.params["weight"].shape[2:])
    return math.prod(outs[0]) * (2 * ins[0][1] * taps + ("bias" in n.params))


def _saved(run, n, y, *saved):
    """``y``; with a tape, ``n`` is recorded with ``saved``."""
    if run.tape is not None:
        run.tape.save(n, *saved)
    return y


def _pass(run, n, ins):
    """The input, passed on; with a tape, its gradient passes back unless it is pure data."""
    if run.tape is not None and run.tape.takes_grad(n):
        run.tape.save(n)
    return ins[0]


def _same(n, saved, g):
    """The gradient of each input is the upstream gradient."""
    return [g[0]] * len(n.inputs), {}


def _batchnorm(run, n, ins):
    gamma, beta, eps = run.array(n, "gamma"), run.array(n, "beta"), n.attrs.get("eps", _BN_EPS)
    if run.mode == "eval":
        return ops.batchnorm_infer(ins[0], gamma, beta, run.array(n, "running_mean"),
                                   run.array(n, "running_var"), eps)
    out, cache = ops.batchnorm_train_forward(ins[0], gamma, beta, eps,
                                             need_cache=run.tape is not None)
    run.track(n, "running_mean", cache[2])
    run.track(n, "running_var", cache[3])
    return _saved(run, n, out, gamma, cache)


def _batchnorm_backward(n, saved, g):
    gx, dgamma, dbeta = ops.batchnorm_train_backward(g[0], *saved)
    return [gx], {"gamma": dgamma, "beta": dbeta}


def _conv(run, n, ins):
    w, b = run.array(n, "weight"), run.array(n, "bias")
    y, cols = ops.conv2d_forward(ins[0], w, b, *_conv_args(n), need_cols=run.tape is not None)
    if run.tape is not None:  # pure data takes no input gradient
        run.tape.save(n, cols, ins[0].shape, w, b is not None, run.tape.takes_grad(n))
    return y


def _conv_backward(n, saved, g):
    cols, x_shape, w, with_bias, need_gx = saved
    gx, gw, gb = ops.conv2d_backward(g[0], x_shape, w, cols, *_conv_args(n),
                                     with_bias=with_bias, need_gx=need_gx)
    return [gx], {"weight": gw, "bias": gb}


def _activation(n) -> str:
    if n.attrs["fn"] not in _ACTIVATION_FLOPS:
        raise GraphError(f"unknown activation {n.attrs['fn']!r} on node {n.id!r}")
    return n.attrs["fn"]


def _activation_array(run, n, ins):
    fn, s = _activation(n), ops.sigmoid(ins[0])
    if fn == "sigmoid":
        return _saved(run, n, s, s)
    if run.tape is not None:  # taken before x·s is written into the sigmoid's buffer
        run.tape.save(n, ops.silu_derivative(ins[0], s))
    return np.multiply(ins[0], s, out=s)


def _activation_backward(n, saved, g):
    if n.attrs["fn"] == "silu":  # the tape runs each rule once: the derivative is spent
        return [np.multiply(saved[0], g[0], out=saved[0])], {}
    t = 1.0 - saved[0]  # g·s·(1-s) in one buffer
    t *= saved[0]
    t *= g[0]
    return [t], {}


def _maxpool(run, n, ins):
    """The argmax, which routes the gradient, is computed only when a tape records it."""
    y, arg = ops.maxpool2d_forward(ins[0], *_pool_args(n), need_arg=run.tape is not None)
    return _saved(run, n, y, arg, ins[0].shape)


def _gap_backward(n, saved, g):
    (b, c, h, w), = saved
    return [np.broadcast_to(g[0][:, :, None, None] / (h * w), (b, c, h, w)).astype(g[0].dtype)], {}


def _linear(run, n, ins):
    w, b = run.array(n, "weight"), run.array(n, "bias")
    return _saved(run, n, ops.linear(ins[0], w, b), ins[0], w, b is not None)


def _linear_backward(n, saved, g):
    (x, w, with_bias), g = saved, g[0]
    return [g @ w], {"weight": g.T @ x, "bias": g.sum(axis=0) if with_bias else None}


def _concat(run, n, ins):
    if run.tape is not None:
        run.tape.save(n, [x.shape[1] for x in ins])
    return ops.concat_channels(ins)


def _concat_backward(n, saved, g):
    return [g[0][:, off:off + w] for off, w in zip(accumulate(saved[0], initial=0), saved[0])], {}


def _mul(run, n, ins):
    products = list(accumulate(ins, ops.multiply))
    if run.tape is not None:  # each multiply's operands
        run.tape.save(n, ins, products[:-1])
    return products[-1]


def _mul_backward(n, saved, g):
    """Through each multiply from the last: its right operand takes the gradient times
    its left, and the product on the left the gradient times its right."""
    (ins, lefts), g = saved, g[0]
    grads = [None] * len(ins)
    for i in range(len(ins) - 1, 0, -1):
        grads[i] = g * lefts[i - 1]
        g = g * ins[i]
    grads[0] = g
    return grads, {}


def _split_backward(n, saved, g):
    """Each port's gradient in a zero map of the input's shape, the maps summed from the
    last port. The sum turns a -0.0 cell into +0.0, which one map filled port by port
    would keep."""
    sizes, gx = n.attrs["sizes"], None
    for off, size, gp in reversed(list(zip(accumulate(sizes, initial=0), sizes, g))):
        if gp is not None:
            part = np.zeros(*saved)
            part[:, off:off + size] = gp
            gx = part if gx is None else gx + part
    return [gx], {}


def _scale(run, n, ins):
    s = run.array(n, "scale")
    return _saved(run, n, ops.scale_channels(ins[0], s), ins[0], s)


def _scale_backward(n, saved, g):
    (x, s), g = saved, g[0]
    return [g * s[None, :, None, None]], {"scale": (g * x).sum(axis=(0, 2, 3))}


def _qdq_scale(n) -> float | None:
    """An active quantizer's scale; None for a disabled one, which passes its input on."""
    phase = n.attrs.get("phase", "disabled")
    if phase == "active":
        amax = float(n.params["amax"][0])
        if not 0 < amax < math.inf:
            raise QuantError(f"quantizer {n.id!r} is active but its amax {amax} is not in (0, inf)")
        return amax / ops.QMAX
    if phase not in PHASES:
        raise QuantError(f"quantizer {n.id!r} has unknown phase {phase!r}")
    return None


def _fakequant(run, n, ins):
    scale = _qdq_scale(n)
    if scale is None:
        return _pass(run, n, ins)
    y = ops.qdq(ins[0], scale)
    if run.tape is not None and run.tape.takes_grad(n):  # pure data takes no mask
        run.tape.save(n, ops.ste_mask(ins[0], scale))
    return y


def _fakequant_backward(n, saved, g):
    """The clipped straight-through estimator; a disabled quantizer saved no mask."""
    return [ops.qdq_backward(g[0], *saved) if saved else g[0]], {}


_BN = ("gamma", "beta", "running_mean", "running_var")

SPECS: dict[str, OpSpec] = {
    "input": OpSpec(  # the batch is pure data: never recorded, it takes no gradient
        arity=0, coupling=decouple, array=lambda run, n, ins: np.ascontiguousarray(run.x),
        backward=None),
    "output": OpSpec(coupling=decouple, array=_pass, backward=_same),
    "conv": OpSpec(
        attrs={"stride": _int(1), "padding": _int(0)},
        params={"weight": ("out", "in", None, None), "bias": ("out",)}, optional=("bias",),
        shape=_conv_shape, coupling=decouple, flops=_matmul_flops,
        array=_conv, backward=_conv_backward),
    "batchnorm": OpSpec(
        attrs={"eps": (False, "a positive finite number", lambda v: _is_number(v) and v > 0)},
        params={name: ("out",) for name in _BN}, buffers=_BN[2:],
        flops=_per_output(2), array=_batchnorm, backward=_batchnorm_backward),
    "activation": OpSpec(
        attrs={"fn": _one_of(_ACTIVATION_FLOPS, required=True)},
        flops=lambda n, ins, outs: _ACTIVATION_FLOPS[n.attrs["fn"]] * math.prod(outs[0]),
        array=_activation_array, backward=_activation_backward),
    "maxpool": OpSpec(
        attrs={"k": _int(1, required=True), "stride": _int(1), "padding": _int(0)},
        shape=_pool_shape, flops=_per_output(1), array=_maxpool,
        backward=lambda n, saved, g: ([ops.maxpool2d_backward(g[0], *saved, *_pool_args(n))], {})),
    "gap": OpSpec(
        shape=lambda n, ins: [_rank(n, ins[0], 4)[:2]],
        flops=lambda n, ins, outs: math.prod(ins[0]),  # one add per input element
        array=lambda run, n, ins: _saved(run, n, ops.global_avg_pool(ins[0]), ins[0].shape),
        backward=_gap_backward),
    "linear": OpSpec(
        params={"weight": ("out", "in"), "bias": ("out",)}, optional=("bias",),
        shape=lambda n, ins: [(_rank(n, ins[0], 2)[0], n.params["weight"].shape[0])],
        coupling=decouple, flops=_matmul_flops, array=_linear, backward=_linear_backward),
    "concat": OpSpec(
        arity=2, variadic=True, shape=_concat_shape, coupling=concat,
        array=_concat, backward=_concat_backward),
    "add": OpSpec(
        arity=2, variadic=True, shape=_equal_shapes, coupling=tie_all, flops=_per_output(1),
        array=lambda run, n, ins: _saved(run, n, reduce(ops.add, ins)), backward=_same),
    "mul": OpSpec(
        arity=2, variadic=True, shape=_equal_shapes, coupling=tie_all, flops=_per_output(1),
        array=_mul, backward=_mul_backward),
    "addconst": OpSpec(
        attrs={"c": (True, "a finite number", _is_number)}, flops=_per_output(1),
        array=lambda run, n, ins: _saved(run, n, ins[0] + n.attrs["c"]), backward=_same),
    "split": OpSpec(
        ports=lambda attrs: len(attrs["sizes"]),
        attrs={"sizes": (True, "a non-empty list of ints >= 1", lambda v: isinstance(
            v, (list, tuple)) and len(v) > 0 and all(is_int(s, 1) for s in v))},
        shape=_split_shape, coupling=split, backward=_split_backward,
        array=lambda run, n, ins: _saved(run, n, ops.split_channels(ins[0], n.attrs["sizes"]),
                                         ins[0].shape, ins[0].dtype),
        resize=lambda attrs, kept: {
            **attrs, "sizes": [kept(p, size) for p, size in enumerate(attrs["sizes"])]}),
    "scale": OpSpec(
        params={"scale": ("out",)}, flops=_per_output(1), array=_scale, backward=_scale_backward),
    "fakequant": OpSpec(
        attrs={"phase": _one_of(PHASES), "samples": _int(0)},
        params={"amax": (1,)}, buffers=("amax",), array=_fakequant, backward=_fakequant_backward),
}


def spec_of(n) -> OpSpec:
    """The spec of n's kind; an unknown kind is a GraphError naming it and the node."""
    if n.kind not in SPECS:
        raise GraphError(f"unknown node kind {n.kind!r} for node {n.id!r}")
    return SPECS[n.kind]


def check_node(n) -> None:
    """Arity, attrs, and tensor names and ranks of one node against its spec."""
    spec = spec_of(n)
    k = len(n.inputs)
    if k < spec.arity if spec.variadic else k != spec.arity:
        need = f">= {spec.arity}" if spec.variadic else spec.arity
        raise GraphError(f"node {n.id!r} kind {n.kind} expects {need} inputs, got {k}")
    for name, (required, desc, ok) in spec.attrs.items():
        if name in n.attrs and not ok(n.attrs[name]):
            raise GraphError(f"node {n.id!r} attr {name!r} = {n.attrs[name]!r} is not {desc}")
        if required and name not in n.attrs:
            raise GraphError(f"node {n.id!r} kind {n.kind} lacks the attr {name!r}")
    for name, template in spec.params.items():
        if name not in n.params and name not in spec.optional:
            raise GraphError(f"node {n.id!r} kind {n.kind} lacks the tensor {name!r}")
        if name in n.params and n.params[name].ndim != len(template):
            raise GraphError(f"node {n.id!r} tensor {name!r} is not {len(template)}-D")
    for what, have, known in (("attr", n.attrs, spec.attrs), ("tensor", n.params, spec.params)):
        if not have.keys() <= known.keys():
            extra = min(have.keys() - known.keys())
            raise GraphError(f"node {n.id!r} kind {n.kind} has no {what} {extra!r}")


def check_widths(n, ins, outs) -> None:
    """Each prune axis and fixed size of the node's tensors against its port shapes."""
    width = {"in": ins[0][1] if ins else None, "out": outs[0][1]}
    for name, template in SPECS[n.kind].params.items():
        for axis, t in enumerate(template if name in n.params else ()):
            want, got = width.get(t, t), n.params[name].shape[axis]
            if want is not None and got != want:
                what = f"{t}put channels" if t in width else "size"
                raise GraphError(f"{n.kind} {n.id!r} {what} {want} != {name} axis {axis} size {got}"
                                 + (f" (producer {n.inputs[0][0]!r})" if t == "in" else ""))
