"""One specification per node kind; every pass reads its per-kind rules here.

``SPECS`` maps each kind to a frozen :class:`OpSpec`. Validation, shape
inference, the executor, channel-group resolution and costs, pruning,
zero-embedding and FLOP counting read it instead of branching on kinds, so a
new kind is one entry. ``params`` maps each tensor to a shape template:
``"out"``/``"in"`` is the channel count of output/input port 0 and marks an
axis that pruning slices (a prune axis), ``None`` is any size and an int a
fixed one. ``coupling`` is one of the five channel-tie rules below.

Each kind has two forward rules. ``forward`` works on autograd ``Var``s through
the :mod:`slimgraph.autograd` wrappers, and is what a taped (training) run
records. ``array`` works on plain arrays and is what every untaped run uses:
it calls the same :mod:`slimgraph.ops` kernel with the same arguments as the
wrapper, so both give the same bits, but makes no ``Var`` and no closure.
Both reach operators through their modules at call time, so a tracer that
rebinds module attributes sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate
from typing import Callable

import numpy as np

from . import autograd as ag
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
    forward: Callable                 # (run context, node, input Vars) -> Var, or one per port
    array: Callable                   # the same on plain arrays, for untaped runs
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


# -- shape, FLOP and forward rules -------------------------------------------

def _rank(n, s, r):
    if len(s) != r:
        raise GraphError(f"{n.kind} {n.id!r} needs a {r}-D input, got {s}")
    return s


def _window(n, s, out_dims, *window):
    """out_dims(H, W, *window, padding), with its ShapeError raised as a GraphError."""
    _rank(n, s, 4)
    try:
        return out_dims(s[2], s[3], *window, n.attrs.get("padding", 0))
    except ShapeError as e:
        raise GraphError(f"{n.kind} {n.id!r}: {e}") from None


def _conv_shape(n, ins):
    s, w = ins[0], n.params["weight"]
    return [(s[0], w.shape[0])
            + _window(n, s, ops._conv_out_dims, *w.shape[2:], n.attrs.get("stride", 1))]


def _pool_shape(n, ins):
    s, k = ins[0], n.attrs["k"]
    return [s[:2] + _window(n, s, ops._pool_out_dims, k, n.attrs.get("stride", k))]


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


def _batchnorm_forward(run, n, ins):
    out, mean, var = ag.batchnorm(
        run.tape, ins[0], run.param(n, "gamma"), run.param(n, "beta"),
        run.array(n, "running_mean"), run.array(n, "running_var"),
        n.attrs.get("eps", _BN_EPS), run.mode != "eval")
    run.track(n, "running_mean", mean)
    run.track(n, "running_var", var)
    return out


def _batchnorm_array(run, n, ins):
    gamma, beta, eps = run.array(n, "gamma"), run.array(n, "beta"), n.attrs.get("eps", _BN_EPS)
    if run.mode == "eval":
        return ops.batchnorm_infer(ins[0], gamma, beta, run.array(n, "running_mean"),
                                   run.array(n, "running_var"), eps)
    out, cache = ops.batchnorm_train_forward(ins[0], gamma, beta, eps)
    run.track(n, "running_mean", cache[2])
    run.track(n, "running_var", cache[3])
    return out


def _activation(n) -> str:
    if n.attrs["fn"] not in _ACTIVATION_FLOPS:
        raise GraphError(f"unknown activation {n.attrs['fn']!r} on node {n.id!r}")
    return n.attrs["fn"]


def _activation_array(run, n, ins):
    fn, s = _activation(n), ops.sigmoid(ins[0])
    return s if fn == "sigmoid" else np.multiply(ins[0], s, out=s)  # silu, as ag.silu


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


_BN = ("gamma", "beta", "running_mean", "running_var")

SPECS: dict[str, OpSpec] = {
    "input": OpSpec(
        arity=0, coupling=decouple,
        forward=lambda run, n, ins: ag.Var(np.ascontiguousarray(run.x), stop_grad=True),
        array=lambda run, n, ins: np.ascontiguousarray(run.x)),
    "output": OpSpec(
        coupling=decouple, forward=lambda run, n, ins: ag.identity(run.tape, ins[0]),
        array=lambda run, n, ins: ins[0]),
    "conv": OpSpec(
        attrs={"stride": _int(1), "padding": _int(0)},
        params={"weight": ("out", "in", None, None), "bias": ("out",)}, optional=("bias",),
        shape=_conv_shape, coupling=decouple, flops=_matmul_flops,
        forward=lambda run, n, ins: ag.conv2d(
            run.tape, ins[0], run.param(n, "weight"), run.param(n, "bias"),
            n.attrs.get("stride", 1), n.attrs.get("padding", 0)),
        array=lambda run, n, ins: ops.conv2d_forward(
            ins[0], run.array(n, "weight"), run.array(n, "bias"),
            n.attrs.get("stride", 1), n.attrs.get("padding", 0))[0]),
    "batchnorm": OpSpec(
        attrs={"eps": (False, "a positive finite number", lambda v: _is_number(v) and v > 0)},
        params={name: ("out",) for name in _BN}, buffers=_BN[2:],
        flops=_per_output(2), forward=_batchnorm_forward, array=_batchnorm_array),
    "activation": OpSpec(
        attrs={"fn": _one_of(_ACTIVATION_FLOPS, required=True)},
        flops=lambda n, ins, outs: _ACTIVATION_FLOPS[n.attrs["fn"]] * math.prod(outs[0]),
        forward=lambda run, n, ins: getattr(ag, _activation(n))(run.tape, ins[0]),
        array=_activation_array),
    "maxpool": OpSpec(
        attrs={"k": _int(1, required=True), "stride": _int(1), "padding": _int(0)},
        shape=_pool_shape, flops=_per_output(1),
        forward=lambda run, n, ins: ag.maxpool2d(
            run.tape, ins[0], n.attrs["k"], n.attrs.get("stride", n.attrs["k"]),
            n.attrs.get("padding", 0)),
        array=lambda run, n, ins: ops.maxpool2d_forward(
            ins[0], n.attrs["k"], n.attrs.get("stride", n.attrs["k"]),
            n.attrs.get("padding", 0))[0]),
    "gap": OpSpec(
        shape=lambda n, ins: [_rank(n, ins[0], 4)[:2]],
        flops=lambda n, ins, outs: math.prod(ins[0]),  # one add per input element
        forward=lambda run, n, ins: ag.global_avg_pool(run.tape, ins[0]),
        array=lambda run, n, ins: ops.global_avg_pool(ins[0])),
    "linear": OpSpec(
        params={"weight": ("out", "in"), "bias": ("out",)}, optional=("bias",),
        shape=lambda n, ins: [(_rank(n, ins[0], 2)[0], n.params["weight"].shape[0])],
        coupling=decouple, flops=_matmul_flops,
        forward=lambda run, n, ins: ag.linear(run.tape, ins[0], run.param(n, "weight"),
                                              run.param(n, "bias")),
        array=lambda run, n, ins: ops.linear(ins[0], run.array(n, "weight"),
                                             run.array(n, "bias"))),
    "concat": OpSpec(
        arity=2, variadic=True, shape=_concat_shape, coupling=concat,
        forward=lambda run, n, ins: ag.concat_channels(run.tape, ins),
        array=lambda run, n, ins: ops.concat_channels(ins)),
    "add": OpSpec(
        arity=2, variadic=True, shape=_equal_shapes, coupling=tie_all, flops=_per_output(1),
        forward=lambda run, n, ins: reduce(lambda a, b: ag.add(run.tape, a, b), ins),
        array=lambda run, n, ins: reduce(ops.add, ins)),
    "mul": OpSpec(
        arity=2, variadic=True, shape=_equal_shapes, coupling=tie_all, flops=_per_output(1),
        forward=lambda run, n, ins: reduce(lambda a, b: ag.multiply(run.tape, a, b), ins),
        array=lambda run, n, ins: reduce(ops.multiply, ins)),
    "addconst": OpSpec(
        attrs={"c": (True, "a finite number", _is_number)}, flops=_per_output(1),
        forward=lambda run, n, ins: ag.add_const(run.tape, ins[0], n.attrs["c"]),
        array=lambda run, n, ins: ins[0] + n.attrs["c"]),
    "split": OpSpec(
        ports=lambda attrs: len(attrs["sizes"]),
        attrs={"sizes": (True, "a non-empty list of ints >= 1", lambda v: isinstance(
            v, (list, tuple)) and len(v) > 0 and all(is_int(s, 1) for s in v))},
        shape=_split_shape, coupling=split,
        forward=lambda run, n, ins: ag.split_channels(run.tape, ins[0], n.attrs["sizes"]),
        array=lambda run, n, ins: ops.split_channels(ins[0], n.attrs["sizes"]),
        resize=lambda attrs, kept: {
            **attrs, "sizes": [kept(p, size) for p, size in enumerate(attrs["sizes"])]}),
    "scale": OpSpec(
        params={"scale": ("out",)}, flops=_per_output(1),
        forward=lambda run, n, ins: ag.scale_channels(run.tape, ins[0], run.param(n, "scale")),
        array=lambda run, n, ins: ops.scale_channels(ins[0], run.array(n, "scale"))),
    "fakequant": OpSpec(
        attrs={"phase": _one_of(PHASES), "samples": _int(0)},
        params={"amax": (1,)}, buffers=("amax",),
        forward=lambda run, n, ins: ag.identity(run.tape, ins[0]) if (s := _qdq_scale(n)) is None
        else ag.qdq(run.tape, ins[0], s),
        array=lambda run, n, ins: ins[0] if (s := _qdq_scale(n)) is None
        else ops.qdq(ins[0], s)),
}


def check_node(n) -> None:
    """Arity, attrs, and tensor names and ranks of one node against its spec."""
    spec = SPECS[n.kind]
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
        extra = sorted(set(have) - set(known))
        if extra:
            raise GraphError(f"node {n.id!r} kind {n.kind} has no {what} {extra[0]!r}")


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
