"""Shared fixtures and independent oracles used across the suite."""

import functools
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import strategies as st

from slimgraph import ops
from slimgraph.builders import GraphBuilder, build_fragment, build_mini_net
from slimgraph.executor import BN_MOMENTUM, RunState, _Run, run_graph
from slimgraph.fakequant import calibrate, insert_fakequant
from slimgraph.graph import Node, infer_shapes
from slimgraph.kinds import SPECS
from slimgraph.modelio import MAGIC


def images(shape, seed=0):
    return np.random.default_rng(seed).normal(0.4, 0.2, shape).astype(np.float32)


@functools.cache
def preset_graph(name):
    """A preset, plain or with calibrated active quantizers (shared: do not mutate)."""
    preset, variant = name.split("-")
    g = build_mini_net(preset, (1, 3, 64, 64), 3, seed=0)
    return g if variant == "plain" else calibrate(insert_fakequant(g), [images((8, 3, 64, 64), 1)])


def settle(graph, x):
    """A copy of ``graph`` whose batchnorm running statistics are the batch statistics of
    ``x`` (the rule of the benchmark's ``settle_batchnorm``). One train-mode forward, with
    no tape, moves each running statistic one momentum step toward its batch value;
    undoing that step recovers the batch statistics."""
    stats = ("running_mean", "running_var")
    bns = [n for n in graph.nodes.values() if n.kind == "batchnorm"]
    state = RunState({}, {(n.id, k): n.params[k] for n in bns for k in stats})
    run_graph(graph, x, mode="train", state=state)
    settled = graph.clone()
    for n in bns:
        for k in stats:
            est = (state.buffers[(n.id, k)] - (1 - BN_MOMENTUM) * n.params[k]) / BN_MOMENTUM
            if k == "running_var":
                est = np.maximum(est, 0.0)
            settled.node(n.id).params[k] = est.astype(np.float32)
    return settled


@functools.cache
def settled_graph(name):
    """``preset_graph(name)`` settled on a fixed batch (shared: do not mutate). A preset's
    default statistics (mean 0, variance 1) shrink activations below half an int8 step, so
    the heads of a calibrated preset read exactly 0; a settled one's do not."""
    return settle(preset_graph(name), images((8, 3, 64, 64), 2))


def assert_same_bits(got, want, what=None):
    """``got`` equals ``want`` bit for bit, in dtype and shape too, and ``want`` is finite
    and not all zero: equal outputs that read exactly 0 or NaN would show nothing."""
    assert np.isfinite(want).all() and want.any(), (what, "all zero or not finite")
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


# the compress benchmark's fragments: each module at three widths on 16x16 maps
FRAGMENTS = [(module, width) for module in ("c3k2", "sppf", "c2psa", "a2c2f", "spab")
             for width in (64, 128, 256)]


@functools.cache
def fragment_graph(module, width):
    """A fragment as the compress benchmark builds it (shared: do not mutate)."""
    kwargs = {} if module == "spab" else {"cout": width}
    return build_fragment(module, (1, width, 16, 16), seed=0, **kwargs)


def largest_conv_temporaries(g, input_shape) -> int:
    """Bytes of the patch matrix that the conv needing most holds at once, in an untaped
    run: that of one chunk of images, or of the whole batch when it fits
    ``ops._COLS_BUDGET`` (none when the conv reads its input as the patches)."""
    shapes = infer_shapes(g, input_shape)
    worst = 0
    for n in g.nodes.values():
        if n.kind != "conv":
            continue
        nb, c = shapes[n.inputs[0]][:2]
        _, _, kh, kw = n.params["weight"].shape
        stride, pad = n.attrs.get("stride", 1), n.attrs.get("padding", 0)
        ho, wo = shapes[(n.id, 0)][2:]
        if kh == kw == stride == 1 and pad == 0:
            continue
        per_image = 4 * c * kh * kw * ho * wo
        chunk = min(nb, max(1, ops._COLS_BUDGET // per_image))
        worst = max(worst, chunk * per_image)
    return worst


def conv2d_reference(x, w, b=None, stride=(1, 1), padding=(0, 0)):
    """Direct nested-loop cross-correlation, independent of the library path."""
    if isinstance(stride, int):
        stride = (stride, stride)
    if isinstance(padding, int):
        padding = (padding, padding)
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.zeros((n, cin, h + 2 * ph, wd + 2 * pw), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    y = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for di in range(kh):
                            for dj in range(kw):
                                acc += xp[ni, ci, i * sh + di, j * sw + dj] * w[co, ci, di, dj]
                    y[ni, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return y


def split_container(data):
    """(topology document, weight blob) of a container."""
    (topo_len,) = struct.unpack_from("<Q", data, 8)
    return json.loads(data[16:16 + topo_len]), data[16 + topo_len:-4]


def container(doc, blob):
    """Container bytes around any JSON document, with valid lengths and CRC."""
    topo = json.dumps(doc).encode("utf-8")
    return (MAGIC + struct.pack("<IQ", 1, len(topo)) + topo + blob
            + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF))


class _OneNodeTape:
    """The tape of a run of one node whose inputs all take gradients: it keeps what the
    node's forward rule saves."""

    def __init__(self):
        self.saved = None

    def save(self, n, *saved):
        self.saved = saved

    def takes_grad(self, n):
        return True


def run_rule(kind, ins, attrs=None, params=None):
    """One node of ``kind`` run on the arrays ``ins`` as a taped run runs it, with every input
    taking a gradient. Returns (output, backward): ``backward(g)`` is the kind's backward rule
    for ``g``, the upstream gradient of each output port, and returns (gradient per input,
    {trained tensor: gradient}). The node reads ``params`` in place."""
    n = Node("n", kind, dict(attrs or {}), params if params is not None else {},
             [(f"in{i}", 0) for i in range(len(ins))])
    tape = _OneNodeTape()
    out = SPECS[kind].array(_Run(None, "train", tape, RunState({}, {})), n, list(ins))
    return out, lambda g: SPECS[kind].backward(n, tape.saved, g)


def finite_difference(f, x, h=1e-3):
    """Central finite differences of a scalar function wrt every element of x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f(x)
        flat[i] = old - h
        fm = f(x)
        flat[i] = old
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_close(a, b, tol):
    """|a-b| <= tol * max(1, |a|, |b|) elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return bool((np.abs(a - b) <= tol * denom).all())


def chain_graph(seed=0):
    """input -> conv_block(3->8,k3) -> conv(8->4,k3) -> output, on 8x8 maps."""
    b = GraphBuilder("chain", (1, 3, 8, 8), seed=seed)
    x = b.add("input", "image", [])
    y = b.conv_block(x, 3, 8, k=3, prefix="blk")
    y = b.conv(y, 8, 4, k=3, prefix="head")
    b.add("output", "out", [y])
    g = b.graph
    g.validate()
    infer_shapes(g)
    return g


def residual_graph(seed=0, c=4):
    """input -> conv_block -> add(x, f(x)) -> conv -> output."""
    b = GraphBuilder("residual", (1, c, 6, 6), seed=seed)
    x = b.add("input", "image", [])
    stem = b.conv_block(x, c, c, k=3, prefix="stem")
    f = b.conv_block(stem, c, c, k=3, prefix="f")
    s = b.add("add", "res", [stem, f])
    y = b.conv(s, c, 3, k=1, prefix="head")
    b.add("output", "out", [y])
    g = b.graph
    g.validate()
    infer_shapes(g)
    return g


def uneven_replication_graph():
    """A 2-wide stem repeated three times by a concat, split 3 + 3 and rejoined
    in reverse order.

    The first split half holds stem channel 0 twice and channel 1 once, the
    second half the reverse, so the two classes of the stem group replicate
    unevenly across the split ports. The head reads stem channel 1 first, so
    the group's local order differs from the stem's channel order.
    """
    b = GraphBuilder("uneven", (1, 3, 4, 4))
    x = b.conv(b.add("input", "image", []), 3, 2, 1, prefix="stem")
    rep = b.add("concat", "rep", [x, x, x])
    sid, _ = b.add("split", "split", [rep], attrs={"sizes": [3, 3]})
    y = b.add("concat", "join", [(sid, 1), (sid, 0)])
    b.add("output", "out", [b.conv(y, 6, 1, 1, prefix="head")])
    g = b.graph
    g.validate()
    infer_shapes(g)
    return g


def uneven_weighted_graph():
    """A 2-wide stem repeated three times by a concat and split 3 + 3 into convs
    with 4 and 5 outputs, rejoined into a one-channel head.

    Stem channel 0 feeds the 4-output conv twice and the 5-output conv once,
    channel 1 the reverse, so removing one stem channel takes away 4 + 2*4 + 5
    = 17 or 4 + 4 + 2*5 = 18 parameters: the classes of one group cost unevenly.
    """
    b = GraphBuilder("uneven_weighted", (1, 3, 4, 4))
    x = b.conv(b.add("input", "image", []), 3, 2, 1, prefix="stem")
    sid, _ = b.add("split", "split", [b.add("concat", "rep", [x, x, x])],
                   attrs={"sizes": [3, 3]})
    y = b.add("concat", "join", [b.conv((sid, 0), 3, 4, 1, prefix="a"),
                                 b.conv((sid, 1), 3, 5, 1, prefix="b")])
    b.add("output", "out", [b.conv(y, 9, 1, 1, prefix="head")])
    g = b.graph
    g.validate()
    infer_shapes(g)
    return g


def two_component_graph():
    """A 4-wide stem repeated three times by a concat, split 5 + 7 into two 1x1
    convs, each feeding its own output.

    The split cuts the second copy of the stem after its channel 0, so the stem's
    channel 0 and its channels 1..3 resolve as two components (lengths 1 and 3)
    with the same ports, aligned into one free group of length 4.
    """
    b = GraphBuilder("two_component", (1, 3, 4, 4))
    x = b.conv(b.add("input", "image", []), 3, 4, 1)
    sid, _ = b.add("split", "split", [b.add("concat", "cat", [x, x, x])], attrs={"sizes": [5, 7]})
    b.add("output", "out", [b.conv((sid, 0), 5, 1, 1)])
    b.add("output", "out", [b.conv((sid, 1), 7, 1, 1)])
    g = b.graph
    g.validate()
    infer_shapes(g)
    return g


def concat_segment_graph():
    """Two 1x1 convs (4 and 6 wide) on the input, concatenated into one 1x1 conv
    that feeds the output.

    The second producer's channels reach the consumer at offset 4, so its group
    takes a concat segment; the first producer's sit at offset 0.
    """
    b = GraphBuilder("concat_segment", (1, 3, 4, 4))
    x = b.add("input", "image", [])
    cat = b.add("concat", "cat", [b.conv(x, 3, 4, 1), b.conv(x, 3, 6, 1)])
    b.add("output", "out", [b.conv(cat, 10, 2, 1)])
    g = b.graph
    g.validate()
    infer_shapes(g)
    return g


@st.composite
def primitive_graphs(draw):
    """Small random DAGs of 1x1 convs, per-channel ops, add/mul, concat and split.

    A stem conv keeps most groups free of the protected input, and a one-channel
    head conv feeds the single output. Splits may cut through the segments of a
    concat that repeats one tensor, which gives groups whose classes replicate
    unevenly across a port.
    """
    b = GraphBuilder("random", (1, draw(st.integers(1, 3)), 4, 4), seed=draw(st.integers(0, 9)))
    x = b.add("input", "image", [])
    width = draw(st.integers(1, 4))
    pool = [(b.conv(x, b.graph.input_shape[1], width, 1), width)]
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(["conv", "batchnorm", "scale", "add", "mul", "concat", "split"]))
        ref, c = draw(st.sampled_from(pool))
        if op == "conv":
            cout = draw(st.integers(1, 4))
            pool.append((b.conv(ref, c, cout, 1), cout))
        elif op == "batchnorm":
            pool.append((b.batchnorm(ref, c), c))
        elif op == "scale":
            pool.append((b.scale(ref, c), c))
        elif op in ("add", "mul"):
            same = [r for r, w in pool if w == c]
            others = draw(st.lists(st.sampled_from(same), min_size=1, max_size=2))
            pool.append((b.add(op, op, [ref] + others), c))
        elif op == "concat":
            others = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
            pool.append((b.add("concat", "cat", [ref] + [r for r, _ in others]),
                         c + sum(w for _, w in others)))
        elif c >= 2:
            cuts = sorted(draw(st.lists(st.integers(1, c - 1), min_size=1, max_size=2, unique=True)))
            sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts + [c])]
            sid, _ = b.add("split", "split", [ref], attrs={"sizes": sizes})
            pool += [((sid, p), size) for p, size in enumerate(sizes)]
    ref, c = draw(st.sampled_from(pool))
    b.add("output", "out", [b.conv(ref, c, 1, 1, prefix="head")])
    g = b.graph
    g.validate()
    infer_shapes(g)
    return g


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0xC0FFEE)
