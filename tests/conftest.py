"""Shared fixtures and independent oracles used across the suite."""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import strategies as st

from slimgraph.builders import GraphBuilder
from slimgraph.graph import infer_shapes
from slimgraph.modelio import MAGIC


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
