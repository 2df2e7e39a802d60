"""Builders for the module zoo and the three mini detection-style presets.

Every builder appends primitive nodes to a graph under construction and
returns the (node_id, port) reference of the fragment output. Composite
blocks follow the usual CSP conventions: split halves and pyramid hidden
widths are half the block output width.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError
from .graph import Graph, Node, infer_shapes

PRESETS = ("ecoweed_mini", "y11_mini", "y12_mini")

Ref = tuple[str, int]  # (node_id, out_port)


class GraphBuilder:
    """Accumulates nodes with unique ids and seeded weight initialization."""

    def __init__(self, name: str, input_shape, seed: int = 0, meta: dict | None = None):
        if seed < 0:
            raise GraphError(f"builder seed must be >= 0, got {seed}")
        self.graph = Graph(name, input_shape, meta)
        self.rng = np.random.default_rng(seed)
        self._counts: dict[str, int] = {}

    def _uid(self, prefix: str) -> str:
        k = self._counts.get(prefix, 0)
        self._counts[prefix] = k + 1
        return f"{prefix}.{k}" if k else prefix

    def add(self, kind: str, prefix: str, inputs: list[Ref], attrs=None, params=None,
            protected=False) -> Ref:
        nid = self._uid(prefix)
        self.graph.add(Node(nid, kind, dict(attrs or {}), dict(params or {}),
                            [tuple(r) for r in inputs], protected))
        return (nid, 0)

    # -- parameter initialization --------------------------------------------

    def conv_weight(self, cout, cin, kh, kw):
        bound = float(np.sqrt(1.0 / (cin * kh * kw)))
        return self.rng.uniform(-bound, bound, (cout, cin, kh, kw)).astype(np.float32)

    def linear_weight(self, out, inp):
        bound = float(np.sqrt(1.0 / inp))
        return self.rng.uniform(-bound, bound, (out, inp)).astype(np.float32)

    # -- primitive helpers ----------------------------------------------------

    def conv(self, x: Ref, cin, cout, k=1, stride=1, prefix="conv", protected=False) -> Ref:
        if cin < 1 or cout < 1:
            raise GraphError(f"conv widths must be >= 1, got {cin}->{cout}")
        params = {
            "weight": self.conv_weight(cout, cin, k, k),
            "bias": np.zeros(cout, dtype=np.float32),
        }
        return self.add("conv", prefix, [x],
                        attrs={"stride": int(stride), "padding": int(k) // 2},
                        params=params, protected=protected)

    def batchnorm(self, x: Ref, c, prefix="bn", protected=False) -> Ref:
        params = {
            "gamma": np.ones(c, dtype=np.float32),
            "beta": np.zeros(c, dtype=np.float32),
            "running_mean": np.zeros(c, dtype=np.float32),
            "running_var": np.ones(c, dtype=np.float32),
        }
        return self.add("batchnorm", prefix, [x], attrs={"eps": 1e-3},
                        params=params, protected=protected)

    def act(self, x: Ref, fn="silu", prefix="act", protected=False) -> Ref:
        return self.add("activation", prefix, [x], attrs={"fn": fn}, protected=protected)

    def conv_block(self, x: Ref, cin, cout, k=3, stride=1, prefix="cb", protected=False) -> Ref:
        """conv -> batchnorm -> silu."""
        y = self.conv(x, cin, cout, k, stride, prefix=f"{prefix}.conv", protected=protected)
        y = self.batchnorm(y, cout, prefix=f"{prefix}.bn", protected=protected)
        return self.act(y, "silu", prefix=f"{prefix}.act", protected=protected)

    def scale(self, x: Ref, c, init=1.0, prefix="scale") -> Ref:
        return self.add("scale", prefix, [x],
                        params={"scale": np.full(c, init, dtype=np.float32)})

    def attention_stub(self, x: Ref, c, prefix="att") -> Ref:
        """Content gating stand-in: per-channel scale, 1x1 block, residual add."""
        g = self.scale(x, c, init=1.0, prefix=f"{prefix}.gate")
        y = self.conv_block(g, c, c, k=1, prefix=f"{prefix}.ff")
        return self.add("add", f"{prefix}.add", [x, y])


# ---------------------------------------------------------------------------
# module zoo
# ---------------------------------------------------------------------------

def _csp(b: GraphBuilder, x: Ref, cin, cout, module, prefix, body) -> Ref:
    """The CSP shell: projection, split in halves, ``body(half, width)`` on the second
    half, concat with the first, projection."""
    if cout % 2:
        raise GraphError(f"{module} output width must be even, got {cout}")
    h = cout // 2
    y = b.conv_block(x, cin, cout, k=1, prefix=f"{prefix}.cv1")
    sid, _ = b.add("split", f"{prefix}.split", [y], attrs={"sizes": [h, h]})
    cat = b.add("concat", f"{prefix}.cat", [(sid, 0), body((sid, 1), h)])
    return b.conv_block(cat, cout, cout, k=1, prefix=f"{prefix}.cv2")


def build_c3k2(b: GraphBuilder, x: Ref, cin, cout, n_bottlenecks, shortcut, prefix="c3k2") -> Ref:
    """CSP shell with stacked bottlenecks on the processed half."""
    def body(z: Ref, h) -> Ref:
        for i in range(n_bottlenecks):
            t = b.conv_block(z, h, h, k=3, prefix=f"{prefix}.m{i}.cv1")
            t = b.conv_block(t, h, h, k=3, prefix=f"{prefix}.m{i}.cv2")
            if shortcut:
                # residual needs matching widths; both branches are h by construction
                z = b.add("add", f"{prefix}.m{i}.add", [z, t])
            else:
                z = t
        return z
    return _csp(b, x, cin, cout, "c3k2", prefix, body)


def build_c2psa(b: GraphBuilder, x: Ref, cin, cout, n_blocks, prefix="c2psa") -> Ref:
    """CSP shell with attention stubs on the processed half."""
    def body(z: Ref, h) -> Ref:
        for i in range(n_blocks):
            z = b.attention_stub(z, h, prefix=f"{prefix}.psa{i}")
        return z
    return _csp(b, x, cin, cout, "c2psa", prefix, body)


def build_sppf(b: GraphBuilder, x: Ref, cin, cout, pool_k, prefix="sppf") -> Ref:
    """Projection, three chained stride-1 max pools, 4-way concat, projection."""
    if pool_k % 2 == 0:
        raise GraphError(f"sppf pool kernel must be odd, got {pool_k}")
    h = max(cin // 2, 1)
    y = b.conv_block(x, cin, h, k=1, prefix=f"{prefix}.cv1")
    pool_attrs = {"k": int(pool_k), "stride": 1, "padding": int(pool_k) // 2}
    p1 = b.add("maxpool", f"{prefix}.p1", [y], attrs=pool_attrs)
    p2 = b.add("maxpool", f"{prefix}.p2", [p1], attrs=pool_attrs)
    p3 = b.add("maxpool", f"{prefix}.p3", [p2], attrs=pool_attrs)
    cat = b.add("concat", f"{prefix}.cat", [y, p1, p2, p3])
    return b.conv_block(cat, 4 * h, cout, k=1, prefix=f"{prefix}.cv2")


def build_spab(b: GraphBuilder, x: Ref, c, prefix="spab") -> Ref:
    """Three conv blocks whose output gates the block input on a residual path.

    out = x + x * (sigmoid(out3) - 0.5); out3 width must equal the input width
    so the elementwise gate stays channel-consistent.
    """
    o1 = b.conv_block(x, c, c, k=3, prefix=f"{prefix}.c1_r")
    o2 = b.conv_block(o1, c, c, k=3, prefix=f"{prefix}.c2_r")
    o3 = b.conv_block(o2, c, c, k=3, prefix=f"{prefix}.c3_r")
    s = b.act(o3, "sigmoid", prefix=f"{prefix}.sig")
    gate = b.add("addconst", f"{prefix}.shift", [s], attrs={"c": -0.5})
    m = b.add("mul", f"{prefix}.mul", [x, gate])
    return b.add("add", f"{prefix}.add", [x, m])


def build_a2c2f(b: GraphBuilder, x: Ref, cin, cout, n_blocks, residual, prefix="a2c2f") -> Ref:
    """Projection, sequential attention stubs, projection, scaled residual."""
    if residual and cin != cout:
        raise GraphError(f"a2c2f residual requires cin == cout, got {cin} != {cout}")
    mid = max(cout // 2, 1)
    y = b.conv_block(x, cin, mid, k=1, prefix=f"{prefix}.cv1")
    for i in range(n_blocks):
        y = b.attention_stub(y, mid, prefix=f"{prefix}.ab{i}")
    y = b.conv_block(y, mid, cout, k=1, prefix=f"{prefix}.cv2")
    if not residual:
        return y
    g = b.scale(y, cout, init=0.0, prefix=f"{prefix}.gamma")
    return b.add("add", f"{prefix}.add", [x, g])


def build_detect_head(b: GraphBuilder, taps: list[tuple[Ref, int]], n_classes,
                      prefix="detect") -> list[Ref]:
    """Per-scale conv stacks emitting (4 + n_classes)-channel maps.

    Every node is protected: the pruner must never touch the head, including
    the channel slices feeding it.
    """
    if not taps:
        raise GraphError("detect head needs at least one scale")
    out_c = 4 + n_classes
    maps = []
    for i, (ref, cin) in enumerate(taps):
        d = max(cin // 2, 8)
        t = b.conv_block(ref, cin, d, k=3, prefix=f"{prefix}.s{i}.stem", protected=True)
        m = b.conv(t, d, out_c, k=1, prefix=f"{prefix}.s{i}.map", protected=True)
        maps.append(m)
    return maps


# module -> (its builder, its required keywords, its optional keywords and their defaults)
_FRAGMENTS = {
    "conv_block": (lambda b, x, cin, cout, k, stride: b.conv_block(x, cin, cout, k, stride),
                   ("cout",), {"k": 3, "stride": 1}),
    "c3k2": (build_c3k2, ("cout",), {"n": 1, "shortcut": True}),
    "c2psa": (build_c2psa, ("cout",), {"n": 1}),
    "sppf": (build_sppf, ("cout",), {"pool_k": 5}),
    "spab": (build_spab, (), {}),
    "a2c2f": (build_a2c2f, ("cout",), {"n": 1, "residual": True}),
}


def build_fragment(module: str, input_shape, seed=0, **kwargs) -> Graph:
    """Wrap a single zoo module as input -> module -> output, for tests/tools.

    ``module`` is one of conv_block, c3k2, c2psa, sppf, spab, a2c2f. A missing
    or unknown keyword is a GraphError that names it.
    """
    if module not in _FRAGMENTS:
        raise GraphError(f"unknown fragment module {module!r}")
    fn, required, optional = _FRAGMENTS[module]
    for name in required:
        if name not in kwargs:
            raise GraphError(f"fragment {module!r} needs the keyword {name!r}")
    for name in kwargs:
        if name not in required and name not in optional:
            raise GraphError(f"fragment {module!r} takes no keyword {name!r}; "
                             f"it takes {[*required, *optional]}")
    b = GraphBuilder(f"fragment::{module}", input_shape, seed=seed)
    x = b.add("input", "image", [])
    args = {**optional, **kwargs}
    y = fn(b, x, input_shape[1], *(args[name] for name in (*required, *optional)))
    b.add("output", "out", [y])
    return _finished(b)


def _finished(b: GraphBuilder) -> Graph:
    """The built graph, validated and with its shapes inferred."""
    infer_shapes(b.graph, order=b.graph.validate())
    return b.graph


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def build_mini_net(preset: str, input_shape=(1, 3, 64, 64), n_classes=3, seed=0) -> Graph:
    """Desk-scale three-scale detection backbone with an auxiliary classifier.

    All presets share the C3K2 / SPPF / C2PSA trunk; ``ecoweed_mini`` adds a
    gated-residual block and ``y12_mini`` adds a scaled-residual attention
    stage on the deepest feature map.
    """
    if preset not in PRESETS:
        raise GraphError(f"unknown preset {preset!r}; choose one of {PRESETS}")
    n, c, hgt, wid = input_shape
    if c != 3:
        raise GraphError(f"presets expect 3 input channels, got {c}")
    if hgt % 32 or wid % 32:
        raise GraphError(f"input spatial dims must be divisible by 32, got {hgt}x{wid}")
    if not (2 <= n_classes <= 3):
        raise GraphError(f"the toy task supports 2 or 3 classes, got {n_classes}")

    meta = {
        "preset": preset,
        "n_classes": int(n_classes),
        "stage": "dense",
        "total_stride": 32,
    }
    b = GraphBuilder(preset, input_shape, seed=seed, meta=meta)
    x = b.add("input", "image", [])

    y = b.conv_block(x, 3, 8, k=3, stride=2, prefix="s0")        # /2
    y = b.conv_block(y, 8, 16, k=3, stride=2, prefix="s1")       # /4
    y = build_c3k2(b, y, 16, 16, 1, True, prefix="s2")
    y = b.conv_block(y, 16, 24, k=3, stride=2, prefix="s3")      # /8
    if preset == "ecoweed_mini":
        y = build_spab(b, y, 24, prefix="s4")
    p3 = build_c3k2(b, y, 24, 24, 1, True, prefix="s5")
    y = b.conv_block(p3, 24, 32, k=3, stride=2, prefix="s6")     # /16
    p4 = build_c3k2(b, y, 32, 32, 1, True, prefix="s7")
    y = b.conv_block(p4, 32, 48, k=3, stride=2, prefix="s8")     # /32
    y = build_sppf(b, y, 48, 48, 5, prefix="s9")
    p5 = build_c2psa(b, y, 48, 48, 1, prefix="s10")
    if preset == "y12_mini":
        p5 = build_a2c2f(b, p5, 48, 48, 1, True, prefix="s11")

    maps = build_detect_head(b, [(p3, 24), (p4, 32), (p5, 48)], n_classes)
    det_ids = []
    for i, m in enumerate(maps):
        ref = b.add("output", f"det{i}", [m], protected=True)
        det_ids.append(ref[0])

    pooled = b.add("gap", "aux.pool", [p5])
    logits = b.add("linear", "aux.fc", [pooled], params={
        "weight": b.linear_weight(n_classes, 48),
        "bias": np.zeros(n_classes, dtype=np.float32),
    })
    cls_ref = b.add("output", "cls", [logits], protected=True)

    b.graph.meta["detect_outputs"] = det_ids
    b.graph.meta["cls_output"] = cls_ref[0]
    return _finished(b)
