"""Simulated 8-bit activation quantization and half-precision weight export.

Quantizers sit on the input edge of every non-head convolution. Lifecycle:
``disabled`` (identity) -> ``observe`` (identity + histogram of |x|) ->
``active`` (quantize-dequantize against the signed 8-bit range [-128, 127]).
Calibration picks amax as the smallest histogram bin edge covering 99.99% of
the observed mass; scale is amax/127.
"""

from __future__ import annotations

import numpy as np

from .errors import CalibrationError, ExportError, QuantError
from .graph import Graph

HIST_BINS = 2048
MASS_FRACTION = 0.9999
QMIN, QMAX = -128, 127
HALF_MAX = 65504.0

PHASES = ("disabled", "observe", "active")


def qdq(x: np.ndarray, scale: float) -> np.ndarray:
    """Quantize-dequantize: clamp(round_half_to_even(x/scale)) * scale."""
    if scale <= 0:
        raise QuantError(f"qdq scale must be positive, got {scale}")
    q = np.clip(np.rint(x / scale), QMIN, QMAX)
    return (q * scale).astype(x.dtype, copy=False)


def qdq_backward(upstream_grad: np.ndarray, x: np.ndarray, scale: float) -> np.ndarray:
    """Clipped straight-through estimator: identity inside the clamp range."""
    mask = (x >= QMIN * scale) & (x <= QMAX * scale)
    return upstream_grad * mask


class HistogramObserver:
    """Running histogram of |activation| with a growing range.

    When a batch exceeds the current maximum the counts are re-binned onto
    the wider range, keeping bin boundaries a fixed fraction of the running
    maximum. Counts are float64, exact for any realistic sample volume.
    """

    def __init__(self, name: str = "observer", bins: int = HIST_BINS):
        self.name = name  # the quantizer named in errors
        self.bins = bins
        self.counts = np.zeros(bins, dtype=np.float64)
        self.top = 0.0
        self.samples = 0

    def observe(self, x: np.ndarray) -> None:
        ax = np.abs(np.asarray(x, dtype=np.float64)).ravel()
        if ax.size == 0:
            return
        m = float(ax.max())
        if not np.isfinite(m):  # max is inf or NaN exactly when some element is
            bad = int(ax.size - np.isfinite(ax).sum())
            raise CalibrationError(
                f"quantizer {self.name!r} observed {bad} non-finite activation(s) "
                f"among {ax.size}")
        if m > self.top:
            if self.top > 0.0:
                old_centers = (np.arange(self.bins) + 0.5) * (self.top / self.bins)
                idx = np.minimum((old_centers / (m / self.bins)).astype(np.int64),
                                 self.bins - 1)
                self.counts = np.bincount(idx, weights=self.counts, minlength=self.bins)
            self.top = m
        if self.top > 0.0:
            width = self.top / self.bins
            idx = np.minimum((ax / width).astype(np.int64), self.bins - 1)
            self.counts += np.bincount(idx, minlength=self.bins)
        self.samples += ax.size

    def amax(self) -> float | None:
        """Smallest bin edge covering MASS_FRACTION of the observed mass."""
        if self.top <= 0.0:
            return None
        cum = np.cumsum(self.counts)
        total = cum[-1]
        k = int(np.searchsorted(cum, MASS_FRACTION * total))
        return float((k + 1) * (self.top / self.bins))


def quantizer_ids(graph: Graph) -> list[str]:
    return [n.id for n in graph.nodes.values() if n.kind == "fakequant"]


def insert_fakequant(graph: Graph) -> Graph:
    """Place a disabled quantizer on the input edge of every non-head conv."""
    if quantizer_ids(graph):
        raise QuantError("graph is already instrumented with quantizers")
    g = graph.clone(copy_params=True)
    from .graph import Node
    for nid in list(g.nodes):
        n = g.nodes[nid]
        if n.kind != "conv" or n.protected:
            continue
        qid = f"{nid}__q"
        src = n.inputs[0]
        g.add(Node(qid, "fakequant", attrs={"phase": "disabled", "samples": 0},
                   params={"amax": np.zeros(1, dtype=np.float32)},
                   inputs=[src]))
        n.inputs = [(qid, 0)]
    g.validate()
    return g


def set_phase(graph: Graph, phase: str) -> Graph:
    if phase not in PHASES:
        raise QuantError(f"unknown quantizer phase {phase!r}")
    g = graph.clone(copy_params=True)
    for n in g.nodes.values():
        if n.kind == "fakequant":
            n.attrs["phase"] = phase
    return g


def calibrate(graph: Graph, batches) -> Graph:
    """Observe |activations| over the batches, then fix amax/scale per quantizer.

    Returns a new graph with every quantizer active. Raises if a quantizer
    never saw a non-zero activation (amax would be undefined).
    """
    from .executor import run_graph  # local import avoids a module cycle
    batches = list(batches)
    if not batches:
        raise CalibrationError("calibration needs at least one batch")
    qids = quantizer_ids(graph)
    if not qids:
        raise QuantError("graph has no quantizers to calibrate")
    g = set_phase(graph, "observe")
    observers = {qid: HistogramObserver(qid) for qid in qids}
    for batch in batches:
        # batch-statistics normalization: observers must see the activation
        # distribution that training forwards will produce
        run_graph(g, batch, mode="calibrate", observers=observers)
    for qid in qids:
        amax = observers[qid].amax()
        if amax is None or amax <= 0.0:
            raise CalibrationError(
                f"quantizer {qid!r} observed only zero activations; amax undefined")
        node = g.node(qid)
        node.params["amax"] = np.array([amax], dtype=np.float32)
        node.attrs["phase"] = "active"
        node.attrs["samples"] = observers[qid].samples
    return g


def calibration_rows(graph: Graph) -> list[tuple[str, float, float, int]]:
    """(node id, amax, scale, sample count) per quantizer."""
    rows = []
    for qid in quantizer_ids(graph):
        n = graph.node(qid)
        amax = float(n.params["amax"][0])
        rows.append((qid, amax, amax / 127.0, int(n.attrs.get("samples", 0))))
    return rows


def write_calibration(graph: Graph, path) -> None:
    with open(path, "w") as f:
        f.write("# slimgraph calibration v1\n")
        for qid, amax, scale, samples in calibration_rows(graph):
            f.write(f"{qid} amax {amax!r} scale {scale!r} samples {samples}\n")


# ---------------------------------------------------------------------------
# half-precision export
# ---------------------------------------------------------------------------

def cast_fp16(arr: np.ndarray) -> np.ndarray:
    """Round-to-nearest-even IEEE binary16 conversion."""
    return arr.astype(np.float16)


def export_fp16(graph: Graph):
    """Serialize the graph at 16-bit precision.

    Returns (model bytes, cast report) where the report lists the maximum
    absolute cast error per tensor. Magnitudes beyond the half-precision
    range are an error: silent inf weights mean training went wrong.
    """
    from . import modelio  # local import avoids a module cycle
    report = []
    for n in graph.nodes.values():
        for name, arr in n.params.items():
            if not np.issubdtype(arr.dtype, np.floating):
                continue
            if not np.all(np.isfinite(arr)):
                raise ExportError(f"tensor {n.id}.{name} contains non-finite values")
            peak = float(np.abs(arr).max()) if arr.size else 0.0
            if peak > HALF_MAX:
                raise ExportError(
                    f"tensor {n.id}.{name} magnitude {peak:.4g} overflows half precision")
            err = float(np.abs(arr - cast_fp16(arr).astype(np.float32)).max()) if arr.size else 0.0
            report.append((f"{n.id}.{name}", err))
    return modelio.to_bytes(graph, precision_bits=16), report
