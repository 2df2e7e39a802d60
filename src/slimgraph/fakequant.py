"""Simulated 8-bit activation quantization and half-precision weight export.

Quantizers sit on the input edge of every non-head convolution. Lifecycle:
``disabled`` (identity) -> ``active`` (quantize-dequantize against the signed
8-bit range [-128, 127]). Calibration runs the graph with every quantizer
disabled, reads each quantizer's output into a histogram of |x|, then picks
amax as the smallest histogram bin edge covering 99.99% of the observed mass;
scale is amax/127. The quantize-dequantize kernels ``qdq``, ``ste_mask`` and
``qdq_backward`` live in :mod:`slimgraph.ops`, below the executor that this module
imports, so that forward rules reach them without a module cycle; they are public here.
"""

from __future__ import annotations

import numpy as np

from . import modelio
from .errors import CalibrationError, QuantError
from .executor import run_graph
from .graph import Graph, Node
from .ops import QMAX, QMIN, qdq, qdq_backward, ste_mask

HIST_BINS = 2048
MASS_FRACTION = 0.9999
_CHUNK = 1 << 16  # elements per float64 chunk that HistogramObserver.observe counts


class HistogramObserver:
    """Running histogram of |activation| with a growing range.

    When a batch exceeds the current maximum the counts are re-binned onto
    the wider range, keeping bin boundaries a fixed fraction of the running
    maximum. Counts are float64, exact for any realistic sample volume.
    ``observe`` takes a batch's range in its own dtype, which is exact, then
    counts |x| in float64 chunks of ``_CHUNK`` elements, so its scratch does
    not grow with the activation; integer-valued sums make the counts
    independent of the chunking.
    """

    def __init__(self, name: str = "observer"):
        self.name = name  # the quantizer named in errors
        self.counts = np.zeros(HIST_BINS, dtype=np.float64)
        self.top = 0.0
        self.samples = 0

    def observe(self, x: np.ndarray) -> None:
        x = np.asarray(x).reshape(-1)
        if x.size == 0:
            return
        hi, lo = float(x.max()), float(x.min())
        if not (np.isfinite(hi) and np.isfinite(lo)):  # inf or NaN exactly when some element is
            bad = int(x.size - np.isfinite(x).sum())
            raise CalibrationError(
                f"quantizer {self.name!r} observed {bad} non-finite activation(s) "
                f"among {x.size}")
        m = max(hi, -lo)  # max |x|
        if m > self.top:
            if self.top > 0.0:
                old_centers = (np.arange(HIST_BINS) + 0.5) * (self.top / HIST_BINS)
                idx = np.minimum((old_centers / (m / HIST_BINS)).astype(np.int64),
                                 HIST_BINS - 1)
                self.counts = np.bincount(idx, weights=self.counts, minlength=HIST_BINS)
            self.top = m
        if self.top > 0.0:
            width = self.top / HIST_BINS
            buf = np.empty(min(x.size, _CHUNK), np.float64)
            for i in range(0, x.size, _CHUNK):
                part = buf[:min(_CHUNK, x.size - i)]
                np.abs(x[i:i + _CHUNK], out=part, dtype=np.float64)
                part /= width
                np.minimum(part, HIST_BINS - 1, out=part)  # |x| == top may land on bin 2048
                self.counts += np.bincount(part.astype(np.int64), minlength=HIST_BINS)
        self.samples += x.size

    def amax(self) -> float | None:
        """Smallest bin edge covering MASS_FRACTION of the observed mass."""
        if self.top <= 0.0:
            return None
        cum = np.cumsum(self.counts)
        total = cum[-1]
        k = int(np.searchsorted(cum, MASS_FRACTION * total))
        return float((k + 1) * (self.top / HIST_BINS))


def quantizer_ids(graph: Graph) -> list[str]:
    return [n.id for n in graph.nodes.values() if n.kind == "fakequant"]


def insert_fakequant(graph: Graph) -> Graph:
    """Place a disabled quantizer on the input edge of every non-head conv."""
    if quantizer_ids(graph):
        raise QuantError("graph is already instrumented with quantizers")
    g = graph.clone(copy_params=True)
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


def calibrate(graph: Graph, batches) -> Graph:
    """Observe |activations| over the batches, then fix amax/scale per quantizer.

    A graph without quantizers is instrumented first (``insert_fakequant``).
    Returns a new graph with every quantizer active. Raises ``QuantError`` if
    no quantizer could be placed, and ``CalibrationError`` if a quantizer never
    saw a non-zero activation (amax would be undefined).
    """
    batches = list(batches)
    if not batches:
        raise CalibrationError("calibration needs at least one batch")
    g = graph.clone(copy_params=True) if quantizer_ids(graph) else insert_fakequant(graph)
    qids = quantizer_ids(g)
    if not qids:
        raise QuantError("graph has no quantizers to calibrate")
    for qid in qids:  # observers read unquantized activations, also when recalibrating
        g.node(qid).attrs["phase"] = "disabled"
    observers = {qid: HistogramObserver(qid) for qid in qids}
    for batch in batches:
        # batch-statistics normalization: observers must see the activation
        # distribution that training forwards will produce. Outputs come in
        # topological order, so a non-finite error names the first quantizer
        # it reaches; the observer reports it, so numpy need not warn.
        with np.errstate(invalid="ignore", over="ignore"):
            outs = run_graph(g, batch, mode="calibrate", outputs=qids)
        for qid, out in outs.items():
            observers[qid].observe(out.value)
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
        rows.append((qid, amax, amax / QMAX, int(n.attrs.get("samples", 0))))
    return rows


def write_calibration(graph: Graph, path) -> None:
    """Write the calibration sidecar, UTF-8, through ``modelio.save_bytes``."""
    rows = "".join(f"{qid} amax {amax!r} scale {scale!r} samples {samples}\n"
                   for qid, amax, scale, samples in calibration_rows(graph))
    modelio.save_bytes(f"# slimgraph calibration v1\n{rows}".encode("utf-8"), path)


# ---------------------------------------------------------------------------
# half-precision export
# ---------------------------------------------------------------------------

def cast_fp16(arr: np.ndarray) -> np.ndarray:
    """Round-to-nearest-even IEEE binary16 conversion."""
    return arr.astype(np.float16)


def export_fp16(graph: Graph):
    """Serialize the graph at 16-bit precision.

    Returns (model bytes, cast report): per tensor, in ``n.params`` order, the
    maximum absolute error of its one binary16 cast, which the container holds.
    ``modelio`` refuses weights beyond the half-precision range.
    """
    data, halves = modelio._encode(graph, 16)
    report = []
    for n in graph.nodes.values():
        for name, arr in n.params.items():  # upcast, subtract, abs and max in one buffer
            diff = halves[n.id, name].astype(np.result_type(arr, np.float32))
            np.abs(np.subtract(arr, diff, out=diff), out=diff)
            report.append((f"{n.id}.{name}", float(diff.max()) if arr.size else 0.0))
    return data, report
