"""Parameter, FLOP, and memory accounting plus report emission.

FLOP convention: one multiply-accumulate counts as 2 FLOPs. Elementwise and
pooling contributions use the per-kind table below (ops per output element):

    batchnorm 2 | silu 4 | sigmoid 3 | add/mul/addconst/scale 1 | maxpool 1

Global average pooling counts one add per *input* element. Data movement
(concat/split) and simulation-only quantizer nodes count zero. The convention
and the declared input size are stamped into every report header.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modelio
from .graph import Graph, infer_shapes, trainable_items
from .pruner import ratio_percent

FLOPS_PER_ELEMENT = {
    "batchnorm": 2,
    "add": 1,
    "mul": 1,
    "addconst": 1,
    "scale": 1,
    "maxpool": 1,
}
ACT_FLOPS = {"silu": 4, "sigmoid": 3}


def count_params(graph: Graph) -> int:
    """Trainable tensor elements; running statistics and amax excluded."""
    return int(sum(arr.size for _, arr in trainable_items(graph)))


def count_flops(graph: Graph, input_shape=None) -> int:
    """Forward-pass FLOPs at the given input size (2 FLOPs per MAC)."""
    shapes = infer_shapes(graph, input_shape)
    total = 0
    for nid, n in graph.nodes.items():
        if n.kind == "conv":
            w = n.params["weight"]
            cout, cin, kh, kw = w.shape
            _, _, ho, wo = shapes[(nid, 0)]
            total += 2 * cout * cin * kh * kw * ho * wo
            if "bias" in n.params:
                total += cout * ho * wo
        elif n.kind == "linear":
            out_f, in_f = n.params["weight"].shape
            nb = shapes[(nid, 0)][0]
            total += nb * (2 * out_f * in_f + (out_f if "bias" in n.params else 0))
        elif n.kind == "activation":
            total += ACT_FLOPS[n.attrs["fn"]] * int(np.prod(shapes[(nid, 0)]))
        elif n.kind == "gap":
            src, sp = n.inputs[0]
            total += int(np.prod(shapes[(src, sp)]))
        elif n.kind in FLOPS_PER_ELEMENT:
            total += FLOPS_PER_ELEMENT[n.kind] * int(np.prod(shapes[(nid, 0)]))
    return int(total)


@dataclass
class MemoryEstimate:
    weight_bytes: int
    engine_bytes: int
    scratch_bytes: int


def estimate_memory(graph: Graph, precision_bits: int = 32, input_shape=None) -> MemoryEstimate:
    """Weight blob size, exact serialized engine size, and activation scratch.

    Scratch is the peak of simultaneously-live edge tensors over the
    deterministic topological schedule, at the inference precision.
    """
    elem = precision_bits // 8
    weight_bytes = sum(arr.size * elem for n in graph.nodes.values()
                       for arr in n.params.values())
    engine_bytes = len(modelio.to_bytes(graph, precision_bits))

    shapes = infer_shapes(graph, input_shape)
    order = graph.topo_order()
    pos = {nid: i for i, nid in enumerate(order)}
    # an output tensor stays live until its last consumer has executed
    last_use: dict[tuple, int] = {}
    for n in graph.nodes.values():
        for (src, sp) in n.inputs:
            last_use[(src, sp)] = max(last_use.get((src, sp), -1), pos[n.id])
    for nid in order:  # unconsumed outputs live to the end
        n = graph.node(nid)
        for p in range(n.n_out_ports()):
            last_use.setdefault((nid, p), len(order) - 1)

    live = {}
    peak = 0
    for i, nid in enumerate(order):
        n = graph.node(nid)
        for p in range(n.n_out_ports()):
            live[(nid, p)] = int(np.prod(shapes[(nid, p)])) * elem
        peak = max(peak, sum(live.values()))
        dead = [k for k, last in last_use.items() if last == i and k in live]
        for k in dead:
            del live[k]
    return MemoryEstimate(int(weight_bytes), int(engine_bytes), int(peak))


@dataclass
class CompressionReport:
    model: str
    stage: str                      # dense | pruned
    precision_bits: int
    channel_fraction: float | None
    ratio_pct: float                # achieved parameter reduction, 1 decimal
    params: int
    input_hw: tuple[int, int]       # input height and width the FLOPs are counted at
    flops: int
    weight_bytes: int
    engine_bytes: int
    val_accuracy: float | None


def build_report(graph: Graph, *, dense_params: int | None = None,
                 precision_bits: int = 32, channel_fraction: float | None = None,
                 val_accuracy: float | None = None, input_shape=None) -> CompressionReport:
    params = count_params(graph)
    dense = dense_params if dense_params is not None else params
    mem = estimate_memory(graph, precision_bits, input_shape)
    shape = tuple(input_shape or graph.input_shape)
    return CompressionReport(
        model=graph.name,
        stage=graph.meta.get("stage", "dense"),
        precision_bits=precision_bits,
        channel_fraction=channel_fraction,
        ratio_pct=ratio_percent(dense, params),
        params=params,
        input_hw=(shape[2], shape[3]),
        flops=count_flops(graph, shape),
        weight_bytes=mem.weight_bytes,
        engine_bytes=mem.engine_bytes,
        val_accuracy=val_accuracy,
    )


_COLUMNS = ("model", "stage", "bits", "fraction", "ratio_pct", "params",
            "input", "flops", "weight_bytes", "engine_bytes", "val_acc")


def _rows(reports):
    rows = []
    for r in reports:
        rows.append((
            r.model, r.stage, str(r.precision_bits),
            "-" if r.channel_fraction is None else f"{r.channel_fraction:.2f}",
            f"{r.ratio_pct:.1f}", str(r.params), "x".join(map(str, r.input_hw)), str(r.flops),
            str(r.weight_bytes), str(r.engine_bytes),
            "-" if r.val_accuracy is None else f"{r.val_accuracy:.4f}",
        ))
    return rows


def emit_report(reports) -> tuple[str, str]:
    """Render reports as (csv text, aligned table text)."""
    if not reports:
        raise ValueError("emit_report needs at least one report")
    header = ("# FLOPs = 2 x multiply-accumulates at the row's input size; "
              "ratio = 1 - params/dense_params (percent)")
    rows = _rows(reports)
    csv_lines = [header, ",".join(_COLUMNS)]
    csv_lines += [",".join(r) for r in rows]
    widths = [max(len(c), *(len(r[i]) for r in rows)) for i, c in enumerate(_COLUMNS)]
    def fmt(row):
        return "  ".join(v.ljust(w) for v, w in zip(row, widths))
    txt_lines = [header, fmt(_COLUMNS), fmt(tuple("-" * w for w in widths))]
    txt_lines += [fmt(r) for r in rows]
    return "\n".join(csv_lines) + "\n", "\n".join(txt_lines) + "\n"
