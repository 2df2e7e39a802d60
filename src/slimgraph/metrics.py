"""Parameter, FLOP, and memory accounting plus report emission.

FLOP convention: one multiply-accumulate counts as 2 FLOPs. Each node kind's
count is the ``flops`` rule of its spec in :data:`slimgraph.kinds.SPECS`; data
movement (concat/split) and simulation-only quantizer nodes count zero. The
convention and the declared input size are stamped into every report header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import modelio
from .errors import GraphError
from .graph import Graph, infer_shapes, io_shapes, trainable_items
from .kinds import SPECS
from .pruner import ratio_percent


def count_params(graph: Graph) -> int:
    """Trainable tensor elements; running statistics and amax excluded."""
    return int(sum(arr.size for _, arr in trainable_items(graph)))


def count_flops(graph: Graph, input_shape=None) -> int:
    """Forward-pass FLOPs at the given input size (2 FLOPs per MAC)."""
    shapes = infer_shapes(graph, input_shape)
    return sum(SPECS[n.kind].flops(n, *io_shapes(n, shapes)) for n in graph.nodes.values())


@dataclass
class MemoryEstimate:
    weight_bytes: int
    engine_bytes: int
    scratch_bytes: int


def estimate_memory(graph: Graph, precision_bits: int = 32, input_shape=None) -> MemoryEstimate:
    """Weight blob size, exact serialized engine size, and activation scratch.

    Scratch is the peak of simultaneously-live edge tensors, at the inference precision,
    over the ``graph.schedule`` ``run_graph`` follows: each edge dies after its last reader.
    It counts edges only: a kernel's own temporaries, such as the patch matrix of the
    chunk of images an untaped conv gathers at a time, come on top
    (``tests/test_schedule.py::TestPeakBound`` checks a run's peak against the sum).
    ``build_report`` reads the same weight and engine bytes, and walks no schedule.
    """
    shapes = infer_shapes(graph, input_shape)
    elem = precision_bits // 8
    sizes = modelio.container_size(graph, precision_bits)
    live = peak = 0
    for n, last_read in graph.schedule(graph.output_ids):
        live += sum(math.prod(shapes[(n.id, p)]) for p in range(n.n_out_ports())) * elem
        peak = max(peak, live)
        live -= sum(math.prod(shapes[ref]) for ref in last_read) * elem
    return MemoryEstimate(*sizes, peak)


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
    ratio = ratio_percent(dense_params if dense_params is not None else params, params)
    shape = tuple(input_shape or graph.input_shape)
    flops = count_flops(graph, shape)  # before the sizes, so that infer_shapes names a bad shape
    weight_bytes, engine_bytes = modelio.container_size(graph, precision_bits)
    return CompressionReport(
        model=graph.name,
        stage=graph.meta.get("stage", "dense"),
        precision_bits=precision_bits,
        channel_fraction=channel_fraction,
        ratio_pct=ratio,
        params=params,
        flops=flops,
        input_hw=(shape[2], shape[3]),
        weight_bytes=weight_bytes,
        engine_bytes=engine_bytes,
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
        raise GraphError("emit_report needs at least one report")
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
