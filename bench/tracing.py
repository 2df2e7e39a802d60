"""Span tracing of ``slimgraph`` from outside the package.

The tracer wraps public functions and methods of each ``slimgraph`` module.
A function is replaced in every ``slimgraph`` namespace that holds it, because
modules bind some functions by name at import (``pipeline`` binds
``run_graph``, ``calibrate``, ``build_plan``, ``apply_prune``, ``to_bytes`` and
``export_fp16``); wrapping only the defining module would miss those callers.

Spans stay in memory as ``[name, start, end, parent, child_seconds]`` and are
written out at the end. A span's self time is its duration minus the time of
its child spans. Probes that count work (MACs, clipped elements, bytes read)
run after the span closes and are kept out of the parent's self time too.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

import spec


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def wrap(self, name, fn, probe=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else -1
            rec = [label, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]
            if probe is not None:
                t = clock()
                probe(counters, args, kwargs, out)
                if parent >= 0:
                    spans[parent][4] += clock() - t
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- installation ----------------------------------------------------------

    def install(self, targets) -> None:
        """Replace each target in every slimgraph namespace that binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "slimgraph" or k.startswith("slimgraph."))]
        for owner, attr, name, probe in targets:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(name, original, probe))
                self._patches.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, probe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds]."""
        out: dict[str, list] = {}
        for name, t0, t1, _, child in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child
        return out

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one line per span: name, start_us, dur_us, self_us, parent."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for name, t0, t1, parent, child in self.spans:
                f.write(json.dumps([name, round((t0 - base) * 1e6, 1), round((t1 - t0) * 1e6, 1),
                                    round((t1 - t0 - child) * 1e6, 1), parent]) + "\n")


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------

def targets() -> list[tuple]:
    """(owner, attribute, span name, probe) for every traced boundary."""
    from slimgraph import (autograd, builders, depgraph, executor, fakequant, graph,
                           metrics, modelio, ops, pipeline, pruner)

    def conv_macs(c, args, kwargs, out):
        y, w = out[0], args[1]
        c["conv_macs"] += y.size * w.shape[1] * w.shape[2] * w.shape[3]

    def tape_records(c, args, kwargs, out):
        c["tape_records"] += len(args[0])

    def nodes_run(c, args, kwargs, out):
        g = args[0]
        wanted = kwargs.get("outputs")
        c["nodes_run"] += len(g.ancestors_of(list(wanted) if wanted is not None else g.output_ids))
        c["nodes_total"] += len(g.nodes)

    def clipped(c, args, kwargs, out):
        r = args[0] / args[1]
        c["qdq_clipped"] += int(((r >= 127.5) | (r < -128.5)).sum())
        c["qdq_elements"] += r.size

    def groups(c, args, kwargs, out):
        c["groups"] += len(out)
        c["channel_instances"] += sum(len(cls) for grp in out for cls in grp.classes)

    def removed(c, args, kwargs, out):
        dense = metrics.count_params(args[0])
        c["params_dense"] += dense
        c["params_removed"] += dense - metrics.count_params(out)

    def bytes_read(c, args, kwargs, out):
        c["bytes_read"] += len(args[0])

    def run_graph_name(args, kwargs):
        return "executor.run_graph:" + kwargs.get("mode", "eval")

    t = []
    for attr in ("conv2d_forward", "conv2d_backward", "batchnorm_infer", "batchnorm_train_forward",
                 "batchnorm_train_backward", "sigmoid", "maxpool2d_forward", "maxpool2d_backward",
                 "add", "multiply", "concat_channels", "split_channels", "global_avg_pool", "linear"):
        t.append((ops, attr, f"ops.{attr}", conv_macs if attr == "conv2d_forward" else None))
    t += [
        (autograd, "backward", "autograd.backward", tape_records),
        (executor, "run_graph", run_graph_name, nodes_run),
        (fakequant, "qdq", "fakequant.qdq", clipped),
        (fakequant, "qdq_backward", "fakequant.qdq_backward", None),
        (fakequant.HistogramObserver, "observe", "fakequant.HistogramObserver.observe", None),
        (fakequant, "calibrate", "fakequant.calibrate", None),
        (fakequant, "export_fp16", "fakequant.export_fp16", None),
        (depgraph, "resolve_groups", "depgraph.resolve_groups", groups),
        (pruner, "build_plan", "pruner.build_plan", None),
        (pruner, "apply_prune", "pruner.apply_prune", removed),
        (pruner, "zero_embed_oracle", "pruner.zero_embed_oracle", None),
        (graph, "infer_shapes", "graph.infer_shapes", None),
        (graph.Graph, "clone", "graph.Graph.clone", None),
        (modelio, "to_bytes", "modelio.to_bytes", None),
        (modelio, "from_bytes", "modelio.from_bytes", bytes_read),
        (metrics, "build_report", "metrics.build_report", None),
        (pipeline.Trainer, "_step", "pipeline.Trainer._step", None),
        (pipeline.Trainer, "run_epochs", "pipeline.Trainer.run_epochs", None),
        (pipeline.Trainer, "evaluate", "pipeline.Trainer.evaluate", None),
        (pipeline, "evaluate", "pipeline.evaluate", None),
        (pipeline.ToyTask, "__init__", "pipeline.ToyTask.__init__", None),
        (builders, "build_mini_net", "builders.build_mini_net", None),
        (builders, "build_fragment", "builders.build_fragment", None),
    ]
    traced = {name for _, _, name, _ in t if isinstance(name, str)}
    traced |= {f"executor.run_graph:{m}" for m in ("train", "eval", "calibrate")}
    if traced != set(spec.SPAN_RULES):
        raise RuntimeError(f"traced spans and completeness rules differ: "
                           f"{sorted(traced ^ set(spec.SPAN_RULES))}")
    return t


# ---------------------------------------------------------------------------
# per-layer metrics and the completeness check
# ---------------------------------------------------------------------------

def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, import_ms: float, overhead_frac: float) -> dict[str, float]:
    tot = tracer.totals()
    c = tracer.counters

    def ms(*names):
        return 1e3 * sum(tot.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_ms(*names):
        return 1e3 * sum(tot.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    run_graph = [f"executor.run_graph:{m}" for m in ("train", "eval", "calibrate")]
    m = {
        "ops.conv_fwd_ms": ms("ops.conv2d_forward"),
        "ops.conv_bwd_ms": ms("ops.conv2d_backward"),
        "ops.conv_calls": calls("ops.conv2d_forward"),
        "ops.conv_gmac_per_s": _ratio(c["conv_macs"] / 1e9, ms("ops.conv2d_forward") / 1e3),
        "ops.bn_fwd_ms": ms("ops.batchnorm_infer", "ops.batchnorm_train_forward"),
        "ops.bn_bwd_ms": ms("ops.batchnorm_train_backward"),
        "ops.sigmoid_ms": ms("ops.sigmoid"),
        "ops.maxpool_fwd_ms": ms("ops.maxpool2d_forward"),
        "ops.maxpool_bwd_ms": ms("ops.maxpool2d_backward"),
        "ops.other_ms": ms("ops.add", "ops.multiply", "ops.concat_channels", "ops.split_channels",
                           "ops.global_avg_pool", "ops.linear"),
        "autograd.backward_ms": ms("autograd.backward"),
        "autograd.backward_self_ms": self_ms("autograd.backward"),
        "autograd.tape_records_per_step": _ratio(c["tape_records"], calls("autograd.backward")),
        "executor.train_ms": ms("executor.run_graph:train"),
        "executor.eval_ms": ms("executor.run_graph:eval"),
        "executor.calibrate_ms": ms("executor.run_graph:calibrate"),
        "executor.self_ms": self_ms(*run_graph),
        "executor.nodes_run_frac": _ratio(c["nodes_run"], c["nodes_total"]),
        "fakequant.qdq_ms": ms("fakequant.qdq"),
        "fakequant.qdq_bwd_ms": ms("fakequant.qdq_backward"),
        "fakequant.observe_ms": ms("fakequant.HistogramObserver.observe"),
        "fakequant.calibrate_ms": ms("fakequant.calibrate"),
        "fakequant.export_fp16_ms": ms("fakequant.export_fp16"),
        "fakequant.clip_frac": _ratio(c["qdq_clipped"], c["qdq_elements"]),
        "depgraph.resolve_ms": ms("depgraph.resolve_groups"),
        "depgraph.resolve_us_per_channel": _ratio(1e3 * ms("depgraph.resolve_groups"),
                                                  c["channel_instances"]),
        "depgraph.groups": _ratio(c["groups"], calls("depgraph.resolve_groups")),
        "pruner.plan_ms": ms("pruner.build_plan"),
        "pruner.apply_ms": ms("pruner.apply_prune"),
        "pruner.oracle_ms": ms("pruner.zero_embed_oracle"),
        "pruner.removed_frac": _ratio(c["params_removed"], c["params_dense"]),
        "graph.infer_shapes_ms": ms("graph.infer_shapes"),
        "graph.clone_ms": ms("graph.Graph.clone"),
        "graph.clone_calls": calls("graph.Graph.clone"),
        "modelio.to_bytes_ms": ms("modelio.to_bytes"),
        "modelio.from_bytes_ms": ms("modelio.from_bytes"),
        "modelio.read_mb_per_s": _ratio(c["bytes_read"] / 1e6, ms("modelio.from_bytes") / 1e3),
        "metrics.report_ms": ms("metrics.build_report"),
        "pipeline.eval_ms": ms("pipeline.Trainer.evaluate", "pipeline.evaluate"),
        "pipeline.step_self_ms": self_ms("pipeline.Trainer._step", "pipeline.Trainer.run_epochs"),
        "pipeline.task_ms": ms("pipeline.ToyTask.__init__"),
        "builders.build_ms": ms("builders.build_mini_net", "builders.build_fragment"),
        "package.import_ms": import_ms,
        "trace.overhead_frac": overhead_frac,
    }
    if set(m) != set(spec.PER_LAYER):
        raise RuntimeError(f"per-layer metrics differ from the declaration: {sorted(set(m) ^ set(spec.PER_LAYER))}")
    return m


def completeness(tracer: Tracer, workload: str) -> list[str]:
    """Spans that fired where they must not, or stayed silent where they must fire."""
    tot = tracer.totals()
    problems = []
    for name, (fires, silent) in spec.SPAN_RULES.items():
        n = tot.get(name, (0,))[0]
        if workload in fires and n == 0:
            problems.append(f"span {name} never fired on {workload}")
        if workload in silent and n:
            problems.append(f"span {name} fired {n} times on {workload}, where it must not")
    return problems
