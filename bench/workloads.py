"""The three workloads: set-up, measured rounds and output checks.

Each workload is closed-loop with a single caller and calls the public
``slimgraph`` API in-process. Its constructor is the set-up that ``setup_s``
times; ``prepare_checks`` computes reference outputs outside that time;
``run_round`` makes one whole pass over the workload's fixed inputs, timing
every operation, running the speed probe after it (``speed``) and checking
its output. Because rounds are whole passes,
every latency class holds the same mix of inputs however many rounds fit.

Functions are always reached through their module (``pruner.apply_prune``),
so the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter

import numpy as np

import slimgraph as sg
from slimgraph import builders, depgraph, executor, fakequant, metrics, modelio, pruner
from slimgraph import pipeline as pl

import spec
import speed
import stats

VERIFY_TOL = 1e-5  # relative deviation that `slimgraph verify` accepts by default
# fp16 container vs fp32 graph on the trained classifier logits: relative L2
# error. The container itself is checked exactly (its outputs are those of the
# fp32 graph with half-precision parameters, bit for bit); this bound is what
# half precision may cost. Rounding the quantizer scales flips int8 steps,
# which compound through the net: over 24 trained presets (seeds 301-308) the
# error spanned 0.006-0.100, so the bound sits at 2.5 times the largest seen.
FP16_TOL = 0.25
SHAPE = (1, 3, spec.INPUT_SIZE, spec.INPUT_SIZE)


def max_rel_dev(ref: dict, out: dict) -> float:
    """Largest |ref - out| over all outputs, relative to each output's peak magnitude."""
    worst = 0.0
    for k, a in ref.items():
        denom = max(float(np.abs(a).max()), 1e-12)
        worst = max(worst, float(np.abs(a - out[k]).max()) / denom)
    return worst


def rel_l2_dev(ref, out) -> float:
    """||ref - out|| / ||ref||."""
    return float(np.linalg.norm(ref - out) / max(float(np.linalg.norm(ref)), 1e-12))


def removed_params(graph, groups, removals) -> int:
    """Parameters a plan removes, from surviving widths per port.

    Independent of ``apply_prune``: it reads only the group membership and the
    dense tensor shapes, so the slim graph's count can be checked against it.
    """
    dropped = Counter()
    for grp in groups:
        for i in removals.get(grp.gid, ()):
            for (nid, side, port, _) in grp.classes[i]:
                dropped[(nid, side, port)] += 1
    total = 0
    for n in graph.nodes.values():
        out_gone = dropped[(n.id, "out", 0)]
        if n.kind in ("conv", "linear"):
            w = n.params["weight"]
            cout, cin = w.shape[:2]
            taps = int(np.prod(w.shape[2:]))
            kept = (cout - out_gone) * (cin - dropped[(n.id, "in", 0)])
            total += (cout * cin - kept) * taps + (out_gone if "bias" in n.params else 0)
        elif n.kind == "batchnorm":
            total += 2 * out_gone
        elif n.kind == "scale":
            total += out_gone
    return total


def half_precision(graph):
    """Copy of the graph with every float parameter rounded through fp16: what an
    fp16 container of it must hold."""
    half = graph.clone(copy_params=True)
    for n in half.nodes.values():
        for k, a in n.params.items():
            if np.issubdtype(a.dtype, np.floating):
                n.params[k] = fakequant.cast_fp16(a).astype(np.float32)
    return half


def settle_batchnorm(graph, images):
    """Copy of the graph whose running statistics are the batch statistics of `images`.

    An untrained graph keeps running mean 0 and variance 1, so in eval mode its
    activations sit far below the quantizer steps calibrated on batch statistics
    and every output rounds to zero. One train-mode forward (no tape, weights
    untouched) moves each running statistic one momentum step toward its batch
    value; undoing that step recovers the batch statistics.
    """
    bn = [n for n in graph.nodes.values() if n.kind == "batchnorm"]
    state = executor.RunState({}, {(n.id, k): n.params[k] for n in bn
                                   for k in ("running_mean", "running_var")})
    executor.run_graph(graph, images, mode="train", state=state)
    m = executor.BN_MOMENTUM
    settled = graph.clone(copy_params=True)
    for n in bn:
        for k in ("running_mean", "running_var"):
            est = (state.buffers[(n.id, k)] - (1 - m) * n.params[k]) / m
            if k == "running_var":
                est = np.maximum(est, 0.0)
            settled.node(n.id).params[k] = est.astype(np.float32)
    return settled


def at_ref_speed(name: str, ref_ms: list, probe) -> tuple[dict, list]:
    """The gated latency: the class median of times scaled to reference speed (``speed``)."""
    value = stats.percentile(ref_ms, 50)
    note = (f"median of {name} times, each x {speed.REF_MS:g} ms / the median of the "
            f"speed-probe times around it (run median {statistics.median(probe.ms):.3f} ms)")
    return {"ref_latency_ms_p50": value}, [("ref_latency_ms_p50", value, "ms", note)]


def latency_rows(name: str, ms: list, qs=(10, 50, 90)) -> list:
    """Printed rows for the percentiles of one single-mode latency class."""
    s = stats.summarize(ms, qs)
    return [(f"{name}_ms_p{q}", s[f"p{q}"], "ms", f"n={s['n']}") for q in qs]


class Tally:
    """Operations attempted and failed, with the check failures behind them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.problems.append(message)


class Workload:
    name = ""
    min_rounds = 1    # enough rounds for the printed percentiles' sample rule
    trace_rounds = 1  # fixed work of a traced run, so per-layer totals compare across commits

    def __init__(self, seed: int):
        self.hush = contextlib.nullcontext  # the tracer pauses recording around checks
        self.probe = speed.SpeedProbe()     # run after every timed operation
        self.reset_timings()

    def reset_timings(self) -> None:
        """Forget the timings of the rounds so far (the warm-up); checks keep their state."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        pass

    def run_round(self, tally: Tally) -> None:
        raise NotImplementedError

    def summary(self) -> tuple[dict, list]:
        """(gated end-to-end values, rows of (name, value, unit, note) printed by name)."""
        raise NotImplementedError


@contextlib.contextmanager
def timed_steps(record: list, probe):
    """Time every ``Trainer._step``, then run the speed probe; appends
    (stage, seconds, seconds at reference speed, loss, batch size)."""
    original = pl.Trainer.__dict__["_step"]

    def timed(trainer, xb, yb):
        t0 = time.perf_counter()
        loss = original(trainer, xb, yb)
        dt = time.perf_counter() - t0
        probe.tick()
        record.append((trainer.graph.meta.get("stage", "dense"), dt,
                       dt * probe.factor(speed.WINDOW), loss, len(xb)))
        return loss

    pl.Trainer._step = timed
    try:
        yield
    finally:
        pl.Trainer._step = original


class Pipeline(Workload):
    """``run_compression_pipeline`` on every preset: QAT, prune at mid-run, fine-tune, export."""

    name = "pipeline"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.task = pl.ToyTask(seed=seed, size=spec.INPUT_SIZE)
        self.graphs = {p: builders.build_mini_net(p, SHAPE, self.task.n_classes, seed=seed)
                       for p in spec.PRESETS}
        self.config = pl.TrainConfig(
            epochs=spec.EPOCHS, prune_epoch=spec.PRUNE_EPOCH,
            channel_fraction=spec.CHANNEL_FRACTION, qat_enabled=True,
            batch_size=spec.BATCH, seed=seed)
        self.rng = np.random.default_rng([seed, 1])
        # preset -> (val acc, fp16 val acc, losses) of its first run; every later
        # run of the preset (a measured round after the warm-up) must repeat it
        self.first = {}

    def reset_timings(self) -> None:
        self.step_s = {"dense": [], "pruned": []}
        self.dense_ref_s: list[float] = []
        self.images = 0
        self.wall_s = {p: [] for p in spec.PRESETS}

    def _run(self, preset: str):
        steps = []
        t0 = time.perf_counter()
        with timed_steps(steps, self.probe):
            res = pl.run_compression_pipeline(self.graphs[preset], self.task, self.config,
                                              input_shape=SHAPE)
        return res, steps, time.perf_counter() - t0

    def run_round(self, tally: Tally) -> None:
        for preset in spec.PRESETS:
            res, steps, wall = self._run(preset)
            self.wall_s[preset].append(wall)
            tally.attempted += len(steps)
            for stage, dt, ref, _, n in steps:
                self.step_s[stage].append(dt)
                if stage == "dense":
                    self.dense_ref_s.append(ref)
                self.images += n
            with self.hush():
                problems = self._check(preset, res, steps)
            if problems:
                tally.fail(len(steps), f"{preset}: " + "; ".join(problems))

    def _check(self, preset, res, steps) -> list[str]:
        problems = []
        losses = tuple(s[3] for s in steps)
        if not np.all(np.isfinite(losses)):
            problems.append("non-finite training loss")
        expected = pruner.apply_prune(res.dense_graph, res.plan)
        if metrics.count_params(expected) != metrics.count_params(res.slim_graph):
            problems.append("slim parameter count does not match the plan")
        embedded = pruner.zero_embed_oracle(res.dense_graph, res.plan)
        x = self.rng.normal(0.5, 0.25, SHAPE).astype(np.float32)
        dev = max_rel_dev(sg.forward_arrays(embedded, x), sg.forward_arrays(expected, x))
        if dev > VERIFY_TOL:
            problems.append(f"slim graph deviates {dev:.3e} from the zero-embed oracle")
        fp16, _ = modelio.from_bytes(res.fp16_bytes)
        val = self.task.val_images
        out16 = sg.forward_arrays(fp16, val)
        half = sg.forward_arrays(half_precision(res.slim_graph), val)
        if not all(np.array_equal(half[k], out16[k]) for k in half):
            problems.append("fp16 container outputs differ from those of the fp32 graph "
                            "at half-precision parameters")
        # only the classifier output is trained: the detection heads get no gradient
        cls = res.slim_graph.meta["cls_output"]
        dev16 = rel_l2_dev(sg.forward_arrays(res.slim_graph, val, outputs=[cls])[cls], out16[cls])
        if dev16 > FP16_TOL:
            problems.append(f"fp16 classifier output deviates {dev16:.3e} from fp32 (tol {FP16_TOL})")
        key = (res.final_accuracy, res.fp16_accuracy, losses)
        if self.first.setdefault(preset, key) != key:
            problems.append("a re-run with the same seed gave other accuracies or losses")
        return problems

    def summary(self):
        dense = [1e3 * s for s in self.step_s["dense"]]
        pruned = [1e3 * s for s in self.step_s["pruned"]]
        step_s = sum(self.step_s["dense"]) + sum(self.step_s["pruned"])
        train = self.images / step_s
        per_preset = {k: statistics.median(v) for k, v in self.wall_s.items()}
        e2e, rows = at_ref_speed("dense step", [1e3 * s for s in self.dense_ref_s], self.probe)
        rows += [("train_img_per_s", train, "img/s", f"{self.images} images in {step_s:.3f} s of steps")]
        rows += latency_rows("dense_step", dense) + latency_rows("pruned_step", pruned)
        rows += [
            ("pipeline_s", statistics.fmean(per_preset.values()), "s",
             "mean over presets of the median run: " +
             ", ".join(f"{k} {v:.3f}" for k, v in per_preset.items())),
            ("val_acc", statistics.fmean(v[0] for v in self.first.values()), "fraction",
             "mean over presets, pruned fp32"),
            ("fp16_val_acc", statistics.fmean(v[1] for v in self.first.values()), "fraction",
             "mean over presets, reloaded fp16 container"),
        ]
        return e2e, rows


class Infer(Workload):
    """``forward_arrays`` of the exported pruned QAT models over fixed-size image batches.

    The models are untrained, since kernel cost does not depend on weight
    values and training would swamp the set-up; their batchnorm statistics are
    settled on the images so that eval-mode outputs are not all zero.
    """

    name = "infer"
    trace_rounds = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        task = pl.ToyTask(seed=seed, size=spec.INPUT_SIZE)
        calib = task.calibration_batches(2, spec.BATCH)
        images = task.train_images
        self.batches = [images[i:i + spec.BATCH] for i in range(0, len(images), spec.BATCH)]
        self.slim = {}
        self.models = []
        for preset in spec.PRESETS:
            g = builders.build_mini_net(preset, SHAPE, task.n_classes, seed=seed)
            dense = fakequant.calibrate(fakequant.insert_fakequant(g), calib)
            plan = pruner.build_plan(dense, spec.CHANNEL_FRACTION)
            slim = fakequant.calibrate(pruner.apply_prune(dense, plan), calib)
            slim = settle_batchnorm(slim, images)
            fp32, _ = modelio.from_bytes(modelio.to_bytes(slim, 32))
            fp16, _ = modelio.from_bytes(fakequant.export_fp16(slim)[0])
            self.slim[preset] = slim
            self.models += [(preset, 32, fp32), (preset, 16, fp16)]

    def reset_timings(self) -> None:
        self.batch_s: list[float] = []
        self.ref_s: list[float] = []
        self.images = 0

    def prepare_checks(self) -> None:
        """Expected outputs: the in-memory graph's for an fp32 reload, and for an fp16
        reload its own first answer (fp16 closeness to fp32 is checked on the trained
        classifier in the pipeline workload)."""
        self.refs = {}
        for preset, bits, model in self.models:
            source = self.slim[preset] if bits == 32 else model
            for i, b in enumerate(self.batches):
                self.refs[(preset, bits, i)] = sg.forward_arrays(source, b)

    def run_round(self, tally: Tally) -> None:
        for i, batch in enumerate(self.batches):
            for preset, bits, model in self.models:
                t0 = time.perf_counter()
                out = sg.forward_arrays(model, batch)
                dt = time.perf_counter() - t0
                self.probe.tick()
                self.batch_s.append(dt)
                self.ref_s.append(dt * self.probe.factor(speed.WINDOW))
                self.images += len(batch)
                tally.attempted += 1
                ref = self.refs[(preset, bits, i)]
                if not all(np.array_equal(ref[k], out[k]) for k in ref):
                    tally.fail(1, f"{preset} fp{bits} reload: outputs on batch {i} differ from "
                                  "the expected ones bit for bit")

    def summary(self):
        ms = [1e3 * s for s in self.batch_s]
        rate = self.images / sum(self.batch_s)
        e2e, rows = at_ref_speed("infer batch", [1e3 * s for s in self.ref_s], self.probe)
        rows += [("infer_img_per_s", rate, "img/s", f"batch {spec.BATCH}, {len(self.models)} models")]
        rows += latency_rows("infer_batch", ms)
        return e2e, rows


class Compress(Workload):
    """The post-training chain over the presets and the fragment modules at three widths."""

    name = "compress"
    min_rounds = 20
    trace_rounds = 5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.graphs = [builders.build_mini_net(p, SHAPE, 3, seed=seed) for p in spec.PRESETS]
        s = spec.FRAGMENT_SPATIAL
        for module in spec.FRAGMENT_MODULES:
            for width in spec.FRAGMENT_WIDTHS:
                kwargs = {} if module == "spab" else {"cout": width}
                self.graphs.append(builders.build_fragment(module, (1, width, s, s), seed=seed, **kwargs))
        self.rng = np.random.default_rng([seed, 2])

    def reset_timings(self) -> None:
        self.round_s: list[float] = []
        self.ref_s: list[float] = []
        self.graphs_done = 0

    def run_round(self, tally: Tally) -> None:
        total = 0.0
        for g in self.graphs:
            x = self.rng.normal(0.5, 0.25, (1,) + g.input_shape[1:]).astype(np.float32)
            t0 = time.perf_counter()
            groups = depgraph.resolve_groups(g)
            plan = pruner.build_plan(g, spec.CHANNEL_FRACTION, groups)
            slim = pruner.apply_prune(g, plan, groups)
            embedded = pruner.zero_embed_oracle(g, plan, groups)
            dev = max_rel_dev(sg.forward_arrays(embedded, x), sg.forward_arrays(slim, x))
            fp32 = modelio.to_bytes(slim, 32)
            fakequant.export_fp16(slim)
            back, _ = modelio.from_bytes(fp32)
            metrics.build_report(slim, dense_params=metrics.count_params(g),
                                 channel_fraction=spec.CHANNEL_FRACTION)
            total += time.perf_counter() - t0
            self.probe.tick()
            tally.attempted += 1
            with self.hush():
                problems = self._check(g, groups, plan, slim, dev, fp32, back)
            if problems:
                tally.fail(1, f"{g.name}@{g.input_shape[1]}: " + "; ".join(problems))
        self.round_s.append(total)
        self.ref_s.append(total * self.probe.factor(len(self.graphs)))
        self.graphs_done += len(self.graphs)

    @staticmethod
    def _check(g, groups, plan, slim, dev, fp32, back) -> list[str]:
        problems = []
        if dev > VERIFY_TOL:
            problems.append(f"slim graph deviates {dev:.3e} from the zero-embed oracle")
        expected = metrics.count_params(g) - removed_params(g, groups, plan.removals)
        if metrics.count_params(slim) != expected:
            problems.append(f"slim graph has {metrics.count_params(slim)} params, oracle says {expected}")
        if modelio.to_bytes(back, 32) != fp32:
            problems.append("fp32 container does not round-trip exactly")
        return problems

    def summary(self):
        ms = [1e3 * s for s in self.round_s]
        rate = self.graphs_done / sum(self.round_s)
        e2e, rows = at_ref_speed("compress round", [1e3 * s for s in self.ref_s], self.probe)
        rows += [("compress_graphs_per_s", rate, "graphs/s", f"{len(self.graphs)} graphs per round")]
        rows += latency_rows("compress_round", ms, qs=(10, 50))
        return e2e, rows


WORKLOADS = {w.name: w for w in (Pipeline, Infer, Compress)}
