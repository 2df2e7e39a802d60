"""Training orchestration: baseline training, QAT, prune-at-epoch, fine-tuning.

The task is a deterministic procedural-shape classifier (disc / cross / bar
over noise) sized so the full integrated schedule runs in minutes on a CPU.
Training is minibatch SGD with momentum on the softmax cross-entropy of the
auxiliary classification head; detection outputs are exercised by shape and
protection tests only.

Epoch bookkeeping: epochs are indexed 0..epochs-1 and pruning triggers before
epoch ``prune_epoch`` runs, so ``prune_epoch=150, epochs=250`` means 150 dense
epochs followed by 100 fine-tuning epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .builders import PRESETS, build_mini_net
from .depgraph import resolve_groups
from .errors import SlimgraphError, TrainingError
from .executor import RunState, run_graph
from .fakequant import calibrate, export_fp16, quantizer_ids
from .graph import Graph, buffer_items, infer_shapes, trainable_items
from .metrics import CompressionReport, build_report, count_params
from .modelio import from_bytes, save_bytes, to_bytes
from .pruner import PrunePlan, apply_prune, build_plan


@dataclass
class TrainConfig:
    epochs: int
    prune_epoch: int | None = None
    channel_fraction: float = 0.0
    qat_enabled: bool = False
    calibration_batches: int = 2
    lr: float = 0.015
    momentum: float = 0.9
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise TrainingError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise TrainingError(f"lr must be finite and >= 0, got {self.lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise TrainingError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.prune_epoch is not None and not (0 <= self.prune_epoch < self.epochs):
            raise TrainingError(
                f"prune_epoch {self.prune_epoch} must lie inside [0, {self.epochs})")
        if not (0.0 <= self.channel_fraction < 1.0):
            raise TrainingError(
                f"channel_fraction must be in [0, 1), got {self.channel_fraction}")
        if self.channel_fraction > 0.0 and self.prune_epoch is None:
            raise TrainingError(
                f"channel_fraction {self.channel_fraction} needs a prune_epoch to prune at")
        if self.qat_enabled and self.calibration_batches < 1:
            raise TrainingError("qat needs at least one calibration batch")


class ToyTask:
    """Seeded generator of (3x64x64 image, class) pairs with fixed splits.

    Each image holds one procedural shape (disc, cross, or bar) at random
    position/scale/polarity over Gaussian noise. Labels are assigned
    round-robin, so classes stay balanced within one sample.
    """

    SHAPES = ("disc", "cross", "bar")
    NOISE = 0.02     # standard deviation of the Gaussian background
    CONTRAST = 0.45  # brightness added inside the shape

    def __init__(self, n_classes=3, n_train=64, n_val=24, seed=0, size=64):
        if not (2 <= n_classes <= len(self.SHAPES)):
            raise TrainingError(f"toy task supports 2..3 classes, got {n_classes}")
        if n_train < 1 or n_val < 1:
            raise TrainingError(f"toy task needs n_train and n_val >= 1, got {n_train} and {n_val}")
        if size < 45:  # a shape of radius up to 20 sits 2 pixels clear of each border
            raise TrainingError(f"toy task needs size >= 45, got {size}")
        if seed < 0:
            raise TrainingError(f"toy task needs seed >= 0, got {seed}")
        self.n_classes = n_classes
        self.size = size
        rng = np.random.default_rng(seed)
        n = n_train + n_val
        images = np.empty((n, 3, size, size), dtype=np.float32)
        labels = np.empty(n, dtype=np.int64)
        for i in range(n):
            k = i % n_classes
            images[i] = self._render(rng, self.SHAPES[k])
            labels[i] = k
        self.train_images, self.val_images = images[:n_train], images[n_train:]
        self.train_labels, self.val_labels = labels[:n_train], labels[n_train:]

    def _render(self, rng, shape):
        s = self.size
        img = rng.normal(0.35, self.NOISE, (3, s, s))
        r = int(rng.integers(10, 21))
        t = max(3, r // 3)
        cy = int(rng.integers(r + 2, s - r - 2))
        cx = int(rng.integers(r + 2, s - r - 2))
        yy, xx = np.mgrid[0:s, 0:s]
        dy, dx = np.abs(yy - cy), np.abs(xx - cx)
        if shape == "disc":
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        elif shape == "cross":
            mask = ((dx <= t) & (dy <= r)) | ((dy <= t) & (dx <= r))
        else:  # bar: always vertical, so orientation statistics separate it from cross
            mask = (dx <= t) & (dy <= r)
        img += self.CONTRAST * mask[None, :, :]
        return np.clip(img, 0.0, 1.0).astype(np.float32)

    def batches(self, epoch: int, batch_size: int, seed: int):
        """Deterministic per-epoch shuffled minibatches of the train split."""
        order = np.random.default_rng([seed, 1000003, epoch]).permutation(len(self.train_images))
        for i in range(0, len(order), batch_size):
            sel = order[i:i + batch_size]
            yield self.train_images[sel], self.train_labels[sel]

    def calibration_batches(self, count: int, batch_size: int):
        """First train batches, unshuffled, cycling if more are requested."""
        n = len(self.train_images)
        out = []
        for i in range(count):
            lo = (i * batch_size) % n
            sel = np.arange(lo, lo + batch_size) % n
            out.append(self.train_images[sel])
        return out


def _cls_output(graph: Graph) -> str:
    cls = graph.meta.get("cls_output")
    if cls is None:
        raise TrainingError("graph has no auxiliary classification output")
    return cls


def _accuracy(graph: Graph, task: ToyTask, state: RunState | None = None) -> float:
    cls = _cls_output(graph)
    res = run_graph(graph, task.val_images, mode="eval", state=state, outputs=[cls])
    pred = res[cls].value.argmax(axis=1)
    return float((pred == task.val_labels).mean())


def evaluate(graph: Graph, task: ToyTask) -> float:
    """Validation accuracy of the auxiliary classifier, eval mode."""
    return _accuracy(graph, task)


class Trainer:
    """SGD-with-momentum loop over a fixed graph topology.

    Weights and batchnorm buffers live in a RunState; ``to_graph`` copies
    them out, which is all a schedule needs to branch mid-run. A classifier
    with fewer outputs than the task has classes is a ``TrainingError`` here.
    """

    def __init__(self, graph: Graph, task: ToyTask, config: TrainConfig):
        self.graph = graph
        self.task = task
        self.config = config
        self.cls = _cls_output(graph)
        width = infer_shapes(graph)[(self.cls, 0)][1]
        if width < task.n_classes:
            raise TrainingError(f"classifier {self.cls!r} has {width} outputs, "
                                f"fewer than the task's {task.n_classes} classes")
        vars_ = {key: ag.Var(arr.copy()) for key, arr in trainable_items(graph)}
        buffers = {key: arr.copy() for key, arr in buffer_items(graph)}
        self.state = RunState(vars_, buffers)
        self.velocity = {key: np.zeros_like(v.value) for key, v in vars_.items()}

    def to_graph(self) -> Graph:
        g = self.graph.clone(copy_params=False)  # every tensor is overwritten below
        for (nid, name), v in self.state.vars.items():
            g.node(nid).params[name] = v.value.copy()
        for (nid, name), a in self.state.buffers.items():
            g.node(nid).params[name] = a.copy()
        return g

    # -- optimization ----------------------------------------------------------

    def _step(self, xb, yb) -> float:
        for var in self.state.vars.values():
            var.grad = None  # cleared first, so a step that raised leaks nothing
        tape = ag.Tape()
        out = run_graph(self.graph, xb, mode="train", tape=tape,
                        state=self.state, outputs=[self.cls])
        loss = ag.softmax_cross_entropy(tape, out[self.cls], yb)
        ag.backward(tape, loss)
        lr, mu = self.config.lr, self.config.momentum
        for key, var in self.state.vars.items():
            if var.grad is None:  # not upstream of the loss (the detection heads)
                continue
            v = self.velocity[key]
            v *= mu
            v += var.grad
            var.value = (var.value - lr * v).astype(np.float32)
        return float(loss.value)

    def run_epochs(self, start: int, end: int, phase: str) -> list[tuple]:
        """Train epochs [start, end); returns per-epoch log rows."""
        rows = []
        for epoch in range(start, end):
            losses = []
            for xb, yb in self.task.batches(epoch, self.config.batch_size, self.config.seed):
                loss = self._step(xb, yb)
                if not np.isfinite(loss):
                    raise TrainingError(f"training diverged (loss={loss}) at epoch {epoch}")
                losses.append(loss)
            rows.append((epoch, float(np.mean(losses)), self.evaluate(), phase))
        return rows

    def evaluate(self) -> float:
        return _accuracy(self.graph, self.task, self.state)


def train(graph: Graph, task: ToyTask, config: TrainConfig):
    """Plain training; returns (trained graph, per-epoch log rows)."""
    tr = Trainer(graph, task, config)
    rows = tr.run_epochs(0, config.epochs, "dense")
    return tr.to_graph(), rows


# ---------------------------------------------------------------------------
# integrated pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    dense_graph: Graph
    slim_graph: Graph
    plan: PrunePlan | None
    log: list
    dense_report: CompressionReport
    slim_report: CompressionReport
    fp32_bytes: bytes
    fp16_bytes: bytes
    final_accuracy: float
    fp16_accuracy: float


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SlimgraphError as e:
        raise type(e)(f"[stage {name}] {e}") from e


def _prune(graph: Graph, fraction: float, epoch: int, calib) -> tuple[PrunePlan, Graph]:
    """Plan, prune and, when the graph has quantizers, recalibrate them:
    scales fixed for the dense graph are stale after pruning. The channel groups are
    resolved once, for both the plan and the prune."""
    groups = _stage("plan", resolve_groups, graph)
    plan = _stage("plan", build_plan, graph, fraction, groups, epoch_trigger=epoch)
    slim = _stage("prune", apply_prune, graph, plan, groups)
    if quantizer_ids(slim):
        slim = _stage("recalibrate", calibrate, slim, calib)
    return plan, slim


def run_compression_pipeline(preset_or_graph, task: ToyTask, config: TrainConfig,
                             input_shape=(1, 3, 64, 64)) -> PipelineResult:
    """Calibrate, train, prune at the trigger epoch, recalibrate, fine-tune, export."""
    if isinstance(preset_or_graph, str):
        g = _stage("build", build_mini_net, preset_or_graph, input_shape,
                   task.n_classes, seed=config.seed)
    else:
        g = preset_or_graph

    calib = task.calibration_batches(config.calibration_batches, config.batch_size)
    if config.qat_enabled:
        g = _stage("calibrate", calibrate, g, calib)

    prune_at = config.prune_epoch if config.prune_epoch is not None else config.epochs
    trainer = Trainer(g, task, config)
    log = _stage("train", trainer.run_epochs, 0, prune_at, "dense")
    dense_graph = trainer.to_graph()
    dense_acc = log[-1][2] if log else trainer.evaluate()  # no dense epoch at prune_epoch=0

    if config.prune_epoch is not None:
        plan, slim = _prune(dense_graph, config.channel_fraction, config.prune_epoch, calib)
        trainer = Trainer(slim, task, config)
        log += _stage("finetune", trainer.run_epochs, config.prune_epoch,
                      config.epochs, "pruned")
        final = trainer.to_graph()
        final_acc = log[-1][2]
    else:
        plan = None
        final = dense_graph
        final_acc = dense_acc

    fp32_bytes = _stage("export", to_bytes, final, 32)
    fp16_bytes, _ = _stage("export", export_fp16, final)
    fp16_graph, _ = from_bytes(fp16_bytes)
    fp16_acc = evaluate(fp16_graph, task)

    dense_params = count_params(dense_graph)
    dense_report = build_report(dense_graph, dense_params=dense_params,
                                val_accuracy=dense_acc, input_shape=input_shape)
    slim_report = build_report(final, dense_params=dense_params,
                               channel_fraction=config.channel_fraction,
                               val_accuracy=final_acc, input_shape=input_shape)
    return PipelineResult(dense_graph, final, plan, log, dense_report, slim_report,
                          fp32_bytes, fp16_bytes, final_acc, fp16_acc)


# ---------------------------------------------------------------------------
# multi-arm recovery study (shared trunk per seed)
# ---------------------------------------------------------------------------

@dataclass
class StudyResult:
    dense_acc: dict = field(default_factory=dict)        # seed -> accuracy
    finetuned_acc: dict = field(default_factory=dict)    # (seed, fraction) -> accuracy
    nofinetune_acc: dict = field(default_factory=dict)   # seed -> accuracy (base fraction)
    early_acc: dict = field(default_factory=dict)        # seed -> accuracy
    late_acc: dict = field(default_factory=dict)         # seed -> accuracy


def prune_recovery_study(preset: str = "ecoweed_mini", seeds=(0, 1, 2), *,
                         epochs=250, prune_epoch=150, fractions=(0.1, 0.3, 0.5),
                         early_epoch=62, late_epoch=187, base_fraction=0.3,
                         task_kwargs=None) -> StudyResult:
    """Trend study behind the pipeline properties.

    Per seed: a plain dense baseline, a QAT trunk whose graph is kept at the
    three prune points, then prune+recalibrate+fine-tune arms that branch off
    those graphs. Determinism of the per-epoch batch streams makes each arm
    identical to a standalone pipeline run with the same configuration.
    Every mark must lie inside [0, epochs), ``base_fraction`` among
    ``fractions``, and ``task_kwargs`` be ToyTask options other than ``seed``;
    these, and the first seed's task, are checked before any training.
    """
    if preset not in PRESETS:
        raise TrainingError(f"unknown preset {preset!r}")
    for name, mark in (("early_epoch", early_epoch), ("prune_epoch", prune_epoch),
                       ("late_epoch", late_epoch)):
        if not (0 <= mark < epochs):
            raise TrainingError(f"{name} {mark} must lie inside [0, {epochs})")
    for f in fractions:
        if not (0.0 <= f < 1.0):
            raise TrainingError(f"fraction {f} must be in [0, 1)")
    if base_fraction not in fractions:
        raise TrainingError(f"base_fraction {base_fraction} is not among fractions {tuple(fractions)}")
    bad = sorted(set(task_kwargs or {}) - {"n_classes", "n_train", "n_val", "size"})
    if bad:
        raise TrainingError(f"task_kwargs {bad} are not ToyTask options other than seed")
    res = StudyResult()
    for seed in seeds:
        task = ToyTask(seed=seed, **dict(task_kwargs or {}))
        cfg = TrainConfig(epochs=epochs, seed=seed, qat_enabled=True)
        calib = task.calibration_batches(cfg.calibration_batches, cfg.batch_size)

        g0 = build_mini_net(preset, (1, 3, 64, 64), task.n_classes, seed=seed)
        res.dense_acc[seed] = train(g0, task, cfg)[1][-1][2]

        gq = calibrate(g0, calib)
        trunk = Trainer(gq, task, cfg)
        marks = {}
        cursor = 0
        for mark in sorted({early_epoch, prune_epoch, late_epoch}):
            trunk.run_epochs(cursor, mark, "dense")
            marks[mark] = trunk.to_graph()
            cursor = mark

        def arm(mark: int, fraction: float, before: bool = False) -> float:
            tr = Trainer(_prune(marks[mark], fraction, mark, calib)[1], task, cfg)
            if before:  # the one arm whose accuracy before fine-tuning is reported
                res.nofinetune_acc[seed] = tr.evaluate()
            return tr.run_epochs(mark, epochs, "pruned")[-1][2]

        for f in fractions:
            res.finetuned_acc[(seed, f)] = arm(prune_epoch, f, before=f == base_fraction)
        res.early_acc[seed] = arm(early_epoch, base_fraction)
        res.late_acc[seed] = arm(late_epoch, base_fraction)
    return res


def write_metric_log(rows, path) -> None:
    """One CSV line per epoch: epoch, train_loss, val_acc, phase; UTF-8, written through
    ``modelio.save_bytes``."""
    lines = "".join(f"{epoch},{loss:.6f},{acc:.4f},{phase}\n" for epoch, loss, acc, phase in rows)
    save_bytes(f"epoch,train_loss,val_acc,phase\n{lines}".encode("utf-8"), path)
