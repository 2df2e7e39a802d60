"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 validation/verification failure,
3 I/O or container-format error. Every run echoes its resolved configuration
so artifacts can be traced back to exact flags, then checks that each output
flag is not empty, names no directory and has an existing directory, before doing
any work. Each subparser names its body; a body fails by raising, and ``run`` alone
maps the error to its exit code. ``SLIMGRAPH_SEED`` supplies ``--seed``; it is read
after parsing, only for a subcommand that takes ``--seed`` and only when the flag is
absent. ``fakequant.calibrate`` instruments a graph that has no quantizers, and
``qat`` is ``calibrate`` followed by ``train``'s body.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import depgraph, fakequant, metrics, modelio, pipeline, pruner
from .builders import PRESETS, build_mini_net
from .errors import ModelFormatError, PlanError, SlimgraphError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _env_seed() -> int:
    """``--seed`` when the flag is absent: ``SLIMGRAPH_SEED``, else 0."""
    value = os.environ.get("SLIMGRAPH_SEED", "0")
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise _UsageError(f"SLIMGRAPH_SEED must be an integer >= 0, got {value!r}")
    return seed


def _echo_config(cmd: str, args: argparse.Namespace) -> None:
    pairs = " ".join(f"{k}={v!r}" for k, v in sorted(vars(args).items()))
    print(f"[slimgraph] {cmd}: {pairs}")


def _training_flags(sp, batches=False) -> None:
    """The flags ``train`` and ``qat`` share, with ``qat``'s ``--batches`` after ``--epochs``."""
    cfg = pipeline.TrainConfig
    sp.add_argument("--model", required=True)
    sp.add_argument("--epochs", type=int, required=True)
    if batches:
        sp.add_argument("--batches", type=int, default=cfg.calibration_batches)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--lr", type=float, default=cfg.lr)
    sp.add_argument("--momentum", type=float, default=cfg.momentum)
    sp.add_argument("--batch-size", type=int, default=cfg.batch_size)
    sp.add_argument("--log", default=None)


def _build_parser() -> _Parser:
    cfg = pipeline.TrainConfig  # training defaults live on its fields
    p = _Parser(prog="slimgraph", description=__doc__ and __doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(name, body, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(body=body)
        return sp

    sp = command("build", _cmd_build, "construct a preset graph and save it")
    sp.add_argument("--preset", required=True, choices=PRESETS)
    sp.add_argument("--classes", type=int, default=3)
    sp.add_argument("--input-size", type=int, default=64)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", required=True)

    sp = command("train", _cmd_train, "train a model on the toy task")
    _training_flags(sp)
    sp.add_argument("--out", default=None)

    sp = command("prune", _cmd_prune, "score channels, build a plan, emit the slim model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--fraction", type=float, required=True)
    sp.add_argument("--plan-out", default=None)
    sp.add_argument("--out", required=True)

    sp = command("calibrate", _cmd_calibrate, "instrument (if needed) and calibrate quantizers")
    sp.add_argument("--model", required=True)
    sp.add_argument("--batches", type=int, default=cfg.calibration_batches)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--calib-out", default=None)
    sp.add_argument("--out", required=True)

    sp = command("qat", _cmd_train, "insert + calibrate quantizers, then train under them")
    _training_flags(sp, batches=True)
    sp.add_argument("--out", required=True)

    sp = command("pipeline", _cmd_pipeline,
                 "integrated train -> prune -> recalibrate -> finetune -> export")
    sp.add_argument("--preset", required=True, choices=PRESETS)
    sp.add_argument("--classes", type=int, default=3)
    sp.add_argument("--fraction", type=float, default=cfg.channel_fraction)
    sp.add_argument("--prune-epoch", type=int, default=None)
    sp.add_argument("--epochs", type=int, required=True)
    sp.add_argument("--qat", action="store_true")
    sp.add_argument("--calibration-batches", type=int, default=cfg.calibration_batches)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--lr", type=float, default=cfg.lr)
    sp.add_argument("--batch-size", type=int, default=cfg.batch_size)
    sp.add_argument("--out-dir", required=True)

    sp = command("verify", _cmd_verify,
                 "prune-equivalence check of a slim model against its dense source")
    sp.add_argument("--dense", required=True)
    sp.add_argument("--slim", required=True)
    sp.add_argument("--plan", required=True)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.add_argument("--seed", type=int)

    sp = command("report", _cmd_report, "emit a compression report for one or more models")
    sp.add_argument("--models", nargs="+", required=True)
    sp.add_argument("--csv", default=None)

    sp = command("inspect", _cmd_inspect, "dump the resolved channel groups of a model")
    sp.add_argument("--model", required=True)
    return p


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_build(args) -> int:
    shape = (1, 3, args.input_size, args.input_size)
    g = build_mini_net(args.preset, shape, args.classes, seed=args.seed)
    n = modelio.save(g, 32, args.out)
    print(f"built {args.preset}: {metrics.count_params(g)} params, wrote {n} bytes to {args.out}")
    return 0


def _make_task(graph, seed):
    return pipeline.ToyTask(n_classes=graph.meta.get("n_classes", 3), seed=seed)


def _cmd_train(args) -> int:
    qat = args.cmd == "qat"  # calibrate, then the same training
    g, _ = modelio.load(args.model)
    cfg = pipeline.TrainConfig(epochs=args.epochs, seed=args.seed, lr=args.lr,
                               momentum=args.momentum, batch_size=args.batch_size, qat_enabled=qat,
                               calibration_batches=args.batches if qat else 1)
    task = _make_task(g, args.seed)
    if qat:
        g = fakequant.calibrate(g, task.calibration_batches(args.batches, args.batch_size))
    trained, rows = pipeline.train(g, task, cfg)
    if args.log:
        pipeline.write_metric_log(rows, args.log)
    if args.out:
        modelio.save(trained, 32, args.out)
    print(f"{'qat-' if qat else ''}trained {args.epochs} epochs; final val_acc={rows[-1][2]:.4f}")
    return 0


def _cmd_prune(args) -> int:
    g, _ = modelio.load(args.model)
    groups = depgraph.resolve_groups(g)
    plan = pruner.build_plan(g, args.fraction, groups)
    slim = pruner.apply_prune(g, plan, groups)
    if args.plan_out:
        pruner.write_plan(plan, args.plan_out)
    modelio.save(slim, 32, args.out)
    dense_p, slim_p = metrics.count_params(g), metrics.count_params(slim)
    print(f"pruned fraction={args.fraction}: {dense_p} -> {slim_p} params "
          f"({pruner.ratio_percent(dense_p, slim_p):.1f}%)")
    return 0


def _cmd_calibrate(args) -> int:
    g, _ = modelio.load(args.model)
    calib = _make_task(g, args.seed).calibration_batches(args.batches, pipeline.TrainConfig.batch_size)
    g = fakequant.calibrate(g, calib)
    if args.calib_out:
        fakequant.write_calibration(g, args.calib_out)
    modelio.save(g, 32, args.out)
    print(f"calibrated {len(fakequant.quantizer_ids(g))} quantizers over {args.batches} batches")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = pipeline.TrainConfig(
        epochs=args.epochs, prune_epoch=args.prune_epoch,
        channel_fraction=args.fraction, qat_enabled=args.qat,
        calibration_batches=args.calibration_batches, lr=args.lr,
        batch_size=args.batch_size, seed=args.seed)
    task = pipeline.ToyTask(n_classes=args.classes, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    result = pipeline.run_compression_pipeline(args.preset, task, cfg)

    out = lambda name: os.path.join(args.out_dir, name)
    modelio.save_bytes(result.fp32_bytes, out("model_fp32.twnm"))
    modelio.save_bytes(result.fp16_bytes, out("model_fp16.twnm"))
    if result.plan is not None:
        pruner.write_plan(result.plan, out("plan.txt"))
    if args.qat:
        fakequant.write_calibration(result.slim_graph, out("calib.txt"))
    pipeline.write_metric_log(result.log, out("metrics.csv"))
    csv_text, table = metrics.emit_report([result.dense_report, result.slim_report])
    modelio.save_bytes(csv_text.encode("utf-8"), out("report.csv"))
    modelio.save_bytes(table.encode("utf-8"), out("report.txt"))
    print(table, end="")
    print(f"fp16 val_acc={result.fp16_accuracy:.4f} (fp32 {result.final_accuracy:.4f})")
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise SlimgraphError(f"verify: --trials must be >= 1, got {args.trials}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise SlimgraphError(f"verify: --tol must be finite and >= 0, got {args.tol}")
    dense, _ = modelio.load(args.dense)
    slim, _ = modelio.load(args.slim)
    shape, rng = (1,) + dense.input_shape[1:], np.random.default_rng(args.seed)
    trials = (rng.normal(0.5, 0.25, shape).astype(np.float32) for _ in range(args.trials))
    worst = pruner.verify(dense, slim, pruner.read_plan(args.plan), trials)
    print(f"verify: {args.trials} trials, worst relative deviation {worst:.3e} (tol {args.tol})")
    return 0 if worst <= args.tol else 2


def _cmd_report(args) -> int:
    reports = []
    dense_params = None
    for path in args.models:
        g, bits = modelio.load(path)
        if dense_params is None:
            dense_params = metrics.count_params(g)  # first model is the baseline
        reports.append(metrics.build_report(g, dense_params=dense_params,
                                            precision_bits=bits))
    csv_text, table = metrics.emit_report(reports)
    if args.csv:
        modelio.save_bytes(csv_text.encode("utf-8"), args.csv)
    print(table, end="")
    return 0


def _cmd_inspect(args) -> int:
    g, _ = modelio.load(args.model)
    print(depgraph.format_groups(g), end="")
    return 0


def _check_out_dirs(args) -> None:
    """Fail before any work when an output flag is empty, an output file names a directory,
    or the directory of the file it resolves to through links does not exist (``--out-dir``
    is made). Flags are checked in the order the bodies write them."""
    for flag in ("log", "calib_out", "plan_out", "csv", "out", "out_dir"):
        path, name = getattr(args, flag, None), "--" + flag.replace("_", "-")
        if path == "":
            raise FileNotFoundError(f"{name} is empty")
        if not path or flag == "out_dir":
            continue
        if os.path.isdir(path):
            raise IsADirectoryError(f"{name} {path!r} is a directory")
        real = os.path.realpath(path)
        if not os.path.isdir(os.path.dirname(real)):
            via = f" (a link to {real!r})" if real != os.path.abspath(path) else ""
            raise FileNotFoundError(f"no directory to write {path!r}{via} into")


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if "seed" in vars(args) and args.seed is None:  # only commands that take --seed
            args.seed = _env_seed()
        if getattr(args, "seed", 0) < 0:  # numpy's generators take no negative seed
            raise _UsageError(f"argument --seed: must be >= 0, got {args.seed}")
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    body = vars(args).pop("body")
    _echo_config(args.cmd, args)
    try:
        _check_out_dirs(args)
        return body(args)
    except PlanError as e:
        print(f"plan error: {e}", file=sys.stderr)
        return 2
    except (ModelFormatError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except SlimgraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
