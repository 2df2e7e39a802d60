"""Declarations behind the benchmark: workloads, metrics and the layer map.

``BENCHMARK.json`` carries only names, units, directions and bounds; the
reasoning that links them lives here, next to the code that uses it:

* each workload records which ``slimgraph`` layers it exercises and bypasses
  (why it was chosen is its ``why`` in ``BENCHMARK.json``);
* each per-layer metric records the end-to-end metric and workload it should
  move, so a later change can state its claim by these names;
* each traced span records the workloads on which it must fire and those on
  which it must stay silent (the trace completeness check).

The gated end-to-end metrics are common to all workloads, because every run
must report every one of them. What the gated latency means per workload is
in ``E2E_MEANING``; the workload-specific figures are printed by name above
the result line.
"""

PRESETS = ("ecoweed_mini", "y11_mini", "y12_mini")
FRAGMENT_MODULES = ("c3k2", "sppf", "c2psa", "a2c2f", "spab")
FRAGMENT_WIDTHS = (64, 128, 256)
FRAGMENT_SPATIAL = 16

WORKLOADS = {
    "pipeline": {
        "exercises": ["ops fwd+bwd", "autograd", "executor train/eval/calibrate", "fakequant",
                      "pipeline", "pruner", "depgraph", "modelio", "metrics"],
        "bypasses": [],
    },
    "infer": {
        "exercises": ["ops fwd", "executor eval", "fakequant qdq",
                      "set-up: calibrate, prune, batchnorm settling, export, reload"],
        "bypasses": ["autograd", "ops bwd", "fakequant qdq_backward", "pipeline training"],
    },
    "compress": {
        "exercises": ["depgraph", "pruner", "graph", "modelio", "fakequant export", "metrics",
                      "ops fwd (batch-1 verify)"],
        "bypasses": ["autograd", "ops bwd", "fakequant qdq", "pipeline training"],
    },
}

# gated end-to-end metric -> unit
E2E_UNITS = {"ref_latency_ms_p50": "ms", "peak_rss_mb": "MiB", "setup_s": "s"}

# The gated latency is the median of the workload's main single-mode class,
# and setup_s the median of the set-up probes, each time scaled to reference
# machine speed by the speed-probe times next to it (``speed``). On the shared
# 2-vCPU VM this was tuned on, whose speed drifts by 20-40% with other
# tenants' load, ten seeds per workload gave a run-to-run spread (quartile
# distance over median) of 0.03-0.07 for the scaled median, against
# 0.08-0.35 for the wall-time median and 0.18-0.36 for the wall-time p10.
# The wall-time percentiles, throughputs and set-up times are printed by name.
E2E_MEANING = {
    "ref_latency_ms_p50": {
        "pipeline": "dense_step_ms_p50 at reference speed: SGD step latency before pruning",
        "infer": "infer_batch_ms_p50 at reference speed: per-batch forward latency",
        "compress": "compress_round_ms_p50 at reference speed: one pass of the chain over the "
                    "fixed 18 graphs",
    },
    "setup_s": {w: "median set-up time of 5 fresh interpreters at reference speed"
                for w in WORKLOADS},
}

INPUT_SIZE = 64
BATCH = 16
CHANNEL_FRACTION = 0.5
EPOCHS = 12  # 6 dense + 6 pruned: with seed 0 the presets leave chance (0.458, 0.708, 0.708)
PRUNE_EPOCH = 6

ALL = ("pipeline", "infer", "compress")
P, I, C = ("pipeline",), ("infer",), ("compress",)

# name -> (unit, better, the end-to-end figure it should move and on which
# workload; the figures are the ones each run prints by name)
PER_LAYER = {
    "ops.conv_fwd_ms": ("ms", "lower", "step p50s and train_img_per_s on pipeline; infer_* on infer"),
    "ops.conv_bwd_ms": ("ms", "lower", "step p50s on pipeline; 0 on infer"),
    "ops.conv_calls": ("count", "lower", "work count behind ops.conv_* on every workload"),
    "ops.conv_gmac_per_s": ("GMAC/s", "higher", "step p50s on pipeline; infer_img_per_s on infer"),
    "ops.bn_fwd_ms": ("ms", "lower", "step p50s on pipeline; infer_* on infer"),
    "ops.bn_bwd_ms": ("ms", "lower", "step p50s on pipeline; 0 on infer"),
    "ops.sigmoid_ms": ("ms", "lower", "step p50s on pipeline; infer_* on infer"),
    "ops.maxpool_fwd_ms": ("ms", "lower", "step p50s on pipeline; infer_* on infer"),
    "ops.maxpool_bwd_ms": ("ms", "lower", "step p50s on pipeline; 0 on infer"),
    "ops.other_ms": ("ms", "lower", "step p50s on pipeline; infer_* on infer"),
    "autograd.backward_ms": ("ms", "lower", "step p50s on pipeline; never fires on infer or compress"),
    "autograd.backward_self_ms": ("ms", "lower", "step p50s on pipeline; never fires on infer or compress"),
    "autograd.tape_records_per_step": ("count", "lower", "step p50s on pipeline"),
    "executor.train_ms": ("ms", "lower", "step p50s on pipeline; setup_s on infer (batchnorm settling)"),
    "executor.eval_ms": ("ms", "lower", "infer_batch_ms_p50 on infer; pipeline_s on pipeline"),
    "executor.calibrate_ms": ("ms", "lower", "pipeline_s on pipeline; setup_s on infer"),
    "executor.self_ms": ("ms", "lower", "step p50s on pipeline; infer_batch_ms_p50 on infer"),
    "executor.nodes_run_frac": ("fraction", "lower", "step p50s on pipeline; infer_batch_ms_p50 on infer"),
    "fakequant.qdq_ms": ("ms", "lower", "step p50s on pipeline; infer_img_per_s on infer"),
    "fakequant.qdq_bwd_ms": ("ms", "lower", "step p50s on pipeline; 0 on infer"),
    "fakequant.observe_ms": ("ms", "lower", "pipeline_s on pipeline; setup_s on infer"),
    "fakequant.calibrate_ms": ("ms", "lower", "pipeline_s on pipeline; setup_s on infer"),
    "fakequant.export_fp16_ms": ("ms", "lower", "compress_graphs_per_s on compress"),
    "fakequant.clip_frac": ("fraction", "lower", "val_acc on pipeline (quantizer clipping)"),
    "depgraph.resolve_ms": ("ms", "lower", "compress_graphs_per_s on compress; under 1% of pipeline_s"),
    "depgraph.resolve_us_per_channel": ("us", "lower", "compress_graphs_per_s on compress"),
    "depgraph.groups": ("count", "higher", "must stay flat: group structure of the resolved graphs"),
    "pruner.plan_ms": ("ms", "lower", "compress_graphs_per_s; pipeline_s marginally"),
    "pruner.apply_ms": ("ms", "lower", "compress_graphs_per_s; pipeline_s marginally"),
    "pruner.oracle_ms": ("ms", "lower", "compress_graphs_per_s on compress"),
    "pruner.removed_frac": ("fraction", "higher", "must stay flat: parameters removed at fraction 0.5"),
    "graph.infer_shapes_ms": ("ms", "lower", "compress_graphs_per_s; setup_s"),
    "graph.clone_ms": ("ms", "lower", "compress_graphs_per_s; setup_s"),
    "graph.clone_calls": ("count", "lower", "compress_graphs_per_s; setup_s"),
    "modelio.to_bytes_ms": ("ms", "lower", "compress_graphs_per_s; setup_s on infer"),
    "modelio.from_bytes_ms": ("ms", "lower", "compress_graphs_per_s; setup_s on infer"),
    "modelio.read_mb_per_s": ("MB/s", "higher", "compress_graphs_per_s; setup_s on infer"),
    "metrics.report_ms": ("ms", "lower", "compress_graphs_per_s; pipeline_s"),
    "pipeline.eval_ms": ("ms", "lower", "pipeline_s and train_img_per_s on pipeline"),
    "pipeline.step_self_ms": ("ms", "lower", "step p50s and train_img_per_s on pipeline"),
    "pipeline.task_ms": ("ms", "lower", "setup_s on pipeline and infer"),
    "builders.build_ms": ("ms", "lower", "setup_s on all"),
    "package.import_ms": ("ms", "lower", "setup_s on all"),
    "trace.overhead_frac": ("fraction", "lower", "none: traced over untraced wall time of the same work, minus 1"),
}

# traced span -> (workloads where it must fire, workloads where it must not)
SPAN_RULES = {
    "ops.conv2d_forward": (ALL, ()),
    "ops.conv2d_backward": (P, I + C),
    "ops.batchnorm_infer": (ALL, ()),
    "ops.batchnorm_train_forward": (P + I, ()),
    "ops.batchnorm_train_backward": (P, I + C),
    "ops.sigmoid": (ALL, ()),
    "ops.maxpool2d_forward": (ALL, ()),
    "ops.maxpool2d_backward": (P, I + C),
    "ops.add": (ALL, ()),
    "ops.multiply": (ALL, ()),
    "ops.concat_channels": (ALL, ()),
    "ops.split_channels": (ALL, ()),
    "ops.global_avg_pool": (ALL, ()),
    "ops.linear": (ALL, ()),
    "autograd.backward": (P, I + C),
    "executor.run_graph:train": (P + I, C),
    "executor.run_graph:eval": (ALL, ()),
    "executor.run_graph:calibrate": (P + I, C),
    "fakequant.qdq": (P + I, C),
    "fakequant.qdq_backward": (P, I + C),
    "fakequant.HistogramObserver.observe": (P + I, C),
    "fakequant.calibrate": (P + I, C),
    "fakequant.export_fp16": (ALL, ()),
    "depgraph.resolve_groups": (ALL, ()),
    "pruner.build_plan": (ALL, ()),
    "pruner.apply_prune": (ALL, ()),
    "pruner.zero_embed_oracle": (C, ()),
    "graph.infer_shapes": (ALL, ()),
    "graph.Graph.clone": (ALL, ()),
    "modelio.to_bytes": (ALL, ()),
    "modelio.from_bytes": (ALL, ()),
    "metrics.build_report": (P + C, ()),
    "pipeline.Trainer._step": (P, I + C),
    "pipeline.Trainer.run_epochs": (P, I + C),
    "pipeline.Trainer.evaluate": (P, I + C),
    "pipeline.evaluate": (P, I + C),
    "pipeline.ToyTask.__init__": (P + I, ()),
    "builders.build_mini_net": (ALL, ()),
    "builders.build_fragment": (C, P + I),
}
