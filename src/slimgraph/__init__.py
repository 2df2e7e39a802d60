"""slimgraph: dependency-consistent channel pruning and simulated quantization
for small detection-style computation graphs."""

from .autograd import Tape, Var, backward
from .builders import PRESETS, build_fragment, build_mini_net
from .depgraph import ChannelGroup, ChannelSlot, group_cost, resolve_groups
from .executor import forward_arrays, run_graph
from .fakequant import calibrate, export_fp16, insert_fakequant, qdq, qdq_backward, ste_mask
from .graph import Graph, Node, infer_shapes
from .metrics import CompressionReport, build_report, count_flops, count_params, emit_report, estimate_memory
from .modelio import from_bytes, load, save, to_bytes
from .pipeline import (PipelineResult, ToyTask, TrainConfig, evaluate,
                       prune_recovery_study, run_compression_pipeline, train)
from .pruner import (PrunePlan, achieved_ratio, apply_prune, build_plan, l1_importance,
                     ratio_percent, select_channels, zero_embed_oracle)

__version__ = "0.1.0"
