"""Print the time of each static pass of the compress chain, over the compress graphs.

The graphs are those of the benchmark's compress workload (``bench/workloads.py``,
from the lists in ``bench/spec.py``): the presets, and each fragment module at each
fragment width. One repeat runs the chain once over every graph, in the order a
compress round runs it, and sums each pass over the graphs. The table gives, per
pass, the median and the best of the repeats in milliseconds, after one untimed
repeat. A cold forward is each graph's first ``forward_arrays`` call, which compiles
its fold plan; a warm one is the second, which reuses it. Both forward the
zero-embedded oracle and the slim graph. The core count and the thread count of the
BLAS that numpy loaded are printed above the table. Timing is in-process
(``time.perf_counter``). The package is imported from ``src/`` of this checkout.

Usage: python tools/pass_times.py [--repeat N] [--seed S]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]  # this checkout's package, as bench/run.py

import numpy as np  # noqa: E402

import run  # noqa: E402  (bench/run.py: the environment the benchmark records)
import slimgraph as sg  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from slimgraph import depgraph, fakequant, metrics, modelio, pruner  # noqa: E402

PASSES = ("resolve", "plan", "apply", "oracle", "forward cold", "forward warm",
          "to_bytes", "export_fp16", "from_bytes", "build_report")


def chain(g, x, times: dict) -> None:
    """One graph through the compress chain, adding each pass's seconds to ``times``."""
    def timed(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        times[name] += time.perf_counter() - t0
        return out

    dense = metrics.count_params(g)
    groups = timed("resolve", depgraph.resolve_groups, g)
    plan = timed("plan", pruner.build_plan, g, spec.CHANNEL_FRACTION, groups)
    slim = timed("apply", pruner.apply_prune, g, plan, groups)
    embedded = timed("oracle", pruner.zero_embed_oracle, g, plan, groups)
    for name in ("forward cold", "forward warm"):
        timed(name, lambda: (sg.forward_arrays(embedded, x), sg.forward_arrays(slim, x)))
    fp32 = timed("to_bytes", modelio.to_bytes, slim, 32)
    timed("export_fp16", fakequant.export_fp16, slim)
    timed("from_bytes", modelio.from_bytes, fp32)
    timed("build_report", metrics.build_report, slim, dense_params=dense,
          channel_fraction=spec.CHANNEL_FRACTION)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=20, help="timed repeats (default 20)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the graphs and inputs")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    graphs = workloads.Compress(args.seed).graphs
    rng = np.random.default_rng([args.seed, 2])
    xs = [rng.normal(0.5, 0.25, (1,) + g.input_shape[1:]).astype(np.float32) for g in graphs]
    ms = {name: [] for name in PASSES}
    for r in range(args.repeat + 1):
        times = dict.fromkeys(PASSES, 0.0)
        for g, x in zip(graphs, xs):
            chain(g, x, times)
        for name in PASSES if r else ():  # the first repeat warms up
            ms[name].append(1e3 * times[name])
    env = run.environment()
    print(f"cores {env['nproc']}, BLAS {env['blas']} with {env['blas_threads']} threads, "
          f"{len(graphs)} graphs, {args.repeat} repeats")
    print(f"{'pass':<14} {'median ms':>10} {'best ms':>10}")
    for name in PASSES:
        print(f"{name:<14} {statistics.median(ms[name]):10.2f} {min(ms[name]):10.2f}")
    total = [sum(col) for col in zip(*ms.values())]
    print(f"{'total':<14} {statistics.median(total):10.2f} {min(total):10.2f}")


if __name__ == "__main__":
    main()
