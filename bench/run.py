"""Benchmark of slimgraph: the pipeline, infer and compress workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs per interpreter; ``all`` runs each in a fresh one, one after
another. With ``--trace 0`` the run measures the end-to-end metrics untraced
and prints them; with ``--trace 1`` it traces a fixed amount of work and
prints the per-layer metrics, the tracing overhead and the trace
completeness check, and writes the spans under ``bench/traces/``. The last
line of output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout; without it the run
exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
WARMUP_S = 3.0    # untimed whole rounds (at least one) before measuring, so the CPU is busy and warm
PROBE_TIMEOUT_S = 120
SETUP_TICKS = 10  # speed-probe loops before and after each set-up probe
WORKLOAD_NAMES = ("pipeline", "infer", "compress")


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None when it cannot be asked."""
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def setup_seconds(workload: str, seed: int, probe) -> list[float]:
    """Set-up times of the workload in fresh interpreters (import, inputs, build),
    at reference speed.

    The speed probe runs before and after each one; each set-up time is
    scaled to reference speed by the loop times on both sides of it."""
    out = []
    for _ in range(SETUP_PROBES):
        for _ in range(SETUP_TICKS):
            probe.tick()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--probe-setup"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe of {workload} exited with {proc.returncode}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    for _ in range(SETUP_TICKS):
        probe.tick()
    return [s * speed.REF_MS / statistics.median(probe.ms[i * SETUP_TICKS:(i + 2) * SETUP_TICKS])
            for i, s in enumerate(out)]


def drive(wl, tally, seconds=0.0, min_rounds=1) -> float:
    """Run whole rounds until `seconds` passed and at least `min_rounds` are done."""
    t0 = time.perf_counter()
    done = 0
    while True:
        wl.run_round(tally)
        done += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and done >= min_rounds:
            return elapsed


def print_rows(rows) -> None:
    for name, value, unit, note in rows:
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        print(f"  {name:<32} {shown:>14} {unit:<9} {note}")


def measure(args) -> dict:
    """Untraced run: warm-up, set-up probes, then the measured rounds; every round is checked."""
    import spec
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.prepare_checks()
    tally = workloads.Tally()
    drive(wl, tally, seconds=WARMUP_S, min_rounds=1)
    wl.reset_timings()
    wl.probe.reset()
    setup_probe = speed.SpeedProbe()
    setups = setup_seconds(args.workload, args.seed, setup_probe)
    elapsed = drive(wl, tally, seconds=args.seconds, min_rounds=wl.min_rounds)
    e2e, rows = wl.summary()
    setup_s = statistics.median(setups)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = [("setup_s", setup_s, "s",
             "median at reference speed of " + ", ".join(f"{s:.3f}" for s in setups) +
             f" (speed-probe median {statistics.median(setup_probe.ms):.3f} ms)"),
            ("peak_rss_mb", peak, "MiB", "peak RSS of the workload process")] + rows
    print(f"# measured {elapsed:.2f} s; end-to-end metrics by name:")
    print_rows(rows)
    for name, meaning in spec.E2E_MEANING.items():
        print(f"# gated {name} = {meaning[args.workload]}")
    values = dict(e2e, setup_s=setup_s, peak_rss_mb=peak)
    return finish_result(tally, {k: (values[k], unit) for k, unit in spec.E2E_UNITS.items()})


def trace(args, env, import_ms) -> dict:
    """Traced run over fixed work: per-layer metrics, overhead and completeness."""
    import spec
    import tracing
    import workloads

    tracer = tracing.Tracer()
    targets = tracing.targets()
    tracer.install(targets)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer.uninstall()
    wl.prepare_checks()
    wl.hush = tracer.paused
    wl.probe.enabled = False
    tally = workloads.Tally()
    plain_s = drive(wl, tally, min_rounds=wl.trace_rounds)
    tracer.install(targets)
    try:
        traced_s = drive(wl, tally, min_rounds=wl.trace_rounds)
    finally:
        tracer.uninstall()
    overhead = traced_s / plain_s - 1.0
    layer = tracing.layer_metrics(tracer, import_ms, overhead)
    for problem in tracing.completeness(tracer, args.workload):
        tally.fail(0, problem)

    print(f"# traced {wl.trace_rounds} round(s): untraced {plain_s:.3f} s, traced {traced_s:.3f} s, "
          f"overhead {100 * overhead:.1f}%; {len(tracer.spans)} spans")
    print(f"  {'span':<40} {'calls':>8} {'total_ms':>11} {'self_ms':>11}")
    for name, (calls, total, own) in sorted(tracer.totals().items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:<40} {calls:>8} {1e3 * total:>11.2f} {1e3 * own:>11.2f}")
    print("# per-layer metrics by name:")
    print_rows([(k, v, spec.PER_LAYER[k][0], spec.PER_LAYER[k][2]) for k, v in layer.items()])
    out_dir = BENCH / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": env,
                        "rounds": wl.trace_rounds})
    print(f"# spans written to {path.relative_to(ROOT)}")
    return finish_result(tally, {k: (v, spec.PER_LAYER[k][0]) for k, v in layer.items()})


def finish_result(tally, metrics) -> dict:
    for problem in tally.problems:
        print(f"# CHECK FAILED: {problem}")
    return {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be at least 1 and --seed at least 0")

    if not (SRC / "slimgraph" / "__init__.py").is_file():
        print(f"bench: no slimgraph package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        t0 = time.perf_counter()
        import workloads
        workloads.WORKLOADS[args.workload](args.seed)
        print(f"{time.perf_counter() - t0!r}")
        return 0
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    import slimgraph  # noqa: F401  (first import in this interpreter: package.import_ms)
    import_ms = 1e3 * (time.perf_counter() - t0)
    env = environment()
    import spec
    info = spec.WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in declared["workloads"] if w["name"] == args.workload)
    print(f"# slimgraph benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# why: {why}")
    print(f"# exercises: {', '.join(info['exercises'])}; bypasses: {', '.join(info['bypasses']) or '-'}")
    result = trace(args, env, import_ms) if args.trace else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
