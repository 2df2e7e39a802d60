"""Machine-speed reference for timings on a host whose speed drifts.

The benchmark runs on a few cores of a shared host. Other tenants' load moves
the speed of those cores by 20-40% over seconds to minutes, for every kind of
code alike (interpreter, numpy, BLAS), so the wall time of the same work moves
with it from run to run. To take that drift out, the workloads run a fixed
pure-Python loop, independent of ``slimgraph``, after every timed operation,
and each gated time is reported at reference speed: scaled by ``REF_MS`` over
the median time of that loop around it. A change to the program moves
the operation times and not the loop, so it shows in full; a slower or faster
host moves both, and cancels.

The host's speed also moves within a run, so each time is scaled by the loop
times of a short window next to it, not by the median of the whole run.
On the 2-vCPU Xeon VM this was tuned on, five runs of the compress workload
spread 0.19 (quartile distance over median) in wall time, 0.12 scaled by
the run's median loop time and 0.06 scaled by the loop times of each round.
"""

from __future__ import annotations

import math
import statistics
import time

LOOP = 20_000
REF_MS = 2.0  # the loop's typical median time on the VM above
WINDOW = 9    # loop times that scale one operation: its own and the 8 before it


def _loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


class SpeedProbe:
    """Times the reference loop on demand and keeps the times of this run."""

    def __init__(self):
        self.enabled = True  # off in traced runs, so the overhead is the tracer's alone
        self.ms: list[float] = []

    def tick(self) -> None:
        if self.enabled:
            t0 = time.perf_counter()
            _loop(LOOP)
            self.ms.append(1e3 * (time.perf_counter() - t0))

    def reset(self) -> None:
        self.ms = []

    def factor(self, window: int = 0) -> float:
        """REF_MS over the median of the last `window` loop times (all if 0): multiply
        a measured time by it. NaN before the first tick."""
        recent = self.ms[-window:] if window else self.ms
        return REF_MS / statistics.median(recent) if recent else math.nan
