"""Order statistics for latency samples.

A percentile is only reported when at least ``MIN_BEYOND`` samples lie beyond
it, so a p90 needs 92 samples and a p50 needs 20. Callers pass one
single-mode class of samples (dense steps, pruned steps, infer batches), never
a mixture whose proportions change from run to run.
"""

import math

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The requested percentile has fewer than MIN_BEYOND samples beyond it."""


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the interpolation position of the q-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def percentile(values, q: float) -> float:
    """q-th percentile (0 < q < 100) by linear interpolation between order statistics."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    xs = sorted(values)
    n = len(xs)
    beyond = samples_beyond(n, q) if n else 0
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; need {MIN_BEYOND}")
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    frac = pos - lo
    if lo + 1 >= n:
        return float(xs[lo])
    return float(xs[lo] + (xs[lo + 1] - xs[lo]) * frac)


def summarize(values, qs=(50, 90)) -> dict:
    """{"p50": .., "p90": .., "n": ..}; a percentile with too few samples reads None."""
    out = {"n": len(values)}
    for q in qs:
        try:
            out[f"p{q:g}"] = percentile(values, q)
        except TooFewSamples:
            out[f"p{q:g}"] = None
    return out
