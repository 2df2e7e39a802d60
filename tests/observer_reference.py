"""The whole-batch histogram observer, kept as an oracle.

This is ``HistogramObserver.observe`` as first written: it copies each batch
to float64, takes its absolute value, divides and clamps, each into a new
array of the batch's size. The library instead takes the range in the batch's
own dtype and counts it in fixed-size float64 chunks; counts, ``top`` and
``samples`` must not change.
"""

from __future__ import annotations

import numpy as np

from slimgraph.errors import CalibrationError
from slimgraph.fakequant import HIST_BINS, HistogramObserver


class ReferenceObserver(HistogramObserver):
    def observe(self, x: np.ndarray) -> None:
        ax = np.abs(np.asarray(x, dtype=np.float64)).ravel()
        if ax.size == 0:
            return
        m = float(ax.max())
        if not np.isfinite(m):  # max is inf or NaN exactly when some element is
            bad = int(ax.size - np.isfinite(ax).sum())
            raise CalibrationError(
                f"quantizer {self.name!r} observed {bad} non-finite activation(s) "
                f"among {ax.size}")
        if m > self.top:
            if self.top > 0.0:
                old_centers = (np.arange(HIST_BINS) + 0.5) * (self.top / HIST_BINS)
                idx = np.minimum((old_centers / (m / HIST_BINS)).astype(np.int64),
                                 HIST_BINS - 1)
                self.counts = np.bincount(idx, weights=self.counts, minlength=HIST_BINS)
            self.top = m
        if self.top > 0.0:
            width = self.top / HIST_BINS
            idx = np.minimum((ax / width).astype(np.int64), HIST_BINS - 1)
            self.counts += np.bincount(idx, minlength=HIST_BINS)
        self.samples += ax.size
