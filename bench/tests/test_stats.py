"""Tests of the benchmark's percentile helper."""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


def test_median_needs_ten_samples_beyond_it():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(19), 50)
    assert stats.percentile(range(20), 50) == 9.5


def test_p90_needs_ten_samples_beyond_it():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(91), 90)
    xs = [float(i * i) for i in range(92)]
    assert stats.samples_beyond(len(xs), 90) == 10
    assert stats.percentile(xs, 90) == pytest.approx(
        statistics.quantiles(xs, n=10, method="inclusive")[8])


def test_percentile_interpolates_like_inclusive_quantiles():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5] * 5
    assert stats.percentile(xs, 50) == pytest.approx(statistics.median(xs))
    assert stats.percentile(xs, 25) == pytest.approx(
        statistics.quantiles(xs, n=4, method="inclusive")[0])


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        stats.percentile(range(100), 100)


def test_summarize_reports_too_few_samples_as_none():
    s = stats.summarize([1.0] * 50)
    assert s == {"n": 50, "p50": 1.0, "p90": None}
