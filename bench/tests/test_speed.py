"""Tests of the speed probe that scales gated times to reference speed."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import speed  # noqa: E402


def test_factor_is_reference_over_median_loop_time():
    probe = speed.SpeedProbe()
    probe.ms = [4.0, 1.0, 2.0 * speed.REF_MS]
    assert probe.factor() == pytest.approx(0.5)


def test_tick_records_only_when_enabled():
    probe = speed.SpeedProbe()
    probe.tick()
    probe.enabled = False
    probe.tick()
    assert len(probe.ms) == 1 and probe.ms[0] > 0
    probe.reset()
    assert probe.ms == []
