"""Scaling of operation times to the reference speed (perfbench/speed.py)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import speed  # noqa: E402


def probe_with(samples):
    """A probe holding (time, loop seconds) samples, without its thread."""
    probe = speed.SpeedProbe()
    probe.times = [t for t, _ in samples]
    probe.loops = [loop for _, loop in samples]
    return probe


def test_operation_is_scaled_by_the_loops_sampled_while_it_ran():
    ref = speed.REFERENCE_LOOP_S
    # slow before the operation, twice the reference loop time during it
    samples = [(t / 10, 3 * ref) for t in range(10)]
    samples += [(1.0 + t / 10, 2 * ref) for t in range(1, 21)]
    probe = probe_with(samples)
    assert probe.at_reference_speed(4.0, 1.0, 3.0) == pytest.approx(2.0)


def test_short_operation_uses_the_window_before_it_ended():
    ref = speed.REFERENCE_LOOP_S
    samples = [(t * 0.05, ref if t * 0.05 < 1.5 else 1.5 * ref) for t in range(60)]
    probe = probe_with(samples)
    # 1 ms operation ending at 2.9 s: the samples of (2.4, 2.9] are all 1.5x
    assert probe.at_reference_speed(1e-3, 2.899, 2.9) == pytest.approx(1e-3 / 1.5)


def test_no_sample_before_the_operation_ended_is_an_error():
    probe = probe_with([(5.0, speed.REFERENCE_LOOP_S)])
    with pytest.raises(RuntimeError):
        probe.at_reference_speed(1.0, 1.0, 2.0)
