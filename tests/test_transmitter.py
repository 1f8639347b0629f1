"""Sweep schedule layout."""

import math

import numpy as np
import pytest

from sweeploc.scenario import ApConfig, ConfigError, Position
from sweeploc.transmitter import (
    PREAMBLE_PATTERNS,
    build_sweep_schedule,
    cached_schedule,
    drive_increments,
    steering_values,
    step_increments,
)

AP = ApConfig(position=Position(0.0, 0.0), boresight_rad=0.0)


def test_preamble_patterns_are_distinct_eight_bit():
    assert PREAMBLE_PATTERNS[1] == (1, 0, 1, 0, 1, 0, 1, 0)
    assert PREAMBLE_PATTERNS[2] == (1, 1, 0, 0, 1, 1, 0, 0)
    for pat in PREAMBLE_PATTERNS.values():
        assert len(pat) == 8
        assert set(pat) <= {0, 1}


def test_schedule_tiles_the_period_exactly():
    sched = build_sweep_schedule(AP)
    assert sched.starts_s.shape == (8 + 128,)
    assert sched.drive.shape == (AP.antenna_count, 8 + 128)
    assert sched.starts_s[0] == 0.0
    durations = np.diff(np.append(sched.starts_s, AP.sweep_period_s))
    assert np.allclose(durations[:8], AP.preamble_bit_duration_s,
                       rtol=0, atol=1e-12)
    assert np.allclose(durations[8:], AP.sweep_dwell_s, rtol=0, atol=1e-12)
    # the sweep rows are the last sweep_step_count; they start after the preamble
    assert np.all(sched.starts_s[-AP.sweep_step_count:] >= AP.preamble_duration_s)
    assert np.all(sched.starts_s[:8] < AP.preamble_duration_s)


def test_preamble_entries_drive_single_antenna():
    # Preamble rows carry their bit on antenna 0 alone; sweep rows drive
    # the whole array, antenna 0 at unit drive.
    sched = build_sweep_schedule(AP)
    assert np.array_equal(sched.drive[0, :8], PREAMBLE_PATTERNS[AP.preamble_id])
    assert np.all(sched.drive[1:, :8] == 0)
    assert np.all(sched.drive[0, 8:] == 1.0)


def test_steering_values_per_mode():
    v1 = steering_values(AP, "alg1")
    assert len(v1) == 128
    assert v1[0] == pytest.approx(-math.pi / 2)
    assert np.allclose(np.diff(v1), AP.sweep_step_rad)
    assert v1[-1] < math.pi / 2  # half-open range

    v2 = steering_values(AP, "uniform-theta")
    assert len(v2) == 128
    assert v2[0] == pytest.approx(-math.pi)
    assert np.allclose(np.diff(v2), 2 * math.pi / 128)

    with pytest.raises(ConfigError):
        steering_values(AP, "bogus")


def test_step_increments_per_mode():
    inc1 = step_increments(AP, "alg1")
    expect = 2 * math.pi * AP.spacing_wavelengths * np.sin(steering_values(AP, "alg1"))
    assert np.allclose(inc1, expect)
    inc2 = step_increments(AP, "uniform-theta")
    assert np.allclose(inc2, steering_values(AP, "uniform-theta"))


def test_step_phase_offsets_shape_and_wrap():
    # Antenna i radiates at i * increment; the per-step increments are
    # stored already wrapped, one per sweep step.
    inc = drive_increments(AP, "alg1")
    assert inc.shape == (128,)
    assert np.all(inc >= 0.0)
    assert np.all(inc < 2 * math.pi)
    assert np.allclose(inc, np.mod(step_increments(AP, "alg1"), 2 * math.pi))
    ph = np.mod(np.outer(inc, np.arange(AP.antenna_count)), 2 * math.pi)
    assert ph.shape == (128, AP.antenna_count)
    assert np.allclose(ph[:, 0], 0.0)
    assert np.allclose(ph[:, 1], inc)


def test_sweep_entry_phases_match_offsets():
    for mode in ("alg1", "uniform-theta"):
        sched = build_sweep_schedule(AP, mode)
        got = drive_increments(AP, mode)
        assert np.all((got >= 0.0) & (got < 2 * math.pi))
        assert np.allclose(np.exp(1j * got),
                           np.exp(1j * step_increments(AP, mode)))
        drive = np.exp(-1j * np.outer(np.arange(AP.antenna_count), got))
        assert np.array_equal(sched.drive[:, -AP.sweep_step_count:], drive)


def test_cached_schedule_is_shared_and_read_only():
    sched = cached_schedule(AP, "alg1")
    assert cached_schedule(AP, "alg1") is sched
    assert cached_schedule(AP, "uniform-theta") is not sched
    fresh = build_sweep_schedule(AP, "alg1")
    for name in ("starts_s", "drive"):
        assert np.array_equal(getattr(sched, name), getattr(fresh, name))
        with pytest.raises(ValueError):
            getattr(sched, name)[0] = 0

