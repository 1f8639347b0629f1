"""Sweep schedule layout."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from sweeploc.scenario import ApConfig, ConfigError, Position
from sweeploc.transmitter import (
    PREAMBLE_PATTERNS,
    build_sweep_schedule,
    cached_schedule,
    drive_increments,
    sample_rows,
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
    """The 8 preamble bits, then the sweep steps, tile the period on the
    sample clock: each row's first sample is the first at or after its
    exact start time, reckoned in fractions from the configured decimal
    durations, so a row that starts on a sample owns it. Rows follow one
    another without a gap, whatever the sweep mode."""
    assert build_sweep_schedule(AP).shape == (AP.antenna_count, 8 + 128)
    configs = [(AP, 4000), (replace(AP, sweep_period_s=0.025,
                                    preamble_duration_s=0.002), 16000),
               (replace(AP, sweep_period_s=0.1, preamble_duration_s=0.004,
                        sweep_step_rad=math.pi / 16), 2000)]
    for ap, rate in configs:
        rows = sample_rows(ap, float(rate))
        period = Fraction(str(ap.sweep_period_s)) * rate
        preamble = Fraction(str(ap.preamble_duration_s)) * rate
        n = ap.sweep_step_count
        starts = ([preamble * k / 8 for k in range(8)]
                  + [preamble + (period - preamble) * m / n for m in range(n)])
        assert len(rows) == period
        assert rows[0] == 0 and rows[-1] == 8 + n - 1
        assert set(np.diff(rows).tolist()) <= {0, 1}
        assert (np.searchsorted(rows, np.arange(8 + n)).tolist()
                == [math.ceil(s) for s in starts])


def test_preamble_entries_drive_single_antenna():
    # Preamble rows carry their bit on antenna 0 alone; sweep rows drive
    # the whole array, antenna 0 at unit drive.
    drive = build_sweep_schedule(AP)
    assert np.array_equal(drive[0, :8], PREAMBLE_PATTERNS[AP.preamble_id])
    assert np.all(drive[1:, :8] == 0)
    assert np.all(drive[0, 8:] == 1.0)


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
        built = build_sweep_schedule(AP, mode)
        got = drive_increments(AP, mode)
        assert np.all((got >= 0.0) & (got < 2 * math.pi))
        assert np.allclose(np.exp(1j * got),
                           np.exp(1j * step_increments(AP, mode)))
        drive = np.exp(-1j * np.outer(np.arange(AP.antenna_count), got))
        assert np.array_equal(built[:, -AP.sweep_step_count:], drive)


def test_cached_schedule_is_shared_and_read_only():
    drive = cached_schedule(AP, "alg1")
    assert cached_schedule(AP, "alg1") is drive
    assert cached_schedule(AP, "uniform-theta") is not drive
    assert np.array_equal(drive, build_sweep_schedule(AP, "alg1"))
    with pytest.raises(ValueError):
        drive[0] = 0
    rows = sample_rows(AP, 4000.0)
    assert sample_rows(AP, 4000.0) is rows
    with pytest.raises(ValueError):
        rows[0] = 1

