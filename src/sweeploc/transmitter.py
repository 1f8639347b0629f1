"""Sweep transmitter: per-AP schedules of preamble bits and beam steps.

Each sweep period is an 8-bit OOK preamble identifying the AP followed by a
deterministic sweep of inter-antenna phase offsets. Two sweep modes share
the same slot timing and differ only in the per-step phases:

- "alg1": the steering angle runs over [-pi/2, pi/2) in equal steps and
  antenna i is driven with phase i * 2*pi*spacing * sin(steering).
- "uniform-theta": the inter-antenna phase increment itself runs uniformly
  over [-pi, pi); antenna i is driven with phase i * increment.

The preamble transmits from antenna 0 only, so its coverage has no pattern
nulls; sweep steps drive the whole array.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .scenario import ApConfig, ConfigError

PREAMBLE_PATTERNS: dict[int, tuple[int, ...]] = {
    1: (1, 0, 1, 0, 1, 0, 1, 0),
    2: (1, 1, 0, 0, 1, 1, 0, 0),
}


def steering_values(ap: ApConfig, mode: str) -> np.ndarray:
    """Commanded per-step value: steering angle ("alg1") or increment."""
    n = ap.sweep_step_count
    m = np.arange(n)
    if mode == "alg1":
        return -math.pi / 2 + m * ap.sweep_step_rad
    if mode == "uniform-theta":
        return -math.pi + m * (2.0 * math.pi / n)
    raise ConfigError(f"unknown sweep mode {mode!r}")


def step_increments(ap: ApConfig, mode: str) -> np.ndarray:
    """Inter-antenna phase increment commanded at each sweep step."""
    values = steering_values(ap, mode)
    if mode == "alg1":
        return 2.0 * math.pi * ap.spacing_wavelengths * np.sin(values)
    return values


def drive_increments(ap: ApConfig, mode: str) -> np.ndarray:
    """Per-step increments as the array is driven: wrapped into [0, 2*pi)."""
    return np.mod(step_increments(ap, mode), 2.0 * math.pi)


def build_sweep_schedule(ap: ApConfig, mode: str = "alg1") -> np.ndarray:
    """One period as the antenna x row drive matrix of the array response.
    Rows, in time order (sample_rows), are the 8 preamble bits, on antenna
    0 alone, then the last sweep_step_count rows the sweep steps: on these,
    exp(-j*i*increment), with increment from drive_increments, so antenna
    i radiates at phase i * increment."""
    pattern = np.array(PREAMBLE_PATTERNS[ap.preamble_id], dtype=float)
    n_bits = len(pattern)
    increments = np.concatenate([np.zeros(n_bits), drive_increments(ap, mode)])
    antennas = np.arange(ap.antenna_count)
    drive = np.exp(-1j * np.outer(antennas, increments))
    drive[:, :n_bits] = np.outer(antennas == 0, pattern)
    return drive


@functools.lru_cache(maxsize=64)
def cached_schedule(ap: ApConfig, mode: str) -> np.ndarray:
    """build_sweep_schedule, once per (ap, mode); shared, so read-only."""
    drive = build_sweep_schedule(ap, mode)
    drive.flags.writeable = False
    return drive


def period_samples(ap: ApConfig, sample_rate_hz: float) -> int:
    return round(ap.sweep_period_s * sample_rate_hz)


@functools.lru_cache(maxsize=64)
def sample_rows(ap: ApConfig, sample_rate_hz: float) -> np.ndarray:
    """The sweep's sample clock: the schedule row on the air at each
    detector sample of one period (the last to start by the sample, within
    1e-12 s), in either sweep mode. Shared, so read-only."""
    n_bits, n_steps = len(PREAMBLE_PATTERNS[ap.preamble_id]), ap.sweep_step_count
    starts = np.concatenate([
        np.arange(n_bits) * ap.preamble_bit_duration_s,
        ap.preamble_duration_s + np.arange(n_steps) * ap.sweep_dwell_s])
    t = np.arange(period_samples(ap, sample_rate_hz)) / sample_rate_hz
    rows = np.searchsorted(starts, t + 1e-12, side="right") - 1
    rows.flags.writeable = False
    return rows
