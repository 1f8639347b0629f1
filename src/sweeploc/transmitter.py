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
from dataclasses import dataclass

import numpy as np

from .scenario import ApConfig, ConfigError

PREAMBLE_PATTERNS: dict[int, tuple[int, ...]] = {
    1: (1, 0, 1, 0, 1, 0, 1, 0),
    2: (1, 1, 0, 0, 1, 1, 0, 0),
}

# Row kind codes; FieldTrace.kinds uses the same codes, with 0 for silence.
K_PREAMBLE = 1
K_SWEEP = 2


@dataclass(frozen=True, eq=False)
class SweepSchedule:
    """One AP's sweep period as per-row arrays, in time order.

    Rows are the preamble bits, then the sweep steps. starts_s is each
    row's start time and kinds its K_PREAMBLE/K_SWEEP code. increments is
    the inter-antenna drive increment, wrapped into [0, 2*pi), so antenna i
    radiates at phase i * increment (0 on preamble rows). drive is the
    antenna x row matrix of the array response: exp(-j*i*increment) on
    sweep rows, the preamble bit on antenna 0 alone on preamble rows.
    """

    ap: ApConfig
    mode: str
    starts_s: np.ndarray
    kinds: np.ndarray
    increments: np.ndarray
    drive: np.ndarray

    @property
    def period_s(self) -> float:
        return self.ap.sweep_period_s


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


def build_sweep_schedule(ap: ApConfig, mode: str = "alg1") -> SweepSchedule:
    """Lay out one period: 8 preamble bits then the full sweep."""
    pattern = np.array(PREAMBLE_PATTERNS[ap.preamble_id], dtype=float)
    n_bits, n_steps = len(pattern), ap.sweep_step_count
    increments = np.concatenate([np.zeros(n_bits), drive_increments(ap, mode)])
    antennas = np.arange(ap.antenna_count)
    drive = np.exp(-1j * np.outer(antennas, increments))
    drive[:, :n_bits] = np.outer(antennas == 0, pattern)
    return SweepSchedule(
        ap=ap, mode=mode,
        starts_s=np.concatenate([
            np.arange(n_bits) * ap.preamble_bit_duration_s,
            ap.preamble_duration_s + np.arange(n_steps) * ap.sweep_dwell_s]),
        kinds=np.repeat(np.array([K_PREAMBLE, K_SWEEP], dtype=np.int8),
                        [n_bits, n_steps]),
        increments=increments, drive=drive)


@functools.lru_cache(maxsize=64)
def cached_schedule(ap: ApConfig, mode: str) -> SweepSchedule:
    """build_sweep_schedule, once per (ap, mode); shared, so read-only."""
    schedule = build_sweep_schedule(ap, mode)
    for name in ("starts_s", "kinds", "increments", "drive"):
        getattr(schedule, name).flags.writeable = False
    return schedule


@dataclass(frozen=True)
class TdmaSlot:
    ap_index: int
    start_s: float
    duration_s: float


@dataclass(frozen=True)
class TdmaPlan:
    """Round-robin AP slots: AP k owns [k*T, (k+1)*T) in every round."""

    slots: tuple[TdmaSlot, ...]
    period_s: float

    @property
    def fix_latency_s(self) -> float:
        # One full round delivers one angle per AP, hence one fix.
        return self.period_s

    def active_ap(self, t: float) -> int:
        phase = math.fmod(t, self.period_s)
        if phase < 0:
            phase += self.period_s
        for slot in self.slots:
            if slot.start_s <= phase < slot.start_s + slot.duration_s:
                return slot.ap_index
        return self.slots[-1].ap_index


def tdma_plan(aps: tuple[ApConfig, ...] | list[ApConfig]) -> TdmaPlan:
    """Build the single-frequency schedule: one sweep period per AP, in order."""
    if len(aps) < 2:
        raise ConfigError("TDMA needs at least two APs")
    periods = {ap.sweep_period_s for ap in aps}
    if len(periods) != 1:
        raise ConfigError("TDMA requires a common sweep period")
    if aps[0].preamble_id == aps[1].preamble_id:
        raise ConfigError("the first two APs must use distinct preamble ids")
    t = aps[0].sweep_period_s
    slots = tuple(TdmaSlot(k, k * t, t) for k in range(len(aps)))
    return TdmaPlan(slots=slots, period_s=len(aps) * t)
