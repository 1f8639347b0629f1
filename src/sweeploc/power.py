"""Power and energy budgets: duty cycling, battery life, harvesting.

Current draws are modeled as constants per state at a fixed supply rail;
averages come from time-weighting the states over a wake/sleep cycle.
Harvesting covers an RF rectifier with a hard turn-on threshold and a
solar cell anchored at indoor and outdoor illuminance points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .receiver import LOG_CAPACITY_BYTES, RECORD_SIZE_BYTES
from .scenario import ConfigError


@dataclass(frozen=True)
class PowerProfile:
    """State currents (mA) at the supply voltage."""

    active_ma: float = 1.6
    sleep_ma: float = 0.1
    logging_ma: float = 1.8
    supply_v: float = 3.0

    def __post_init__(self) -> None:
        for name in ("active_ma", "sleep_ma", "logging_ma", "supply_v"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class BatteryConfig:
    capacity_mah: float = 1.0
    voltage_v: float = 3.0

    def __post_init__(self) -> None:
        if not (self.capacity_mah > 0 and self.voltage_v > 0):
            raise ConfigError("battery capacity and voltage must be positive")


def average_current_ma(profile: PowerProfile, awake_s: float = 0.1,
                       period_s: float = 4.0, logging_s: float = 0.0) -> float:
    """Time-weighted current over one wake/sleep cycle."""
    if not (0 < period_s < math.inf and awake_s >= 0 and logging_s >= 0):
        raise ConfigError("period must be finite and > 0, state times >= 0")
    if awake_s + logging_s > period_s:
        raise ConfigError("state times exceed the cycle period")
    sleep_s = period_s - awake_s - logging_s
    return (profile.active_ma * awake_s + profile.logging_ma * logging_s
            + profile.sleep_ma * sleep_s) / period_s


def average_power_uw(profile: PowerProfile, awake_s: float = 0.1,
                     period_s: float = 4.0, logging_s: float = 0.0) -> float:
    return average_current_ma(profile, awake_s, period_s, logging_s) \
        * profile.supply_v * 1000.0


def battery_life_h(profile: PowerProfile, battery: BatteryConfig,
                   awake_s: float = 0.1, period_s: float = 4.0,
                   logging_s: float = 0.0) -> float:
    return battery.capacity_mah / average_current_ma(profile, awake_s,
                                                     period_s, logging_s)


@dataclass(frozen=True)
class RfHarvest:
    """RF rectifier fed by a dedicated transmitter through a fixed loss."""

    tx_power_dbm: float = 20.0
    path_loss_db: float = 15.0
    turn_on_dbm: float = -40.0
    efficiency_curve: tuple[tuple[float, float], ...] = ((-40.0, 0.158),
                                                         (30.0, 0.158))

    def __post_init__(self) -> None:
        curve = self.efficiency_curve
        if len(curve) < 1:
            raise ConfigError("efficiency curve needs at least one point")
        if not all(map(math.isfinite, (self.tx_power_dbm, self.path_loss_db,
                                       self.turn_on_dbm, *(p for p, _ in curve)))):
            raise ConfigError("harvest power levels and losses must be finite")
        if any(b[0] <= a[0] for a, b in zip(curve, curve[1:])):
            raise ConfigError("efficiency curve dBm points must increase")
        if any(not 0.0 <= eff <= 1.0 for _, eff in curve):
            raise ConfigError("efficiency must be in [0, 1]")

    @property
    def received_dbm(self) -> float:
        return self.tx_power_dbm - self.path_loss_db

    def efficiency(self, power_dbm: float) -> float:
        if not math.isfinite(power_dbm):
            raise ConfigError("harvested power must be finite")
        if power_dbm < self.turn_on_dbm:
            return 0.0
        return float(np.interp(power_dbm, *zip(*self.efficiency_curve)))

    def harvested_mw(self, power_dbm: float | None = None) -> float:
        p = self.received_dbm if power_dbm is None else power_dbm
        return 10.0 ** (p / 10.0) * self.efficiency(p)


def rf_charge_time_h(harvest: RfHarvest, battery: BatteryConfig) -> float:
    """Hours to charge the battery, or inf below the rectifier turn-on."""
    power_mw = harvest.harvested_mw()
    if power_mw <= 0.0:
        return math.inf
    charge_ma = power_mw / battery.voltage_v
    return battery.capacity_mah / charge_ma


@dataclass(frozen=True)
class SolarHarvest:
    """Photovoltaic output anchored at (lux, microwatt) points; power-law
    (straight line in log-log) between and beyond the anchors, zero in the
    dark."""

    anchors_lux_uw: tuple[tuple[float, float], ...] = ((1000.0, 1.0),
                                                       (20000.0, 50.0))

    def __post_init__(self) -> None:
        a = self.anchors_lux_uw
        if len(a) < 2:
            raise ConfigError("need at least two solar anchors")
        if any(p[0] <= 0 or p[1] <= 0 for p in a):
            raise ConfigError("solar anchors must be positive")
        if any(b[0] <= a0[0] for a0, b in zip(a, a[1:])):
            raise ConfigError("solar anchor lux points must increase")

    def power_uw(self, lux: float) -> float:
        if not math.isfinite(lux):
            raise ConfigError("illuminance must be finite")
        if lux <= 0.0:
            return 0.0
        a = self.anchors_lux_uw
        for anchor_lux, anchor_uw in a:
            if lux == anchor_lux:  # anchors reproduce exactly, no log round trip
                return anchor_uw
        pts = [(math.log(l), math.log(p)) for l, p in a]
        x = math.log(lux)
        if x <= pts[0][0]:
            seg = (pts[0], pts[1])
        elif x >= pts[-1][0]:
            seg = (pts[-2], pts[-1])
        else:
            seg = next(((p0, p1) for p0, p1 in zip(pts, pts[1:])
                        if p0[0] <= x <= p1[0]))
        (x0, y0), (x1, y1) = seg
        y = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return math.exp(y)


def logging_endurance_h(interval_s: float = 5.0) -> float:
    """How long the full measurement log lasts at a fixed cadence."""
    if not interval_s > 0:
        raise ConfigError("interval must be positive")
    return (LOG_CAPACITY_BYTES // RECORD_SIZE_BYTES) * interval_s / 3600.0
