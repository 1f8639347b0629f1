"""Power and energy budgets: duty cycling, battery life, harvesting.

The tag's numbers are fixed hardware values, one constant each. Current
draws are constants per state at a fixed supply rail; averages come from
time-weighting the awake and sleep states over a wake/sleep cycle. A
dedicated RF charger feeds a rectifier of constant efficiency through a
fixed loss, and a solar cell's output follows a power law in illuminance
through two anchor points.
"""

from __future__ import annotations

import math

from .receiver import LOG_RECORDS
from .scenario import ConfigError

ACTIVE_MA = 1.6  # awake: sensing and receiving
SLEEP_MA = 0.1
SUPPLY_V = 3.0
AWAKE_S = 0.1  # awake time in every wake/sleep cycle
BATTERY_MAH = 1.0
BATTERY_V = 3.0
RF_TX_POWER_DBM = 20.0  # the dedicated charger
RF_PATH_LOSS_DB = 15.0
RECTIFIER_EFFICIENCY = 0.158
SOLAR_ANCHORS_LUX_UW = ((1000.0, 1.0), (20000.0, 50.0))  # indoor, outdoor


def average_current_ma(period_s: float) -> float:
    """Time-weighted current over one wake/sleep cycle."""
    if not AWAKE_S <= period_s < math.inf:
        raise ConfigError(f"period must be finite and at least {AWAKE_S} s")
    sleep_s = period_s - AWAKE_S
    return (ACTIVE_MA * AWAKE_S + SLEEP_MA * sleep_s) / period_s


def average_power_uw(period_s: float) -> float:
    return average_current_ma(period_s) * SUPPLY_V * 1000.0


def battery_life_h(period_s: float) -> float:
    return BATTERY_MAH / average_current_ma(period_s)


def rf_charge_time_h() -> float:
    """Hours for the rectifier to fill the battery."""
    received_dbm = RF_TX_POWER_DBM - RF_PATH_LOSS_DB
    charge_ma = 10.0 ** (received_dbm / 10.0) * RECTIFIER_EFFICIENCY / BATTERY_V
    return BATTERY_MAH / charge_ma


def solar_power_uw(lux: float) -> float:
    """Photovoltaic output: the anchors exactly, a straight line in log-log
    through them elsewhere, zero in the dark."""
    if not 0.0 <= lux < math.inf:
        raise ConfigError(f"illuminance must be finite and >= 0, got {lux}")
    if lux == 0.0:
        return 0.0
    for anchor_lux, anchor_uw in SOLAR_ANCHORS_LUX_UW:
        if lux == anchor_lux:  # anchors reproduce exactly, no log round trip
            return anchor_uw
    (x0, y0), (x1, y1) = ((math.log(l), math.log(p)) for l, p in SOLAR_ANCHORS_LUX_UW)
    x = math.log(lux)
    y = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return math.exp(y)


def logging_endurance_h(interval_s: float = 5.0) -> float:
    """How long the full measurement log lasts at a fixed cadence."""
    if not 0.0 < interval_s < math.inf:
        raise ConfigError(f"interval must be finite and positive, got {interval_s}")
    return LOG_RECORDS * interval_s / 3600.0
