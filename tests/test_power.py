"""Duty-cycle power draw, harvesting, and log memory arithmetic."""

import math

import pytest

from sweeploc.power import (
    average_current_ma,
    average_power_uw,
    battery_life_h,
    logging_endurance_h,
    rf_charge_time_h,
    solar_power_uw,
)
from sweeploc.receiver import LOG_CAPACITY_BYTES, RECORD_SIZE_BYTES


def test_average_current_at_default_duty_cycle():
    # 100 ms awake at 1.6 mA in a 4 s period, 0.1 mA sleep, a 3 V supply
    ma = average_current_ma(4.0)
    assert ma * 1000 == pytest.approx(137.5, abs=1e-9)
    assert average_power_uw(4.0) == pytest.approx(412.5, abs=1e-6)


def test_average_current_scales_with_period():
    assert average_current_ma(1.0) * 1000 == pytest.approx(250.0)
    assert average_current_ma(10.0) * 1000 == pytest.approx(115.0)
    # longer sleep always draws less
    currents = [average_current_ma(p) for p in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(a > b for a, b in zip(currents, currents[1:]))
    # awake for the whole cycle: the active current
    assert average_current_ma(0.1) == pytest.approx(1.6, rel=1e-12)


def test_battery_life_hours():
    # 1 mAh at 137.5 uA
    assert battery_life_h(4.0) == pytest.approx(1.0 / 0.1375, abs=1e-9)
    assert battery_life_h(4.0) == pytest.approx(7.2727, abs=1e-3)


def test_rf_harvest_budget():
    # 20 dBm through a 15 dB loss: 5 dBm into a 15.8% rectifier charges
    # 1 mAh at 3 V
    mw = 10 ** 0.5 * 0.158
    hours = rf_charge_time_h()
    assert hours == pytest.approx(3.0 / mw, rel=1e-12)
    assert 5.5 <= hours <= 6.5


def test_solar_anchors_exact_and_power_law():
    assert solar_power_uw(1000.0) == pytest.approx(1.0, rel=1e-12)
    assert solar_power_uw(20000.0) == pytest.approx(50.0, rel=1e-9)
    # log-log linearity: geometric midpoint maps to geometric midpoint
    mid = solar_power_uw(math.sqrt(1000.0 * 20000.0))
    assert mid == pytest.approx(math.sqrt(50.0), rel=1e-9)
    assert solar_power_uw(0.0) == 0.0
    assert solar_power_uw(40000.0) > solar_power_uw(20000.0)


def test_logging_endurance_memory_arithmetic():
    # 32768 B / 4 B per record = 8192 records; every 5 s spans > 10 h
    assert (LOG_CAPACITY_BYTES, RECORD_SIZE_BYTES) == (32768, 4)
    hours = logging_endurance_h()
    assert hours == pytest.approx(8192 * 5.0 / 3600.0, rel=1e-12)
    assert hours > 10.0
    assert logging_endurance_h(interval_s=1.0) == pytest.approx(8192 / 3600.0,
                                                                rel=1e-12)
    # a 10-hour deployment at 5 s needs 7200 records = 28800 B, which fits
    assert 7200 * RECORD_SIZE_BYTES <= LOG_CAPACITY_BYTES
