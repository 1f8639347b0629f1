"""Configuration, geometry, and determinism plumbing."""

import math

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

from sweeploc.scenario import (
    ApConfig,
    ChannelConfig,
    ConfigError,
    DetectorConfig,
    Position,
    Scenario,
    Trajectory,
    free_space_loss_db,
    load_scenario,
    scenario_digest,
    scenario_from_mapping,
    scenario_to_yaml,
    trial_rng,
    true_bearing,
    with_seed,
    wrap_angle,
)
from sweeploc.scenarios import bench_scenario, farm_scenario, range_scenario


def test_wrap_angle_known_values():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(-3 * math.pi / 2) == pytest.approx(math.pi / 2)


@given(st.floats(-50.0, 50.0), st.integers(-5, 5))
def test_wrap_angle_periodic_and_in_range(x, k):
    w = wrap_angle(x)
    assert -math.pi < w <= math.pi + 1e-12
    assert wrap_angle(x + 2 * math.pi * k) == pytest.approx(w, abs=1e-9)


def test_wrap_angle_vectorized():
    xs = np.linspace(-10, 10, 1001)
    ws = wrap_angle(xs)
    assert np.all(ws > -math.pi - 1e-12)
    assert np.all(ws <= math.pi + 1e-12)


def test_free_space_loss_reference_points():
    # 915 MHz: 31.68 dB at 1 m, 69.74 dB at 80 m, +6.0206 dB per doubling
    assert free_space_loss_db(1.0, 915e6) == pytest.approx(31.6776, abs=0.01)
    assert free_space_loss_db(80.0, 915e6) == pytest.approx(69.7396, abs=0.01)
    for d in (1.0, 5.0, 40.0):
        delta = free_space_loss_db(2 * d, 915e6) - free_space_loss_db(d, 915e6)
        assert delta == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_true_bearing_relative_to_boresight():
    ap = ApConfig(position=Position(0.0, 0.0), boresight_rad=0.0)
    assert true_bearing(ap, Position(10.0, 0.0)) == pytest.approx(0.0)
    assert true_bearing(ap, Position(10.0, 10.0)) == pytest.approx(math.pi / 4)
    north = ApConfig(position=Position(0.0, 0.0), boresight_rad=math.pi / 2)
    assert true_bearing(north, Position(0.0, 5.0)) == pytest.approx(0.0)
    assert true_bearing(north, Position(5.0, 5.0 * math.tan(math.pi / 3))) \
        == pytest.approx(-(math.pi / 2 - math.pi / 3))


def test_ap_config_derived_quantities():
    ap = ApConfig(position=Position(0.0, 0.0), boresight_rad=0.0)
    assert ap.wavelength_m == pytest.approx(299792458.0 / 915e6)
    assert ap.sweep_step_count == 128
    assert ap.sweep_dwell_s == pytest.approx(0.000328125, abs=1e-12)
    assert ap.preamble_bit_duration_s == pytest.approx(0.001)


def test_ap_config_validation():
    good = dict(position=Position(0.0, 0.0), boresight_rad=0.0)
    with pytest.raises(ConfigError):
        ApConfig(antenna_count=1, **good)
    with pytest.raises(ConfigError):
        ApConfig(antenna_count=9, **good)
    with pytest.raises(ConfigError):
        ApConfig(preamble_duration_s=0.05, **good)  # no room for the sweep
    with pytest.raises(ConfigError):
        ApConfig(sweep_step_rad=0.1, **good)  # does not divide the range
    with pytest.raises(ConfigError):
        ApConfig(spacing_wavelengths=0.0, **good)
    with pytest.raises(ConfigError):
        ApConfig(preamble_id=7, **good)


def test_scenario_cross_validation():
    ap1 = ApConfig(position=Position(0.0, 0.0), boresight_rad=0.0, preamble_id=1)
    ap2 = ApConfig(position=Position(100.0, 0.0), boresight_rad=math.pi,
                   preamble_id=2)
    Scenario(aps=(ap1, ap2))  # fine
    with pytest.raises(ConfigError):
        Scenario(aps=(ap1, ap1))  # same preamble id twice
    with pytest.raises(ConfigError):
        # sampler cannot resolve one dwell step
        Scenario(aps=(ap1, ap2), detector=DetectorConfig(sample_rate_hz=1000.0))
    with pytest.raises(ConfigError):
        Scenario(aps=(ap1, ap2), sweep_mode="zigzag")


def test_detector_response_and_floor():
    det = DetectorConfig()
    assert det.floor_volts == pytest.approx(1e-4)
    assert det.response_volts(-30.0) == pytest.approx(1e-3)
    assert det.response_volts(-50.0) == pytest.approx(1e-4)  # clipped
    assert det.noise_sigma_volts == pytest.approx(1e-5)
    vols = det.response_volts(np.array([-10.0, -40.0, -80.0]))
    assert vols == pytest.approx([0.1, 1e-4, 1e-4])


def test_trajectory_stationary_and_line():
    still = Trajectory.stationary(Position(3.0, 4.0))
    assert still.position_at(0.0) == Position(3.0, 4.0)
    assert still.position_at(100.0) == Position(3.0, 4.0)

    line = Trajectory.line(Position(0.0, 0.0), heading_rad=0.0,
                           speed_mps=2.0, duration_s=10.0)

    def xy(p):
        return (p.x, p.y)

    assert xy(line.position_at(5.0)) == pytest.approx((10.0, 0.0))
    assert xy(line.position_at(10.0)) == pytest.approx((20.0, 0.0))
    assert xy(line.position_at(25.0)) == pytest.approx((20.0, 0.0))  # clamped
    # 2 m/s along the heading while it moves, standing still after
    assert xy(line.position_at(6.0)) == pytest.approx((12.0, 0.0))
    assert line.position_at(30.0) == line.position_at(25.0)


def test_trial_rng_reproducible_and_key_sensitive():
    a = trial_rng(7, "exp", 3).uniform(size=4)
    b = trial_rng(7, "exp", 3).uniform(size=4)
    c = trial_rng(7, "exp", 4).uniform(size=4)
    d = trial_rng(8, "exp", 3).uniform(size=4)
    e = trial_rng(7, "other", 3).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_yaml_round_trip_is_stable():
    scn = farm_scenario(seed=5)
    text = scenario_to_yaml(scn)
    again = scenario_to_yaml(load_scenario(text))
    assert text == again
    assert load_scenario(text) == scn


def _bench_mapping():
    return yaml.safe_load(scenario_to_yaml(bench_scenario(seed=1)))


def test_yaml_rejects_quoted_boolean():
    m = _bench_mapping()
    m["channel"]["doppler_enabled"] = "false"
    with pytest.raises(ConfigError, match="doppler_enabled"):
        scenario_from_mapping(m)


@pytest.mark.parametrize("level", ["scenario", "ap", "channel", "detector"])
def test_yaml_rejects_unknown_keys(level):
    m = _bench_mapping()
    target = {"scenario": m, "ap": m["aps"][0], "channel": m["channel"],
              "detector": m["detector"]}[level]
    target["multipath_ratoi"] = 0.5
    with pytest.raises(ConfigError, match="multipath_ratoi"):
        scenario_from_mapping(m)


def test_yaml_rejects_non_finite_numbers():
    text = scenario_to_yaml(bench_scenario(seed=1))
    for bad in (".nan", ".inf", "-.inf"):
        with pytest.raises(ConfigError, match="tx_power_dbm"):
            load_scenario(text.replace("tx_power_dbm: 28.0",
                                       f"tx_power_dbm: {bad}", 1))
    m = _bench_mapping()
    m["channel"]["noise_power_dbm"] = float("nan")
    with pytest.raises(ConfigError, match="noise_power_dbm"):
        scenario_from_mapping(m)


@pytest.mark.parametrize("spacing", [0.5001, 0.75, 1.0, 2.0])
def test_spacing_above_half_wavelength_is_rejected_at_load(spacing):
    """Above lambda/2 a uniform linear array has grating lobes, so a sweep
    peaks at two steps and the bearing is ambiguous: reject the spacing
    when the AP is built and when a scenario file is loaded."""
    good = dict(position=Position(0.0, 0.0), boresight_rad=0.0)
    with pytest.raises(ConfigError, match="grating lobes"):
        ApConfig(spacing_wavelengths=spacing, **good)
    m = _bench_mapping()
    m["aps"][1]["spacing_wavelengths"] = spacing
    with pytest.raises(ConfigError, match="spacing_wavelengths"):
        scenario_from_mapping(m)
    for legal in (0.1, 0.4, 0.5):
        assert ApConfig(spacing_wavelengths=legal, **good).spacing_wavelengths == legal


def test_yaml_accepts_degree_aliases():
    m = _bench_mapping()
    for ap in m["aps"]:
        ap["boresight_deg"] = math.degrees(ap.pop("boresight_rad"))
        ap["sweep_step_deg"] = math.degrees(ap.pop("sweep_step_rad"))
    scn = scenario_from_mapping(m)
    ref = bench_scenario(seed=1)
    for got, want in zip(scn.aps, ref.aps):
        assert got.boresight_rad == pytest.approx(want.boresight_rad)
        assert got.sweep_step_rad == pytest.approx(want.sweep_step_rad)


def test_scenario_digest_tracks_content():
    scn = bench_scenario(seed=1)
    assert scenario_digest(scn) == scenario_digest(bench_scenario(seed=1))
    assert scenario_digest(scn) != scenario_digest(with_seed(scn, 2))
    assert scenario_digest(scn) != scenario_digest(range_scenario(seed=1))
    assert len(scenario_digest(scn)) == 16


def test_builtin_scenarios_are_valid():
    for scn in (bench_scenario(), farm_scenario(), range_scenario()):
        assert isinstance(scn, Scenario)
        assert scn.channel.nlos_path_count >= 1
        text = scenario_to_yaml(scn)
        assert load_scenario(text) == scn


def test_channel_config_validation():
    with pytest.raises(ConfigError):
        ChannelConfig(nlos_path_count=-1)
    with pytest.raises(ConfigError):
        ChannelConfig(multipath_ratio=-0.5)
