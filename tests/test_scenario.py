"""Configuration, geometry, and determinism plumbing."""

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from sweeploc.scenario import (
    ApConfig,
    ChannelConfig,
    ConfigError,
    DetectorConfig,
    Position,
    SWEEP_MODES,
    Scenario,
    Trajectory,
    free_space_loss_db,
    load_scenario,
    scenario_digest,
    scenario_from_mapping,
    scenario_to_yaml,
    trial_rng,
    true_bearing_xy,
    wrap_angle,
)
from sweeploc import cli, scenario
from sweeploc.backscatter import InsectNode
from sweeploc.power import average_current_ma, logging_endurance_h, solar_power_uw
from sweeploc.scenarios import (BUILTIN_SCENARIOS, bench_scenario,
                                farm_scenario, range_scenario)


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


def test_free_space_loss_reference_points():
    # 915 MHz: 31.68 dB at 1 m, 69.74 dB at 80 m, +6.0206 dB per doubling
    assert free_space_loss_db(1.0, 915e6) == pytest.approx(31.6776, abs=0.01)
    assert free_space_loss_db(80.0, 915e6) == pytest.approx(69.7396, abs=0.01)
    for d in (1.0, 5.0, 40.0):
        delta = free_space_loss_db(2 * d, 915e6) - free_space_loss_db(d, 915e6)
        assert delta == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_true_bearing_relative_to_boresight():
    ap = ApConfig(position=Position(0.0, 0.0), boresight_rad=0.0)
    assert true_bearing_xy(ap, 10.0, 0.0) == pytest.approx(0.0)
    assert true_bearing_xy(ap, 10.0, 10.0) == pytest.approx(math.pi / 4)
    north = ApConfig(position=Position(0.0, 0.0), boresight_rad=math.pi / 2)
    assert true_bearing_xy(north, 0.0, 5.0) == pytest.approx(0.0)
    assert true_bearing_xy(north, 5.0, 5.0 * math.tan(math.pi / 3)) \
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
    # a third AP on id 1 was taken, and halved the farm fix rate: AP 1's
    # preamble search could lock onto it
    ap3 = ApConfig(position=Position(50.0, 90.0), boresight_rad=-math.pi / 2,
                   preamble_id=1)
    with pytest.raises(ConfigError, match="one preamble id"):
        Scenario(aps=(ap1, ap2, ap3))
    with pytest.raises(ConfigError, match="share one sweep period"):
        Scenario(aps=(ap1, replace(ap2, sweep_period_s=0.06)))
    with pytest.raises(ConfigError):
        # sampler cannot resolve one dwell step
        Scenario(aps=(ap1, ap2), detector=DetectorConfig(sample_rate_hz=1000.0))
    with pytest.raises(ConfigError):
        Scenario(aps=(ap1, ap2), sweep_mode="zigzag")
    # a 50.5-sample period would end AP 1's sweep window (rounded up to 51)
    # inside AP 2's slot (rounded to 50)
    odd = tuple(replace(ap, sweep_period_s=0.0505, sweep_step_rad=math.pi / 32)
                for ap in (ap1, ap2))
    with pytest.raises(ConfigError, match="sweep period must span"):
        Scenario(aps=odd, detector=DetectorConfig(sample_rate_hz=1000.0))
    Scenario(aps=odd, detector=DetectorConfig(sample_rate_hz=2000.0))  # 101


@pytest.mark.parametrize("mode, smoothing", [("bogus", 0.8), ("alg1", 1.5),
                                             ("alg1", -0.1), ("alg1", 1.0),
                                             ("alg1", math.nan)])
def test_scenario_rejects_bad_mode_and_smoothing(mode, smoothing):
    """At construction, not at the first detection: a silent buffer would
    otherwise scan without error. The Receiver reads both from here."""
    match = "sweep_mode" if mode == "bogus" else "smoothing"
    with pytest.raises(ConfigError, match=match):
        Scenario(aps=bench_scenario().aps, sweep_mode=mode, smoothing=smoothing)


def test_scenario_files_are_the_cli_output(capsys):
    """Each scenarios/<name>.yaml is, byte for byte, what `sweeploc
    scenario <name>` prints, and there is one file per builtin."""
    folder = Path(__file__).resolve().parents[1] / "scenarios"
    assert sorted(p.stem for p in folder.glob("*.yaml")) == sorted(BUILTIN_SCENARIOS)
    for name in BUILTIN_SCENARIOS:
        assert cli.main(["scenario", name]) == 0
        assert (folder / f"{name}.yaml").read_bytes() == \
            capsys.readouterr().out.encode()


def test_detector_response_and_floor():
    det = DetectorConfig()
    assert det.floor_volts == pytest.approx(1e-4)
    assert det.response_volts(-30.0) == pytest.approx(1e-3)
    assert det.response_volts(-50.0) == pytest.approx(1e-4)  # clipped
    assert det.noise_sigma_volts == pytest.approx(1e-5)
    vols = det.response_volts(np.array([-10.0, -40.0, -80.0]))
    assert vols == pytest.approx([0.1, 1e-4, 1e-4])


def test_trajectory_stationary_and_line():
    def xy(traj, t):
        return tuple(float(v) for v in traj.positions_at(t))

    still = Trajectory.stationary(Position(3.0, 4.0))
    assert xy(still, 0.0) == (3.0, 4.0)
    assert xy(still, 100.0) == (3.0, 4.0)

    line = Trajectory.line(Position(0.0, 0.0), heading_rad=0.0,
                           speed_mps=2.0, duration_s=10.0)
    assert xy(line, 5.0) == pytest.approx((10.0, 0.0))
    assert xy(line, 10.0) == pytest.approx((20.0, 0.0))
    assert xy(line, 25.0) == pytest.approx((20.0, 0.0))  # clamped
    # 2 m/s along the heading while it moves, standing still after
    assert xy(line, 6.0) == pytest.approx((12.0, 0.0))
    assert xy(line, 30.0) == xy(line, 25.0)


def test_trajectory_is_one_segment():
    """A start and a stop at most: each reflected path then has one Doppler
    frequency while the receiver moves."""
    with pytest.raises(ConfigError):
        Trajectory(((0.0, Position(0.0, 0.0)), (1.0, Position(1.0, 0.0)),
                    (2.0, Position(1.0, 1.0))))
    with pytest.raises(ConfigError):
        Trajectory(())


def test_positions_at_equal_the_segment_arithmetic_bitwise():
    """The array positions (speed_sweep's truth, capture_track's round
    origins), for many times at once and for one time at a time, are the
    segment arithmetic p0 + f*(p1 - p0) worked out one time at a time in
    Python floats, bit for bit: before the start, on the segment, at both
    ends and after the stop, and standing still."""
    rng = trial_rng(2, "positions")
    # 12.3 + 1.0 * (-7.1 - 12.3) is not -7.1, nor 0.7 + (-2.9 - 0.7) -2.9:
    # a clamped fraction instead of the end points would show
    line = Trajectory(((0.3, Position(12.3, 0.7)), (4.1, Position(-7.1, -2.9))))
    t = np.concatenate([[0.3, 4.1, -1.0, 9.0, 0.3 + 1e-15, 4.1 - 1e-15],
                        rng.uniform(0.0, 4.5, 500)])
    def segment(traj, v):
        (t0, p0), (t1, p1) = traj.waypoints[0], traj.waypoints[-1]
        if v <= t0 or len(traj.waypoints) == 1:
            return p0.x, p0.y
        if v >= t1:
            return p1.x, p1.y
        f = (v - t0) / (t1 - t0)
        return p0.x + f * (p1.x - p0.x), p0.y + f * (p1.y - p0.y)

    for traj in (line, Trajectory.stationary(Position(3.0, -0.0))):
        want = np.array([segment(traj, v) for v in t.tolist()])
        xs, ys = traj.positions_at(t)
        assert xs.tobytes() == want[:, 0].tobytes()
        assert ys.tobytes() == want[:, 1].tobytes()
        one_by_one = [traj.positions_at(v) for v in t.tolist()]
        assert np.array(one_by_one).tobytes() == want.tobytes()


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


def test_square_law_refuses_a_response_table():
    """Only the table model reads response_table; under the square law a
    table would be ignored, so it is refused, in Python and in YAML."""
    table = ((-50.0, 0.0), (0.0, 1.0))
    with pytest.raises(ConfigError, match="response_table"):
        DetectorConfig(response_table=table)
    m = _bench_mapping()
    assert m["detector"]["response_model"] == "square_law"
    m["detector"]["response_table"] = [list(p) for p in table]
    with pytest.raises(ConfigError, match="response_table"):
        scenario_from_mapping(m)
    assert DetectorConfig(response_model="table",
                          response_table=table).response_table == table


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
    assert scenario_digest(scn) != scenario_digest(replace(scn, seed=2))
    assert scenario_digest(scn) != scenario_digest(range_scenario(seed=1))
    assert len(scenario_digest(scn)) == 16


def test_scenario_digest_keeps_signed_zeros_apart():
    """0.0 and -0.0 compare and hash equal but serialize differently, so a
    digest cached by scenario equality would hand one the other's digest."""
    plus = bench_scenario(seed=1)
    minus = replace(plus, aps=(replace(plus.aps[0], boresight_rad=-0.0),
                               plus.aps[1]))
    assert plus == minus and hash(plus) == hash(minus)
    for scn in (plus, minus, plus):
        text = scenario_to_yaml(scn)
        assert scenario_digest(scn) == \
            hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    assert scenario_digest(plus) != scenario_digest(minus)
    # a list-valued field makes a scenario unhashable; it still has a digest
    listed = replace(farm_scenario(seed=1), field_extent_m=[120.0, 90.0])
    assert scenario_digest(listed) == scenario_digest(farm_scenario(seed=1))


@pytest.mark.parametrize("level, key, value", [
    ("ap", "antenna_count", 4.7),
    ("ap", "antenna_count", "4"),
    ("ap", "preamble_id", 1.9),
    ("ap", "preamble_id", True),
    ("scenario", "seed", 1.5),
    ("scenario", "seed", True),
    ("channel", "nlos_path_count", "3"),
    ("channel", "multipath_ratio", True),
    ("detector", "sample_rate_hz", False),
    ("detector", "response_model", 5),
    ("scenario", "smoothing", False),
])
def test_yaml_scalars_have_their_field_type(level, key, value):
    """An integer field takes a YAML integer only, and no field reads a
    boolean as a number: none of these may load as a truncated int or 1.0."""
    m = _bench_mapping()
    target = {"scenario": m, "ap": m["aps"][0], "channel": m["channel"],
              "detector": m["detector"]}[level]
    target[key] = value
    with pytest.raises(ConfigError, match=key):
        scenario_from_mapping(m)


_MALFORMED = [
    pytest.param("aps: null", id="aps-null"),
    pytest.param("aps: 5", id="aps-int"),
    pytest.param("aps: {x: 1}", id="aps-mapping"),
    pytest.param("aps: [5]", id="ap-int"),
    pytest.param("detector: {response_model: table, response_table: 5}",
                 id="response-table-int"),
    pytest.param("detector: {response_table: [[1.0, 2.0], 3]}", id="table-point"),
    pytest.param("antenna_count: null", id="antenna-count-null"),
    pytest.param("antenna_count: four", id="antenna-count-word"),
    pytest.param("position: [1.0, 2.0, 3.0]", id="position-triple"),
    pytest.param("position: '12'", id="position-string"),
    pytest.param("field_extent_m: 10.0", id="extent-scalar"),
    pytest.param("channel: 5", id="channel-int"),
    pytest.param("boresight_rad: null", id="boresight-null"),
    pytest.param("", id="empty"),
]


def _malformed_yaml(edit: str) -> str:
    """The bench scenario with one key replaced: AP keys go to the first AP,
    the others to the top level."""
    if not edit:
        return ""
    m = _bench_mapping()
    change = yaml.safe_load(edit)
    ap_keys = {"antenna_count", "position", "boresight_rad"}
    (m["aps"][0] if set(change) <= ap_keys else m).update(change)
    return yaml.safe_dump(m)


@pytest.mark.parametrize("edit", _MALFORMED)
def test_malformed_yaml_is_a_config_error(edit, tmp_path, capsys):
    """A malformed file is a ConfigError, so `sweeploc run` prints `error:
    ...` and exits 2; several of these raised TypeError or a bare ValueError,
    and the command printed a traceback."""
    text = _malformed_yaml(edit)
    with pytest.raises(ConfigError):
        load_scenario(text)
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    code = cli.main(["run", "power_report", "--scenario", str(path),
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@st.composite
def valid_scenarios(draw):
    """Scenarios that pass every check: one or two APs, each on its own
    preamble id, on one sweep period of a whole number of detector samples,
    with whole-sample preamble bits and steps of at least one sample."""
    fs = draw(st.sampled_from([1000.0, 2000.0, 4000.0, 8000.0]))
    steps = draw(st.sampled_from([2, 16, 31, 64, 128]))
    bit_samples = draw(st.integers(1, 4))
    period_samples = steps + 8 * bit_samples + draw(st.integers(0, 200))
    n_aps = draw(st.integers(1, 2))
    ids = draw(st.permutations([1, 2]))
    aps = tuple(ApConfig(
        position=Position(draw(st.floats(-1e3, 1e3)),
                          draw(st.floats(-1e3, 1e3))),
        boresight_rad=draw(st.floats(-10.0, 10.0)),
        antenna_count=draw(st.integers(2, 8)),
        spacing_wavelengths=draw(st.floats(0.01, 0.5)),
        carrier_hz=draw(st.floats(1e6, 1e10)),
        tx_power_dbm=draw(st.floats(-30.0, 60.0)),
        sweep_period_s=period_samples / fs,
        preamble_duration_s=8 * bit_samples / fs,
        sweep_step_rad=math.pi / steps,
        preamble_id=ids[i]) for i in range(n_aps))
    channel = ChannelConfig(
        nlos_path_count=draw(st.integers(0, 16)),
        multipath_ratio=draw(st.floats(0.0, 2.0)),
        noise_power_dbm=draw(st.none() | st.floats(-150.0, 0.0)),
        doppler_enabled=draw(st.booleans()),
        nlos_redraw_distance_m=draw(st.floats(1e-3, 1e3)))
    table = None
    if draw(st.booleans()):
        n = draw(st.integers(2, 5))
        dbm = draw(st.lists(st.floats(-120.0, 20.0), min_size=n, max_size=n,
                            unique=True))
        volts = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
        table = tuple(zip(sorted(dbm), sorted(volts)))
    detector = DetectorConfig(
        sensitivity_floor_dbm=draw(st.floats(-120.0, 0.0)),
        sample_rate_hz=fs,
        response_model="square_law" if table is None else "table",
        response_table=table,
        output_noise_volts=draw(st.none() | st.floats(0.0, 1.0)))
    extent = st.floats(1e-3, 1e4)
    return Scenario(aps=aps, channel=channel, detector=detector,
                    sweep_mode=draw(st.sampled_from(SWEEP_MODES)),
                    smoothing=draw(st.floats(0.0, 1.0, exclude_max=True)),
                    seed=draw(st.integers(0, 2 ** 64 - 1)),
                    field_extent_m=draw(st.none() | st.tuples(extent, extent)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(valid_scenarios())
def test_yaml_round_trip_of_any_valid_scenario(scn):
    text = scenario_to_yaml(scn)
    assert load_scenario(text) == scn
    assert scenario_to_yaml(load_scenario(text)) == text


def test_builtin_scenarios_are_valid():
    for scn in (bench_scenario(), farm_scenario(), range_scenario()):
        assert isinstance(scn, Scenario)
        assert scn.channel.nlos_path_count >= 1
        text = scenario_to_yaml(scn)
        assert load_scenario(text) == scn


@pytest.mark.parametrize("sigma", [1e-3, 0.37, 2.5, 0.0])
@pytest.mark.parametrize("n", [1, 7, 400_000])
def test_normals_equal_generator_normal_bitwise(sigma, n):
    """The scaled standard-normal draw is the generator's own N(0, sigma)
    draw, signed zeros included, and leaves the generator where it left it."""
    want_rng, got_rng = trial_rng(19, "normals", n), trial_rng(19, "normals", n)
    want = want_rng.normal(0.0, sigma, n)
    got = scenario._normals(got_rng, sigma, np.empty(n))
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf, -math.inf])
def test_normals_reject_a_negative_or_non_finite_sigma(sigma):
    rng = trial_rng(19, "bad-sigma")
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="sigma"):
        scenario._normals(rng, sigma, np.empty(4))
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("volts", [-1e-3, math.nan, math.inf])
def test_detector_output_noise_must_be_finite_and_nonnegative(volts):
    with pytest.raises(ConfigError, match="output_noise_volts"):
        DetectorConfig(output_noise_volts=volts)


def test_channel_config_validation():
    with pytest.raises(ConfigError):
        ChannelConfig(nlos_path_count=-1)
    with pytest.raises(ConfigError):
        ChannelConfig(multipath_ratio=-0.5)


_ORIGIN = Position(0.0, 0.0)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ApConfig(_ORIGIN, 0.0, carrier_hz=math.nan), id="ap-carrier"),
    pytest.param(lambda: ApConfig(_ORIGIN, 0.0, tx_power_dbm=math.nan),
                 id="ap-tx-power"),
    pytest.param(lambda: ApConfig(_ORIGIN, math.nan), id="ap-boresight"),
    pytest.param(lambda: ApConfig(_ORIGIN, 0.0, sweep_step_rad=math.nan),
                 id="ap-sweep-step"),
    pytest.param(lambda: ApConfig(_ORIGIN, 0.0, carrier_hz=math.inf),
                 id="ap-carrier-inf"),
    pytest.param(lambda: ApConfig(_ORIGIN, 0.0, sweep_period_s=math.inf),
                 id="ap-sweep-period-inf"),
    pytest.param(lambda: ChannelConfig(nlos_redraw_distance_m=math.nan),
                 id="channel-redraw"),
    pytest.param(lambda: DetectorConfig(sample_rate_hz=math.nan), id="detector-rate"),
    pytest.param(lambda: DetectorConfig(sensitivity_floor_dbm=math.nan),
                 id="detector-floor"),
    pytest.param(lambda: Scenario(aps=(ApConfig(_ORIGIN, 0.0),),
                                  field_extent_m=(math.nan, 10.0)), id="field-extent"),
    pytest.param(lambda: Scenario(aps=(ApConfig(_ORIGIN, 0.0),),
                                  field_extent_m=(math.inf, 90.0)),
                 id="field-extent-inf"),
    pytest.param(lambda: InsectNode(1, math.nan), id="insect-distance"),
    pytest.param(lambda: InsectNode(1, math.inf), id="insect-distance-inf"),
])
def test_configs_reject_nan(build):
    """NaN fails every comparison, so each check is written to fail on it."""
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("compute", [
    pytest.param(lambda: free_space_loss_db(math.nan, 915e6), id="loss-distance"),
    pytest.param(lambda: average_current_ma(math.inf), id="current-period"),
    pytest.param(lambda: logging_endurance_h(interval_s=math.nan),
                 id="endurance-interval"),
    pytest.param(lambda: solar_power_uw(math.nan), id="solar-nan"),
    pytest.param(lambda: solar_power_uw(math.inf), id="solar-inf"),
    pytest.param(lambda: solar_power_uw(-5.0), id="solar-negative"),
    pytest.param(lambda: logging_endurance_h(interval_s=math.inf),
                 id="endurance-inf"),
])
def test_calculations_reject_nan(compute):
    """Arguments outside the config dataclasses are checked the same way:
    a NaN (or an infinite cycle period or logging interval, or negative
    illuminance, which is not darkness) raises instead of returning NaN,
    inf or 0."""
    with pytest.raises(ConfigError):
        compute()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ApConfig(_ORIGIN, 0.0, sweep_step_rad=1e-320),
                 id="sweep-steps-inf"),
    pytest.param(lambda: Scenario(aps=(ApConfig(
        _ORIGIN, 0.0, sweep_period_s=1.5e308, preamble_duration_s=1e308),)),
        id="period-samples-inf"),
])
def test_sample_counts_that_overflow_are_config_errors(build):
    """A count that overflows to infinity raised OverflowError from round()."""
    with pytest.raises(ConfigError):
        build()


_FARM = farm_scenario(seed=3)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: replace(_FARM.aps[0], antenna_count=4.5), id="antennas-4.5"),
    pytest.param(lambda: replace(_FARM.aps[0], antenna_count=4.0), id="antennas-4.0"),
    pytest.param(lambda: replace(_FARM.aps[0], antenna_count=True), id="antennas-true"),
    pytest.param(lambda: replace(_FARM.aps[0], preamble_id=1.0), id="preamble-1.0"),
    pytest.param(lambda: replace(_FARM.channel, nlos_path_count=2.0), id="paths-2.0"),
    pytest.param(lambda: replace(_FARM.channel, nlos_path_count=False),
                 id="paths-false"),
    pytest.param(lambda: replace(_FARM, seed=1.5), id="seed-1.5"),
    pytest.param(lambda: replace(_FARM, seed=True), id="seed-true"),
    pytest.param(lambda: replace(_FARM, seed=np.float64(2.0)), id="seed-np-float"),
])
def test_config_int_fields_refuse_other_types(build):
    """An int field of a config dataclass takes an integer only, however
    the config is built: a float in range passed the range check and
    failed with a TypeError deep in the pipeline, and a bool passed as 0
    or 1."""
    with pytest.raises(ConfigError, match="must be an integer"):
        build()


def test_config_int_fields_accept_numpy_integers():
    ap = replace(_FARM.aps[0], antenna_count=np.int64(5), preamble_id=np.int32(1))
    channel = replace(_FARM.channel, nlos_path_count=np.uint8(2))
    scn = replace(_FARM, aps=(ap, _FARM.aps[1]), channel=channel,
                  seed=np.uint64(2 ** 64 - 1))
    assert (scn.aps[0].antenna_count, scn.channel.nlos_path_count) == (5, 2)
    assert scn.seed == 2 ** 64 - 1
