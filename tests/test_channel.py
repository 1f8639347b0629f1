"""Array response, multipath draws, field synthesis, noise, motion."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sweeploc.channel import (
    PathSet,
    complex_noise,
    draw_multipath,
    propagate,
    sweep_response,
)
from sweeploc.scenario import (
    ApConfig,
    ChannelConfig,
    ConfigError,
    GeometryError,
    Position,
    Trajectory,
    trial_rng,
)
from sweeploc.pipeline import draw_noise
from sweeploc.receiver import detector_noise
from sweeploc.scenarios import bench_scenario
from sweeploc.transmitter import K_PREAMBLE, K_SWEEP, build_sweep_schedule

AP = ApConfig(position=Position(0.0, 0.0), boresight_rad=0.0)


def brute_sum(x, n):
    return sum(np.exp(1j * i * np.asarray(x)) for i in range(n))


def drive_for(increments, n):
    return np.exp(-1j * np.outer(np.arange(n), increments))


def kernel_sum(x, n):
    """sweep_response of one unit LOS path at boresight under the drive
    rows whose argument 2*pi*spacing*sin(b) - inc equals x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ap = replace(AP, antenna_count=n)
    return sweep_response(PathSet([1.0], [0.0], [0.0]), np.zeros(len(x)), ap,
                          drive_for(-x, n))[0]


def test_phased_sum_two_element_closed_form():
    xs = np.linspace(-2 * math.pi, 2 * math.pi, 10001)
    mags = np.abs(kernel_sum(xs, 2))
    expect = np.sqrt(np.maximum(2 + 2 * np.cos(xs), 0.0))
    assert np.max(np.abs(mags - expect)) < 1e-12


def test_phased_sum_matches_brute_force_sum():
    rng = trial_rng(0, "phased-sum")
    xs = rng.uniform(-3 * math.pi, 3 * math.pi, 4096)
    for n in range(2, 9):
        diff = np.abs(kernel_sum(xs, n) - brute_sum(xs, n))
        assert np.max(diff) < 1e-9


def test_phased_sum_peak_and_wraparound():
    xs = np.array([0.0, 2 * math.pi, 1e-14])
    for n in range(2, 9):
        got = kernel_sum(xs, n)
        assert np.abs(got) == pytest.approx([n, n, n])
        assert np.max(np.abs(got - brute_sum(xs, n))) < 1e-12


@pytest.mark.parametrize("spacing", [0.25, 0.4])
def test_sweep_response_weights_paths_at_any_spacing(spacing):
    """Trials x paths at a spacing other than half a wavelength: each
    path's field is a*link*exp(j*psi) times the array sum at its own
    2*pi*spacing*sin(b) - inc, the LOS path at the given bearing, and
    sum_paths gives their sum."""
    rng = trial_rng(4, "kernel", spacing)
    n, trials, paths_per_trial = 5, 16, 4
    ap = replace(AP, antenna_count=n, spacing_wavelengths=spacing)
    paths = PathSet(rng.uniform(0.1, 1.0, (trials, paths_per_trial)),
                    rng.uniform(-1.5, 1.5, (trials, paths_per_trial)),
                    rng.uniform(0.0, 2 * math.pi, (trials, paths_per_trial)))
    los = rng.uniform(-1.5, 1.5, trials)
    inc = rng.uniform(0.0, 2 * math.pi, 64)
    link = 0.3
    bearings = paths.bearings_rad.copy()
    bearings[:, 0] = los
    x = 2 * math.pi * spacing * np.sin(bearings)[..., None] - inc
    oracle = (paths.amplitudes * link * np.exp(1j * paths.excess_phases_rad)
              )[..., None] * brute_sum(x, n)
    per_path = sweep_response(paths, los[:, None], ap, drive_for(inc, n),
                              link=link)
    summed = sweep_response(paths, los[:, None], ap, drive_for(inc, n),
                            link=link, sum_paths=True)
    assert per_path.shape == (trials, paths_per_trial, len(inc))
    assert np.max(np.abs(per_path - oracle)) < 1e-12
    assert np.max(np.abs(summed - oracle.sum(axis=1))) < 1e-12


def test_sum_paths_adds_steering_vectors_in_path_order():
    """The grid shortcut's field is the drive contraction of the steering
    vectors summed LOS first, then each reflected path in order, bit for
    bit: the grid CSV bytes depend on that rounding."""
    rng = trial_rng(5, "path-order")
    trials, n = 256, 4
    ap = replace(AP, antenna_count=n)
    paths = PathSet(rng.uniform(0.1, 1.0, (trials, 5)),
                    rng.uniform(-1.5, 1.5, (trials, 5)),
                    rng.uniform(0.0, 2 * math.pi, (trials, 5)))
    los = rng.uniform(-1.5, 1.5, (trials, 1))
    drive = drive_for(rng.uniform(0.0, 2 * math.pi, 32), n)
    bearings = np.where(np.arange(5) == 0, los, paths.bearings_rad)
    steering = (paths.amplitudes * np.exp(1j * paths.excess_phases_rad)
                )[..., None] * np.exp(1j * np.multiply.outer(
                    2 * math.pi * ap.spacing_wavelengths * np.sin(bearings),
                    np.arange(n)))
    total = steering[:, 0]
    for k in range(1, 5):
        total = total + steering[:, k]
    # contracted with the antennas on the last axis: the bits must not
    # depend on the steering layout
    want = np.einsum("...i,i...->...", total[:, None, :], drive)
    got = sweep_response(paths, los, ap, drive, sum_paths=True)
    assert got.tobytes() == want.tobytes()


def test_draw_multipath_invariants():
    cfg = ChannelConfig(nlos_path_count=3, multipath_ratio=0.6)
    rng = trial_rng(1, "draw")
    for _ in range(200):
        ps = draw_multipath(cfg, rng, los_bearing_rad=0.3)
        assert ps.amplitudes[0] == 1.0
        assert ps.bearings_rad[0] == pytest.approx(0.3)
        assert ps.amplitudes.shape == (4,)
        assert ps.amplitudes[1:].sum() / ps.amplitudes[0] == pytest.approx(0.6)
        assert np.all(ps.amplitudes[1:] > 0)
        assert np.all(np.abs(ps.bearings_rad[1:]) <= math.pi / 2)
        assert np.all((ps.excess_phases_rad >= 0.0)
                      & (ps.excess_phases_rad < 2 * math.pi))


@pytest.mark.parametrize("k", [1, 3, 8, 16])
def test_draw_multipath_batch_equals_scalar_draws(k):
    """n draws at once consume the rng exactly as n draws in turn."""
    cfg = ChannelConfig(nlos_path_count=k, multipath_ratio=0.7)
    los = trial_rng(5, "los").uniform(-1.0, 1.0, 257)
    one_by_one, batched = trial_rng(5, "batch", k), trial_rng(5, "batch", k)
    draws = [draw_multipath(cfg, one_by_one, b) for b in los]
    batch = draw_multipath(cfg, batched, los)
    for name in ("amplitudes", "bearings_rad", "excess_phases_rad"):
        got = getattr(batch, name)
        assert got.shape == (257, k + 1)
        assert np.array_equal(got, np.array([getattr(d, name) for d in draws]))
    assert one_by_one.bit_generator.state == batched.bit_generator.state


def test_draw_multipath_los_only():
    rng = trial_rng(2)
    before = rng.bit_generator.state
    ps = draw_multipath(ChannelConfig(multipath_ratio=0.0), rng, 0.1)
    assert ps.amplitudes.shape == (1,)
    assert rng.bit_generator.state == before


def test_path_set_validation():
    with pytest.raises(ConfigError):
        PathSet([], [], [])
    with pytest.raises(ConfigError):
        PathSet([0.0, 0.5], [0.0, 0.1], [0.0, 0.2])  # LOS must be positive
    with pytest.raises(ConfigError):
        PathSet([1.0, -0.1], [0.0, 0.1], [0.0, 0.2])
    with pytest.raises(ConfigError):
        PathSet([[1.0, math.nan]], [[0.0, 0.1]], [[0.0, 0.2]])
    with pytest.raises(ConfigError):
        PathSet([1.0, 0.5], [0.0], [0.0, 0.2])


def test_propagate_preamble_and_sweep_kinds():
    sched = build_sweep_schedule(AP)
    trace = propagate(sched, PathSet([1.0], [0.0], [0.0]),
                      Position(10.0, 0.0), 4000.0)
    assert len(trace.samples) == 200
    row = np.searchsorted(sched.starts_s, np.arange(200) / 4000.0 + 1e-12,
                          side="right") - 1
    assert np.all(sched.kinds[row[:32]] == K_PREAMBLE)
    assert np.all(sched.kinds[row[32:]] == K_SWEEP)
    # one-bits radiate from one antenna, zero-bits are silent
    bit_pattern = np.repeat([1, 0, 1, 0, 1, 0, 1, 0], 4).astype(bool)
    amp = 10 ** ((AP.tx_power_dbm
                  - 20 * math.log10(4 * math.pi * 10.0 * 915e6 / 299792458.0)) / 20)
    mags = np.abs(trace.samples[:32])
    assert mags[bit_pattern] == pytest.approx(amp)
    assert np.all(mags[~bit_pattern] == 0.0)
    # at boresight every sweep sample is the array factor of its step
    factor = np.abs(np.exp(-1j * np.outer(np.arange(AP.antenna_count),
                                          sched.increments[row[32:]])).sum(axis=0))
    assert np.abs(trace.samples[32:]) == pytest.approx(amp * factor)


def test_propagate_sweep_peaks_near_true_bearing():
    sched = build_sweep_schedule(AP)
    phi = math.radians(25.0)
    pos = Position(10.0 * math.cos(phi), 10.0 * math.sin(phi))
    trace = propagate(sched, PathSet([1.0], [phi], [0.0]), pos, 4000.0)
    sweep = np.abs(trace.samples[32:])
    peak_sample = 32 + int(np.argmax(sweep))
    t = peak_sample / 4000.0
    frac = (t - AP.preamble_duration_s) / (AP.sweep_period_s - AP.preamble_duration_s)
    est = frac * math.pi - math.pi / 2
    assert abs(est - phi) < math.radians(2.0)


def test_propagate_rejects_receiver_on_the_ap():
    sched = build_sweep_schedule(AP)
    with pytest.raises(GeometryError):
        propagate(sched, PathSet([1.0], [0.0], [0.0]), Position(0.0, 0.0),
                  4000.0)


def test_add_noise_power_statistics():
    """The capture noise helper: channel noise of the configured power,
    drawn before the detector noise; with both off it draws nothing."""
    scn = bench_scenario(seed=3)
    noisy = replace(scn, channel=replace(scn.channel, noise_power_dbm=-30.0))
    field, det = draw_noise(noisy, 100_000, trial_rng(3, "noise"))
    measured_mw = np.mean(np.abs(field) ** 2)
    assert measured_mw == pytest.approx(1e-3, rel=0.02)
    rng = trial_rng(3, "noise")
    assert field.tobytes() == complex_noise(-30.0, 100_000, rng).tobytes()
    assert det.tobytes() == detector_noise(scn.detector, 100_000, rng).tobytes()
    quiet = replace(scn, detector=replace(scn.detector, output_noise_volts=0.0))
    rng = trial_rng(3)
    state = rng.bit_generator.state
    assert draw_noise(quiet, 100, rng) == (None, None)
    assert rng.bit_generator.state == state


def test_apply_doppler_stationary_is_identity():
    sched = build_sweep_schedule(AP)
    ps = PathSet([1.0, 0.3], [0.0, 0.4], [0.0, 1.0])
    trace = propagate(sched, ps, Position(10.0, 0.0), 4000.0)
    still = propagate(sched, ps, Trajectory.stationary(Position(10.0, 0.0)),
                      4000.0, doppler=True)
    assert np.allclose(still.samples, trace.samples, rtol=0, atol=1e-15)


def test_apply_doppler_radial_motion_rotates_los_phase():
    sched = build_sweep_schedule(AP)
    ps = PathSet([1.0], [0.0], [0.0])
    traj = Trajectory.line(Position(10.0, 0.0), heading_rad=0.0,
                           speed_mps=5.0, duration_s=1.0)
    off = propagate(sched, ps, traj, 4000.0)
    moved = propagate(sched, ps, traj, 4000.0, doppler=True)
    lam = AP.wavelength_m
    t = np.arange(200) / 4000.0
    expect = off.samples * np.exp(-2j * math.pi * (5.0 * t) / lam)
    # compare only where the transmitter radiates
    on = np.abs(off.samples) > 0
    assert np.allclose(moved.samples[on], expect[on], rtol=1e-9, atol=0)


def test_multi_slot_propagate_and_doppler_equal_slot_by_slot():
    """One call over several slots (a rounds axis on the start times and on
    the draws) equals one call per slot, bit for bit, Doppler included."""
    sched = build_sweep_schedule(AP)
    starts = np.array([0.0, 0.1, 0.2])
    rng = trial_rng(4, "slots")
    paths = draw_multipath(ChannelConfig(multipath_ratio=0.5), rng,
                           np.array([0.1, 0.12, 0.14]))
    traj = Trajectory.line(Position(10.0, 2.0), heading_rad=0.3,
                           speed_mps=9.1, duration_s=1.0)
    batched = propagate(sched, paths, traj, 4000.0, t0_s=starts, doppler=True)
    assert len(batched.samples) == 3 * 200
    assert batched.t0_s == 0.0
    for r, t0 in enumerate(starts):
        one = PathSet(paths.amplitudes[r], paths.bearings_rad[r],
                      paths.excess_phases_rad[r])
        slot = propagate(sched, one, traj, 4000.0, t0_s=float(t0), doppler=True)
        got = batched.samples[r * 200:(r + 1) * 200]
        assert got.tobytes() == slot.samples.tobytes()


def test_apply_doppler_checks_geometry_in_every_slot():
    sched = build_sweep_schedule(AP)
    ps = PathSet([1.0, 0.3], [0.0, 0.5], [0.0, 1.0])
    starts = np.array([0.0, 0.1, 0.2])
    # reaches the AP at 0.15 s and stays there: clear in slot 0 only
    reaches = Trajectory(((0.0, Position(10.0, 0.0)), (0.15, AP.position)))
    propagate(sched, ps, reaches, 4000.0, t0_s=starts[:1], doppler=True)
    for doppler in (False, True):
        with pytest.raises(GeometryError):
            propagate(sched, ps, reaches, 4000.0, t0_s=starts, doppler=doppler)
