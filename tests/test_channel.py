"""Array response, multipath draws, field synthesis, noise, motion."""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from sweeploc.channel import (
    PathSet,
    apply_doppler,
    complex_noise,
    draw_multipath,
    phased_sum,
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
from sweeploc.pipeline import draw_noise, fast_estimate_bearings, noise_pair
from sweeploc.scenarios import bench_scenario
from sweeploc.transmitter import build_sweep_schedule, drive_increments, sample_rows

from helpers import per_antenna_propagate, row_starts, stretch_noise

AP = ApConfig(position=Position(0.0, 0.0), boresight_rad=0.0)


def brute_sum(x, n):
    return sum(np.exp(1j * i * np.asarray(x)) for i in range(n))


def drive_for(increments, n):
    return np.exp(-1j * np.outer(np.arange(n), increments))


def kernel_sum(x, n):
    """sweep_response of the LOS path alone at boresight under the drive
    rows whose argument 2*pi*spacing*sin(b) - inc equals x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ap = replace(AP, antenna_count=n)
    return sweep_response(PathSet([], [], []), np.zeros(len(x)), ap,
                          drive_for(-x, n))


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
    path's field is a*exp(j*psi) times the array sum at its own
    2*pi*spacing*sin(b) - inc, the LOS path at the given bearing with unit
    weight (phased_sum with each path on its own axis, as propagate keeps
    the reflected paths), and sweep_response gives their sum.
    The running sum after antenna m >= 2 is that sum over the first m
    antennas, and, bit for bit, the sweep_response field of an m-antenna
    array."""
    rng = trial_rng(4, "kernel", spacing)
    n, trials, reflections = 5, 16, 3
    ap = replace(AP, antenna_count=n, spacing_wavelengths=spacing)
    paths = PathSet(rng.uniform(0.1, 1.0, (trials, reflections)),
                    rng.uniform(-1.5, 1.5, (trials, reflections)),
                    rng.uniform(0.0, 2 * math.pi, (trials, reflections)))
    los = rng.uniform(-1.5, 1.5, trials)
    inc = rng.uniform(0.0, 2 * math.pi, 64)
    bearings = np.concatenate([los[:, None], paths.bearings_rad], axis=1)
    x = 2 * math.pi * spacing * np.sin(bearings)[..., None] - inc
    weight = np.concatenate([np.ones((trials, 1)), paths.amplitudes * np.exp(
        1j * paths.excess_phases_rad)], axis=1)[..., None]
    oracle = weight * brute_sum(x, n)
    phasor = np.exp(1j * (2 * math.pi * spacing * np.sin(bearings)))
    per_path = phased_sum(phasor[..., None, None], weight[..., None],
                          drive_for(inc, n))
    summed = sweep_response(paths, np.sin(los)[:, None], ap, drive_for(inc, n))
    assert per_path.shape == (trials, 1 + reflections, len(inc))
    assert np.max(np.abs(per_path - oracle)) < 1e-12
    assert np.max(np.abs(summed - oracle.sum(axis=1))) < 1e-12
    prefixes = sweep_response(paths, np.sin(los)[:, None], ap, drive_for(inc, n),
                              each=np.copy)
    assert prefixes.shape == (n - 1, trials, len(inc))
    assert prefixes[-1].tobytes() == summed.tobytes()
    for m in range(2, n + 1):  # an ApConfig has at least two antennas
        first_m = (weight * brute_sum(x, m)).sum(axis=1)
        assert np.max(np.abs(prefixes[m - 2] - first_m)) < 1e-12
        alone = sweep_response(paths, np.sin(los)[:, None],
                               replace(ap, antenna_count=m), drive_for(inc, m))
        assert prefixes[m - 2].tobytes() == alone.tobytes()


def test_sum_paths_adds_steering_vectors_in_path_order():
    """The grid shortcut's field is the drive contraction of the steering
    vectors summed LOS first (weight 1+0j), then each reflected path in
    order, bit for bit: the grid CSV bytes depend on that rounding.
    Antenna i's factor is the phasor exp(j*phi) times antenna i-1's
    factor, and the contraction adds antenna i's product with its drive
    row to the first i antennas' sum, in antenna order, which each sees
    after every antenna from the second on."""
    rng = trial_rng(5, "path-order")
    trials, n = 256, 4
    ap = replace(AP, antenna_count=n)
    paths = PathSet(rng.uniform(0.1, 1.0, (trials, 4)),
                    rng.uniform(-1.5, 1.5, (trials, 4)),
                    rng.uniform(0.0, 2 * math.pi, (trials, 4)))
    los = rng.uniform(-1.5, 1.5, (trials, 1))
    drive = drive_for(rng.uniform(0.0, 2 * math.pi, 32), n)
    bearings = np.concatenate([los, paths.bearings_rad], axis=1)
    phasor = np.exp(1j * (2 * math.pi * ap.spacing_wavelengths * np.sin(bearings)))
    powers = [np.ones_like(phasor), phasor]
    for _ in range(2, n):
        powers.append(powers[-1] * phasor)
    weight = np.concatenate([np.full((trials, 1), 1 + 0j), paths.amplitudes
                             * np.exp(1j * paths.excess_phases_rad)], axis=1)
    steering = weight[..., None] * np.stack(powers, axis=-1)
    total = steering[:, 0]
    for k in range(1, 5):
        total = total + steering[:, k]
    # antenna by antenna, with the antennas on the last axis: the bits must
    # not depend on the steering layout
    want = [total[:, 0, None] * drive[0]]
    for i in range(1, n):
        want.append(want[-1] + total[:, i, None] * drive[i])
    got = sweep_response(paths, np.sin(los), ap, drive)
    assert got.tobytes() == want[-1].tobytes()
    each = sweep_response(paths, np.sin(los), ap, drive, each=np.copy)
    assert each.tobytes() == np.stack(want[1:]).tobytes()


def test_phased_sum_bits_do_not_depend_on_the_batch():
    """One path's field is the same bits alone as in a batch of trials, at
    8 antennas. numpy rounds a one-element in-place complex product
    without the fused multiply-add of its vector loops, so the running
    product of a lone reflected path, or of a one-trial grid chunk without
    reflections, must not be taken in place."""
    rng = trial_rng(6, "batch-bits")
    x = np.exp(1j * rng.uniform(0.0, 2 * math.pi, (64, 1, 1)))
    weight = rng.uniform(0.1, 1.0, (64, 1, 1)) * np.exp(
        1j * rng.uniform(0.0, 2 * math.pi, (64, 1, 1)))
    drive = drive_for(rng.uniform(0.0, 2 * math.pi, 16), 8)
    batch = phased_sum(x, weight, drive)
    for t in range(64):
        assert phased_sum(x[t], weight[t], drive).tobytes() == batch[t].tobytes()


@pytest.mark.parametrize("spacing", [0.25, 0.5])
@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("mode", ["alg1", "uniform-theta"])
def test_propagate_matches_per_antenna_oracle(mode, n, spacing):
    """propagate (one phasor per path and row, raised to each antenna's
    power) equals the per-antenna sum of exp(j*i*phi) to rounding: moving
    and static receivers, Doppler on and off, with and without reflections,
    one draw for every slot and one draw per slot, and a lone reflection
    stronger than the LOS path, with an excess phase."""
    ap = replace(AP, antenna_count=n, spacing_wavelengths=spacing)
    rng = trial_rng(11, "oracle", mode, n, spacing)
    starts = np.array([0.0, 0.1, 0.35])
    hand_built = PathSet([0.7, 0.3, 0.2, 0.1], [0.2, -0.9, 0.4, 1.3],
                         [1.1, 0.5, 2.5, 4.0])
    cases = [(hand_built, 0.0), (hand_built, starts),
             (PathSet([1.3], [0.0], [2.0]), 0.0),
             (draw_multipath(ChannelConfig(multipath_ratio=0.6), rng, (3,)), starts)]
    moving = Trajectory.line(Position(12.0, 5.0), heading_rad=2.0,
                             speed_mps=9.1, duration_s=1.0)
    for traj in (Trajectory.stationary(Position(12.0, 5.0)),
                 Trajectory.stationary(Position(6.0, -8.0)), moving):
        for paths, t0 in cases:
            for doppler in (False, True):
                got = propagate(ap, mode, paths, [traj], 4000.0, np.array([t0]),
                                doppler=doppler).samples[0]
                want = per_antenna_propagate(ap, mode, paths, traj, 4000.0, t0,
                                             doppler=doppler)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_propagate_refuses_motion_that_starts_or_stops_inside_a_slot():
    """A moving receiver is synthesized only in slots its motion spans.
    Motion that starts inside a slot, stops inside one and stands still in
    the next, or does both inside one slot is refused with ConfigError,
    Doppler on and off."""
    rng = trial_rng(12, "clipped")
    starts = np.array([[0.0, 0.1, 0.2]])
    paths = draw_multipath(ChannelConfig(multipath_ratio=0.6), rng, (3,))
    p0, p1 = Position(12.0, 5.0), Position(10.6, 6.3)
    for waypoints in (((0.13, p0), (0.5, p1)), ((0.0, p0), (0.13, p1)),
                      ((0.02, p0), (0.03, p1))):
        for doppler in (False, True):
            with pytest.raises(ConfigError, match="span every slot"):
                propagate(AP, "alg1", paths, [Trajectory(waypoints)], 4000.0,
                          starts, doppler=doppler)


def test_propagate_takes_motion_from_a_first_to_a_last_sample():
    """Motion from slot 0's first sample to slot 2's last spans every
    slot: propagate equals the per-antenna oracle within 1e-12 of the
    largest sample, Doppler on and off, one draw per slot. Starting or
    stopping one representable instant inside those samples is refused."""
    starts = np.array([0.0, 0.1, 0.2])
    paths = draw_multipath(ChannelConfig(multipath_ratio=0.6),
                           trial_rng(12, "spanned"), (3,))
    p0, p1 = Position(12.0, 5.0), Position(10.6, 6.3)
    last = 0.2 + 199 / 4000.0  # as propagate adds a slot's start and time
    for doppler in (False, True):
        traj = Trajectory(((0.0, p0), (last, p1)))
        got = propagate(AP, "alg1", paths, [traj], 4000.0, starts[None],
                        doppler=doppler).samples[0]
        want = per_antenna_propagate(AP, "alg1", paths, traj, 4000.0, starts,
                                     doppler=doppler)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        for waypoints in (((0.0, p0), (math.nextafter(last, 0.0), p1)),
                          ((math.nextafter(0.0, 1.0), p0), (last, p1))):
            with pytest.raises(ConfigError, match="span every slot"):
                propagate(AP, "alg1", paths, [Trajectory(waypoints)], 4000.0,
                          starts[None], doppler=doppler)


def test_draw_multipath_invariants():
    cfg = ChannelConfig(nlos_path_count=3, multipath_ratio=0.6)
    rng = trial_rng(1, "draw")
    for _ in range(200):
        ps = draw_multipath(cfg, rng)
        assert ps.amplitudes.shape == (3,)
        assert ps.amplitudes.sum() == pytest.approx(0.6)  # of the unit LOS path
        assert np.all(ps.amplitudes > 0)
        assert np.all(np.abs(ps.bearings_rad) <= math.pi / 2)
        assert np.all((ps.excess_phases_rad >= 0.0)
                      & (ps.excess_phases_rad < 2 * math.pi))


@pytest.mark.parametrize("k", [1, 3, 8, 16])
def test_draw_multipath_batch_equals_scalar_draws(k):
    """n draws at once consume the rng exactly as n draws in turn."""
    cfg = ChannelConfig(nlos_path_count=k, multipath_ratio=0.7)
    one_by_one, batched = trial_rng(5, "batch", k), trial_rng(5, "batch", k)
    draws = [draw_multipath(cfg, one_by_one) for _ in range(257)]
    batch = draw_multipath(cfg, batched, (257,))
    for name in ("amplitudes", "bearings_rad", "excess_phases_rad"):
        got = getattr(batch, name)
        assert got.shape == (257, k)
        assert np.array_equal(got, np.array([getattr(d, name) for d in draws]))
    assert one_by_one.bit_generator.state == batched.bit_generator.state


def test_draw_multipath_los_only():
    rng = trial_rng(2)
    before = rng.bit_generator.state
    ps = draw_multipath(ChannelConfig(multipath_ratio=0.0), rng)
    assert ps.amplitudes.shape == (0,)
    assert rng.bit_generator.state == before


def test_path_set_validation():
    with pytest.raises(ConfigError):
        PathSet(0.5, 0.1, 0.2)  # no paths axis
    with pytest.raises(ConfigError):
        PathSet(*np.zeros((3, 1, 1, 1, 1)))  # three leading axes
    with pytest.raises(ConfigError):
        PathSet([0.5, -0.1], [0.0, 0.1], [0.0, 0.2])
    with pytest.raises(ConfigError):
        PathSet([[0.5, math.nan]], [[0.0, 0.1]], [[0.0, 0.2]])
    with pytest.raises(ConfigError):
        PathSet([0.5], [], [0.2])
    PathSet([0.0, 0.5], [0.0, 0.1], [0.0, 0.2])  # a reflection may be silent


@pytest.mark.parametrize("shape", [(0,), (2, 0), (2, 3, 0)],
                         ids=["one draw", "rounds", "trials x rounds"])
def test_empty_path_set_is_the_los_only_channel(shape):
    """A PathSet without paths is valid: the channel is the LOS path
    alone. Its field equals the per-antenna oracle's LOS path, for still
    and moving receivers, Doppler on and off, one slot and several."""
    ap = replace(AP, antenna_count=5)
    empty = PathSet(*np.zeros((3,) + shape))
    starts = 0.05 + 0.1 * np.arange(math.prod(shape[:-1])).reshape(shape[:-1])
    pos = Position(9.0, -14.0)
    moving = Trajectory.line(pos, heading_rad=2.0, speed_mps=9.1, duration_s=1.0)
    for traj in (Trajectory.stationary(pos), moving):
        for doppler in (False, True):
            got = propagate(ap, "uniform-theta", empty, [traj], 4000.0,
                            np.array([starts]), doppler=doppler).samples[0]
            want = per_antenna_propagate(ap, "uniform-theta", empty, traj, 4000.0,
                                         starts, doppler=doppler)
            assert got.shape == np.shape(starts) + (200,)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _los_samples(ap, mode, pos):
    """propagate's samples of one slot of a LOS-only channel at pos."""
    return propagate(ap, mode, PathSet([], [], []), [Trajectory.stationary(pos)],
                     4000.0, np.zeros(1)).samples[0]


def test_propagate_preamble_and_sweep_kinds():
    samples = _los_samples(AP, "alg1", Position(10.0, 0.0))
    assert len(samples) == 200
    row = np.searchsorted(row_starts(AP), np.arange(200) / 4000.0 + 1e-12,
                          side="right") - 1
    # the sweep steps are the schedule's last sweep_step_count rows
    n_pre = build_sweep_schedule(AP).shape[1] - AP.sweep_step_count
    assert np.all(row[:32] < n_pre)
    assert np.all(row[32:] >= n_pre)
    # one-bits radiate from one antenna, zero-bits are silent
    bit_pattern = np.repeat([1, 0, 1, 0, 1, 0, 1, 0], 4).astype(bool)
    amp = 10 ** ((AP.tx_power_dbm
                  - 20 * math.log10(4 * math.pi * 10.0 * 915e6 / 299792458.0)) / 20)
    mags = np.abs(samples[:32])
    assert mags[bit_pattern] == pytest.approx(amp)
    assert np.all(mags[~bit_pattern] == 0.0)
    # at boresight every sweep sample is the array factor of its step
    incs = drive_increments(AP, "alg1")[row[32:] - n_pre]
    factor = np.abs(np.exp(-1j * np.outer(np.arange(AP.antenna_count),
                                          incs)).sum(axis=0))
    assert np.abs(samples[32:]) == pytest.approx(amp * factor)


def test_propagate_sweep_peaks_near_true_bearing():
    phi = math.radians(25.0)
    pos = Position(10.0 * math.cos(phi), 10.0 * math.sin(phi))
    sweep = np.abs(_los_samples(AP, "alg1", pos)[32:])
    peak_sample = 32 + int(np.argmax(sweep))
    t = peak_sample / 4000.0
    frac = (t - AP.preamble_duration_s) / (AP.sweep_period_s - AP.preamble_duration_s)
    est = frac * math.pi - math.pi / 2
    assert abs(est - phi) < math.radians(2.0)


def test_propagate_rejects_receiver_on_the_ap():
    with pytest.raises(GeometryError):
        _los_samples(AP, "alg1", Position(0.0, 0.0))


@pytest.mark.parametrize("dbm, n", [(-30.0, 1), (-30.0, 7), (12.0, 400_000)])
def test_complex_noise_equals_two_normal_draws_bitwise(dbm, n):
    """Real parts, then imaginary parts, written into one complex array,
    equal the sum of the two generator draws."""
    sigma = math.sqrt(10.0 ** (dbm / 10.0) / 2.0)
    want_rng, got_rng = trial_rng(20, "complex", n), trial_rng(20, "complex", n)
    want = want_rng.normal(0.0, sigma, n) + 1j * want_rng.normal(0.0, sigma, n)
    assert complex_noise(dbm, got_rng, np.empty(n, complex)).tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_add_noise_power_statistics():
    """The capture noise helper: channel noise of the configured power,
    drawn before the detector noise, into its stretch of the capture's
    noise pair and nowhere else; with both off the pair is (None, None)
    and draws nothing."""
    scn = bench_scenario(seed=3)
    noisy = replace(scn, channel=replace(scn.channel, noise_power_dbm=-30.0))
    noise = noise_pair(noisy, (3, 100_000))
    for part in noise:
        part.fill(7.0)
    draw_noise(noisy, noise, 1, trial_rng(3, "noise"))
    field, det = (part[1] for part in noise)
    measured_mw = np.mean(np.abs(field) ** 2)
    assert measured_mw == pytest.approx(1e-3, rel=0.02)
    want = stretch_noise(noisy, 100_000, trial_rng(3, "noise"))
    assert field.tobytes() == want[0].tobytes()
    assert det.tobytes() == want[1].tobytes()
    for part in noise:
        assert (part[[0, 2]] == 7.0).all()
    quiet = replace(scn, detector=replace(scn.detector, output_noise_volts=0.0))
    rng = trial_rng(3)
    state = rng.bit_generator.state
    assert noise_pair(quiet, (100,)) == (None, None)
    draw_noise(quiet, (None, None), ..., rng)
    assert rng.bit_generator.state == state


def test_apply_doppler_stationary_is_identity():
    ps = PathSet([0.3], [0.4], [1.0])
    still = [Trajectory.stationary(Position(10.0, 0.0))]
    off, on = (propagate(AP, "alg1", ps, still, 4000.0, np.zeros(1),
                         doppler=doppler).samples for doppler in (False, True))
    assert np.allclose(on, off, rtol=0, atol=1e-15)


def test_apply_doppler_radial_motion_rotates_los_phase():
    ps = PathSet([], [], [])
    traj = Trajectory.line(Position(10.0, 0.0), heading_rad=0.0,
                           speed_mps=5.0, duration_s=1.0)
    off, moved = (propagate(AP, "alg1", ps, [traj], 4000.0, np.zeros(1),
                            doppler=doppler).samples[0] for doppler in (False, True))
    lam = AP.wavelength_m
    t = np.arange(200) / 4000.0
    expect = off * np.exp(-2j * math.pi * (5.0 * t) / lam)
    # compare only where the transmitter radiates
    on = np.abs(off) > 0
    assert np.allclose(moved[on], expect[on], rtol=1e-9, atol=0)


def test_apply_doppler_adds_the_paths_in_order_then_the_los_path():
    """apply_doppler's sum is ((f_1 + f_2) + f_3) + LOS, bit for bit, where
    f_k is path k rotated alone (no LOS field) and LOS the LOS field
    rotated with no paths: the order a sum over the paths axis takes, with
    the LOS path last. Adding the LOS field first rounds differently. At
    wavenumber 0 (Doppler off) no path turns: the sum is
    LOS + ((f_1 + f_2) + f_3) of the unturned fields, each gathered per
    sample."""
    row = sample_rows(AP, 4000.0)
    t_local = np.arange(len(row)) / 4000.0
    rng = trial_rng(16, "doppler-order")
    los = rng.normal(size=len(row)) + 1j * rng.normal(size=len(row))
    shape = (3, row.max() + 1)  # paths x schedule rows
    reflected = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    bearings = np.array([0.4, -0.9, 1.3])
    segment = np.array([0.0, 1.0, 5.0, 2.0])  # 0 to 1 s, moving (5, 2) m
    dist = 10.0 + np.hypot(5.0, 2.0) * t_local

    def rotated(los_field, k, wavenumber=2.0 * math.pi / AP.wavelength_m):
        return apply_doppler(los_field, reflected[k], row, bearings[k], AP, segment,
                             t_local, dist, wavenumber, out=np.empty(len(row), complex))

    paths = [rotated(np.zeros(len(row), complex), slice(k, k + 1)) for k in range(3)]
    want = ((paths[0] + paths[1]) + paths[2]) + rotated(los, slice(0, 0))
    got = rotated(los, slice(0, 3))
    assert np.array_equal(got, want)
    f = reflected[:, row]  # unturned, per sample
    assert np.array_equal(rotated(los, slice(0, 3), 0.0), los + ((f[0] + f[1]) + f[2]))


def test_multi_slot_propagate_and_doppler_equal_slot_by_slot():
    """One call over several slots (a rounds axis on the start times and on
    the draws) equals one call per slot, bit for bit, Doppler included."""
    starts = np.array([[0.0, 0.1, 0.2]])
    rng = trial_rng(4, "slots")
    paths = draw_multipath(ChannelConfig(multipath_ratio=0.5), rng, (3,))
    traj = Trajectory.line(Position(10.0, 2.0), heading_rad=0.3,
                           speed_mps=9.1, duration_s=1.0)
    batched = propagate(AP, "alg1", paths, [traj], 4000.0, starts, doppler=True)
    assert batched.samples.shape == (1, 3, 200)
    for r, t0 in enumerate(starts[0]):
        one = PathSet(paths.amplitudes[r], paths.bearings_rad[r],
                      paths.excess_phases_rad[r])
        slot = propagate(AP, "alg1", one, [traj], 4000.0, np.array([t0]), doppler=True)
        assert batched.samples[0, r].tobytes() == slot.samples[0].tobytes()


def _still_field(ap, mode, paths, pos, starts):
    """A still receiver's field the grid's way: sweep_response per schedule
    row with the closed-form LOS sine, gathered per sample and scaled by
    the link amplitude, all from scalar geometry."""
    dx, dy = pos.x - ap.position.x, pos.y - ap.position.y
    dist = math.sqrt(dx * dx + dy * dy)
    sine = (dy * math.cos(ap.boresight_rad) - dx * math.sin(ap.boresight_rad)) / dist
    amp = 10.0 ** (ap.tx_power_dbm / 20.0) * ap.wavelength_m / (4.0 * math.pi * dist)
    rows = sweep_response(paths, np.array([sine]), ap, build_sweep_schedule(ap, mode))
    t_local = np.arange(200) / 4000.0
    row = np.searchsorted(row_starts(ap), t_local + 1e-12, side="right") - 1
    return np.broadcast_to(rows[..., row], np.shape(starts) + (200,)) * amp


@pytest.mark.parametrize("mode", ["alg1", "uniform-theta"])
def test_still_receiver_field_is_sweep_response_per_row(mode):
    """A still receiver (a one-waypoint Trajectory, Doppler on or off)
    gets sweep_response's field per schedule row, gathered per sample, bit
    for bit: one draw for every slot, one draw per slot, and no
    reflections."""
    ap = replace(AP, antenna_count=5, boresight_rad=0.3)
    rng = trial_rng(13, "still", mode)
    starts = np.array([0.0, 0.1, 0.2, 0.3])
    per_slot = draw_multipath(ChannelConfig(multipath_ratio=0.6), rng, (4,))
    cases = [(PathSet([0.7, 0.3, 0.2], [0.4, -0.9, 1.3], [1.1, 0.5, 4.0]), 0.05),
             (per_slot, starts), (PathSet([], [], []), starts)]
    pos = Position(9.0, 14.0)
    for paths, t0 in cases:
        want = _still_field(ap, mode, paths, pos, t0)
        for doppler in (False, True):
            got = propagate(ap, mode, paths, [Trajectory.stationary(pos)], 4000.0,
                            np.array([t0]), doppler=doppler).samples[0]
            assert got.tobytes() == want.tobytes()


def test_still_trajectory_agrees_with_a_zero_length_line():
    """A zero-length line has two equal waypoints, so it takes the moving
    path (LOS field per sample, Doppler rotations by zero); it agrees with
    a stationary trajectory's per-row field to 1e-12 of the largest
    sample."""
    ap = replace(AP, antenna_count=6)
    rng = trial_rng(14, "zero-length")
    starts = np.array([[0.0, 0.1, 0.2]])
    paths = draw_multipath(ChannelConfig(multipath_ratio=0.8), rng, (3,))
    pos = Position(11.0, -6.0)
    line = Trajectory.line(pos, heading_rad=1.0, speed_mps=0.0, duration_s=1.0)
    assert line.waypoints[0][1] == line.waypoints[1][1]
    for doppler in (False, True):
        still, moving = (propagate(ap, "uniform-theta", paths, [traj], 4000.0, starts,
                                   doppler=doppler).samples
                         for traj in (Trajectory.stationary(pos), line))
        assert np.max(np.abs(moving - still)) <= 1e-12 * np.max(np.abs(still))


@pytest.mark.parametrize("moving", [False, True])
def test_propagate_trials_equal_one_call_per_trial(moving):
    """Trajectories on a leading trials axis of t0_s and of the draws
    equal one call per trial, bit for bit, Doppler on and off. Trials that
    stand still and trials that move cannot share a call."""
    ap = replace(AP, antenna_count=3)
    rng = trial_rng(15, "trials", moving)
    starts = np.array([[0.0, 0.1, 0.2], [0.5, 0.6, 0.7]])
    paths = draw_multipath(ChannelConfig(multipath_ratio=0.5), rng, (2, 3))
    points = (Position(10.0, 2.0), Position(-4.0, 9.0))
    trajs = [Trajectory.line(p, heading_rad=h, speed_mps=9.1, duration_s=1.0)
             if moving else Trajectory.stationary(p)
             for p, h in zip(points, (0.3, 2.0))]
    for doppler in (False, True):
        batch = np.empty((2, 3, 200), complex)
        propagate(ap, "alg1", paths, trajs, 4000.0, starts, doppler=doppler,
                  out=batch)
        for i, traj in enumerate(trajs):
            one = PathSet(paths.amplitudes[i], paths.bearings_rad[i],
                          paths.excess_phases_rad[i])
            got = propagate(ap, "alg1", one, [traj], 4000.0, starts[i:i + 1],
                            doppler=doppler).samples
            assert got.tobytes() == batch[i].tobytes()
    mixed = [trajs[0], Trajectory.line(points[1], 0.0, 1.0, 1.0) if not moving
             else Trajectory.stationary(points[1])]
    with pytest.raises(ConfigError):
        propagate(ap, "alg1", paths, mixed, 4000.0, starts)
    with pytest.raises(ConfigError):
        propagate(ap, "alg1", paths, trajs, 4000.0, starts[0])


def test_successive_draws_that_differ_only_in_weight_stay_apart():
    """Each slot's field comes from its own draw: two successive draws with
    the same bearings but other amplitudes and phases give two fields. A
    multi-slot call equals one call per slot, bit for bit, for a still and
    a moving receiver."""
    paths = PathSet([[0.3], [0.5]], [[0.7], [0.7]], [[1.0], [2.5]])
    starts = np.array([[0.0, 0.1]])
    for traj in (Trajectory.stationary(Position(10.0, 2.0)),
                 Trajectory.line(Position(10.0, 2.0), 0.3, 9.1, 1.0)):
        batched = propagate(AP, "alg1", paths, [traj], 4000.0, starts).samples
        for r, t0 in enumerate(starts[0]):
            one = PathSet(paths.amplitudes[r], paths.bearings_rad[r],
                          paths.excess_phases_rad[r])
            slot = propagate(AP, "alg1", one, [traj], 4000.0, np.array([t0])).samples
            assert slot.tobytes() == batched[0, r].tobytes()


def test_apply_doppler_checks_geometry_in_every_slot():
    ps = PathSet([0.3], [0.5], [1.0])
    starts = np.array([[0.0, 0.1, 0.2]])
    # reaches the AP at slot 2's last sample: clear in slot 0
    reaches = [Trajectory(((0.0, Position(10.0, 0.0)),
                           (0.2 + 199 / 4000.0, AP.position)))]
    propagate(AP, "alg1", ps, reaches, 4000.0, starts[:, :1], doppler=True)
    for doppler in (False, True):
        with pytest.raises(GeometryError):
            propagate(AP, "alg1", ps, reaches, 4000.0, starts, doppler=doppler)


def _moving_cases():
    """Two propagate calls of different shapes: three slots with a draw
    each and Doppler, and one slot of another AP with one draw, static."""
    rng = trial_rng(8, "reuse")
    traj = Trajectory.line(Position(12.0, 3.0), heading_rad=0.7,
                           speed_mps=9.1, duration_s=0.4)
    three = (AP, "alg1", draw_multipath(ChannelConfig(multipath_ratio=0.6), rng, (3,)),
             [traj], 4000.0, np.array([[0.0, 0.1, 0.2]]), True)
    other_ap = replace(AP, antenna_count=6, boresight_rad=0.4)
    one = (other_ap, "uniform-theta", draw_multipath(
        ChannelConfig(nlos_path_count=5, multipath_ratio=0.9), rng),
        [Trajectory.stationary(Position(-8.0, 20.0))], 4000.0, np.array([0.05]), False)
    return three, one


def _grid_bearings():
    """fast_estimate_bearings of 64 trials: its phased_sum call shares the
    scratch buffers of propagate's at other shapes."""
    rng = trial_rng(8, "grid")
    los = rng.uniform(-1.0, 1.0, 64)
    paths = draw_multipath(ChannelConfig(multipath_ratio=0.6), rng, los.shape)
    return fast_estimate_bearings(AP, "alg1", 4000.0, paths, los)


def test_propagate_results_survive_later_calls():
    """propagate and phased_sum keep their intermediates in buffers that
    live from call to call; what they return is never one of them. A
    result (and an out array, and a sweep_response field) keeps its bytes
    through later calls with other inputs and other shapes, the grid
    shortcut's included, and equals a fresh call's."""
    three, one = _moving_cases()
    first = propagate(*three[:6], doppler=three[6])
    kept = first.samples.tobytes()
    capture = np.zeros((1, 3, 2, 200), dtype=complex)  # trials x slots x APs x samples
    into = propagate(*three[:6], doppler=three[6], out=capture[..., 1, :])
    assert into.samples.base is capture
    assert capture[..., 1, :].tobytes() == kept and not capture[..., 0, :].any()
    bearings = _grid_bearings()
    rng = trial_rng(8, "field")
    los = rng.uniform(-1.0, 1.0, (16, 1))
    paths = draw_multipath(ChannelConfig(multipath_ratio=0.6), rng, (16,))
    args = (paths, np.sin(los), AP, drive_for(np.arange(8.0), 4))
    field = sweep_response(*args)
    field_bytes = field.tobytes()
    second = propagate(*one[:6], doppler=one[6])
    assert _grid_bearings().tobytes() == bearings.tobytes()
    assert not np.shares_memory(sweep_response(*args), field)
    assert second.samples.shape == (1, 200)
    propagate(*three[:6], doppler=False)
    assert first.samples.tobytes() == kept
    assert capture[..., 1, :].tobytes() == kept
    assert field.tobytes() == field_bytes
    again = propagate(*one[:6], doppler=one[6])
    assert again.samples.tobytes() == second.samples.tobytes()
    assert not np.shares_memory(again.samples, second.samples)


def test_propagate_in_threads_gives_the_serial_bytes():
    """Each thread has its own buffers: four threads (more than this
    suite's two cores) calling propagate at once, each alternating two
    shapes with a grid shortcut call between, with the interpreter
    switching threads every microsecond, get the bytes of serial calls
    every time."""
    cases = _moving_cases()
    serial = [propagate(*c[:6], doppler=c[6]).samples.tobytes()
              for c in cases]
    grid = _grid_bearings().tobytes()
    start = threading.Barrier(4)
    same = [[] for _ in range(4)]  # a thread that raises leaves its list short

    def run(k):
        start.wait()
        for i in range(20):
            c = (i + k) % 2
            got = propagate(*cases[c][:6], doppler=cases[c][6])
            same[k].append(got.samples.tobytes() == serial[c]
                           and _grid_bearings().tobytes() == grid)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert same == [[True] * 20] * 4
