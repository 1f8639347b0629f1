"""End-to-end synthesis helpers and the vectorized estimation shortcut."""

import dataclasses
import math

import numpy as np
import pytest

from sweeploc.channel import PathSet, draw_multipath, propagate
from sweeploc.pipeline import (
    capture_track,
    detect_with_noise,
    draw_noise,
    draw_pathsets,
    fast_estimate_bearings,
    localize_once,
    synthesize_rounds,
)
from sweeploc.receiver import (EnvelopeTrace, LookupTable, Receiver,
                               envelope_detect, estimate_angle)
from sweeploc.scenario import (GeometryError, Position, Trajectory, trial_rng,
                               true_bearing)
from sweeploc.scenarios import bench_scenario, farm_scenario
from sweeploc.transmitter import build_sweep_schedule


def test_synthesize_rounds_buffer_length():
    scn = bench_scenario(seed=0)
    rng = trial_rng(0, "synth")
    where = Position(40.0, 10.0)
    pathsets = draw_pathsets(scn, where, rng)
    trace = synthesize_rounds(scn, pathsets, where, rounds=2)
    # two rounds x two APs x 50 ms at 4 kHz
    assert len(trace.samples) == 2 * 2 * 200
    env = envelope_detect(synthesize_rounds(scn, pathsets, where, rounds=1),
                          scn.detector)
    assert len(env.volts) == 400


def _noiseless(scn):
    """scn with its detector's output noise off (it has no channel noise)."""
    assert scn.channel.noise_power_dbm is None
    return dataclasses.replace(scn, detector=dataclasses.replace(
        scn.detector, output_noise_volts=0.0))


def test_detect_with_noise_adds_channel_then_detector_noise():
    scn = bench_scenario(seed=2)
    scn = dataclasses.replace(scn, channel=dataclasses.replace(
        scn.channel, noise_power_dbm=-45.0))
    where = Position(40.0, 10.0)
    field = synthesize_rounds(scn, draw_pathsets(scn, where, trial_rng(2, "p")),
                              where)
    noise = draw_noise(scn, len(field.samples), trial_rng(2, "n"))
    env = detect_with_noise(field, scn.detector, noise)
    noisy_field = dataclasses.replace(field, samples=field.samples + noise[0])
    expect = envelope_detect(noisy_field, scn.detector)
    assert env.volts.tobytes() == (expect.volts + noise[1]).tobytes()
    assert np.array_equal(env.floor_clipped, expect.floor_clipped)
    quiet = detect_with_noise(field, scn.detector, (None, None))
    assert quiet.volts.tobytes() == envelope_detect(field, scn.detector).volts.tobytes()


def test_localize_once_noiseless_near_truth():
    scn = _noiseless(bench_scenario(seed=3))
    table = LookupTable(scn.aps[0], scn.aps[1])
    where = Position(45.0, 25.0)
    rng = trial_rng(3, "fix")
    result = localize_once(scn, where, rng, table)
    assert result.ok
    err = math.hypot(result.fix.position.x - 45.0,
                     result.fix.position.y - 25.0)
    assert err < 3.0


def test_localize_once_keeps_receiver_state():
    scn = _noiseless(bench_scenario(seed=4))
    table = LookupTable(scn.aps[0], scn.aps[1])
    rx = Receiver(scn.aps, scn.sweep_mode, scn.smoothing, table=table)
    where = Position(45.0, 25.0)
    first = localize_once(scn, where, trial_rng(4, "a"), table, receiver=rx)
    second = localize_once(scn, where, trial_rng(4, "b"), table, receiver=rx)
    assert first.ok and second.ok
    # smoothing has converged toward the constant truth
    b1 = true_bearing(scn.aps[0], where)
    assert abs(rx.smoothed[0] - b1) < math.radians(2.0)


@pytest.mark.parametrize("nlos", [0, 1, 3])
@pytest.mark.parametrize("n_ant", [2, 3, 4, 5])
@pytest.mark.parametrize("mode", ["alg1", "uniform-theta"])
def test_fast_estimates_match_sample_domain_receiver(mode, n_ant, nlos):
    """The per-step argmax shortcut must reproduce the full time-domain
    pipeline exactly for static noiseless captures."""
    scn = bench_scenario(seed=7)
    ap = dataclasses.replace(scn.aps[0], antenna_count=n_ant)
    fs = scn.detector.sample_rate_hz
    channel = dataclasses.replace(scn.channel, multipath_ratio=0.6,
                                  nlos_path_count=nlos)
    rng = trial_rng(7, "parity", mode, n_ant, nlos)
    los = rng.uniform(-math.pi / 3, math.pi / 3, 100)
    paths = draw_multipath(channel, rng, los)
    fast = fast_estimate_bearings(ap, mode, fs, paths, los)

    sched = build_sweep_schedule(ap, mode)
    mismatches = 0
    for k, bearing in enumerate(los):
        pos = Position(ap.position.x + 10.0 * math.cos(bearing),
                       ap.position.y + 10.0 * math.sin(bearing))
        ps = PathSet(paths.amplitudes[k], paths.bearings_rad[k],
                     paths.excess_phases_rad[k])
        env = envelope_detect(propagate(sched, ps, pos, fs), scn.detector)
        est = estimate_angle(env, 0, ap, mode)
        if not math.isclose(est.raw_rad, fast[k], rel_tol=0, abs_tol=1e-12):
            mismatches += 1
    assert mismatches == 0


def test_speed_affects_doppler_only_when_enabled():
    scn = farm_scenario(seed=9)
    rng = trial_rng(9, "dop")
    traj = Trajectory.line(Position(40.0, 40.0), heading_rad=0.3,
                           speed_mps=5.0, duration_s=1.0)
    pathsets = draw_pathsets(scn, traj, rng)
    still = synthesize_rounds(scn, pathsets, traj, rounds=1)
    moving_scn = dataclasses.replace(
        scn, channel=dataclasses.replace(scn.channel, doppler_enabled=True))
    moving = synthesize_rounds(moving_scn, pathsets, traj, rounds=1)
    assert not np.allclose(still.samples, moving.samples)
    # magnitudes shift only subtly; the phase carries the motion
    assert np.allclose(np.abs(still.samples), np.abs(moving.samples),
                       rtol=0.3, atol=1e-9)


def _moving_farm(mode, doppler, seed):
    scn = farm_scenario(seed=seed)
    channel = dataclasses.replace(scn.channel, doppler_enabled=doppler,
                                  multipath_ratio=0.4)
    return dataclasses.replace(scn, sweep_mode=mode, channel=channel)


@pytest.mark.parametrize("doppler", [False, True])
@pytest.mark.parametrize("mode", ["alg1", "uniform-theta"])
def test_batched_rounds_equal_round_by_round_synthesis(mode, doppler):
    """40 rounds in one synthesize_rounds call, with one draw per round on
    a leading axis, equal 40 one-round calls concatenated, bit for bit."""
    scn = _moving_farm(mode, doppler, seed=5)
    rounds = 40
    round_s = len(scn.aps) * scn.aps[0].sweep_period_s
    traj = Trajectory.line(Position(40.0, 30.0), heading_rad=0.4,
                           speed_mps=9.1, duration_s=rounds * round_s)
    rng = trial_rng(5, "batched", mode, doppler)
    starts = [r * round_s for r in range(rounds)]
    draws, last = [], None
    for t0 in starts:
        pos = traj.position_at(t0)
        if last is None or pos.distance_to(last) >= scn.channel.nlos_redraw_distance_m:
            pathsets, last = draw_pathsets(scn, traj, rng, t0_s=t0), pos
        draws.append(pathsets)
    assert len({id(d) for d in draws}) > 1  # paths are redrawn on the way
    per_ap = [PathSet(*(np.stack([getattr(d[k], f) for d in draws])
                        for f in ("amplitudes", "bearings_rad",
                                  "excess_phases_rad")))
              for k in range(len(scn.aps))]
    batched = synthesize_rounds(scn, per_ap, traj, rounds=rounds, t0_s=0.0)
    single = [synthesize_rounds(scn, d, traj, rounds=1, t0_s=t0)
              for d, t0 in zip(draws, starts)]
    assert batched.t0_s == single[0].t0_s
    assert batched.samples.tobytes() == np.concatenate(
        [tr.samples for tr in single]).tobytes()


@pytest.mark.parametrize("noise_dbm", [None, -50.0])
def test_capture_track_rounds_start_where_the_round_starts(noise_dbm):
    scn = _moving_farm("alg1", True, seed=6)
    scn = dataclasses.replace(scn, channel=dataclasses.replace(
        scn.channel, noise_power_dbm=noise_dbm))
    traj = Trajectory.line(Position(40.0, 30.0), heading_rad=0.4,
                           speed_mps=5.0, duration_s=1.0)
    env = capture_track(scn, traj, trial_rng(6, "track"), rounds=5)
    assert env.t0_s.tolist() == [r * 0.1 for r in range(5)]
    assert env.volts.shape == env.floor_clipped.shape == (5, 400)
    rx = Receiver(scn.aps[:2], scn.sweep_mode, scn.smoothing)
    assert all(result.ok for result in rx.scan(env))


def _scan_both_ways(scn, traj, rng):
    """One Receiver.scan over a 40-round capture, and process_buffer on
    each round in turn with a second receiver: results and receiver state
    must be equal."""
    env = capture_track(scn, traj, rng, rounds=40)
    batched_rx, single_rx = (Receiver(scn.aps[:2], scn.sweep_mode,
                                      scn.smoothing) for _ in range(2))
    batched = batched_rx.scan(env)
    single = [single_rx.process_buffer(EnvelopeTrace(
        env.volts[r], env.sample_rate_hz, float(env.t0_s[r]),
        env.floor_clipped[r])) for r in range(40)]
    # detections, raw and smoothed bearings, peaks, timestamps, fixes and
    # low_confidence, all compared exactly
    assert batched == single
    assert batched_rx.smoothed == single_rx.smoothed
    assert batched_rx.fixes == single_rx.fixes
    return batched


@pytest.mark.parametrize("speed", [0.0, 9.1])
@pytest.mark.parametrize("mode", ["alg1", "uniform-theta"])
def test_batched_receiver_equals_round_by_round(mode, speed):
    scn = _moving_farm(mode, True, seed=8)
    start = Position(50.0, 40.0)
    traj = (Trajectory.line(start, 0.4, speed, 4.0) if speed
            else Trajectory.stationary(start))
    results = _scan_both_ways(scn, traj, trial_rng(8, "scan", mode, speed))
    assert sum(r.ok for r in results) >= 30


@pytest.mark.parametrize("track", ["diagonal", "outbound"])
def test_batched_receiver_equals_round_by_round_with_misses(track):
    """Rounds that miss AP 1, miss AP 2 or give a low-confidence fix:
    detector noise on a track along the line through both APs (nearly
    parallel bearings), and on one that flies out of the field."""
    scn = _moving_farm("alg1", True, seed=3)
    if track == "diagonal":
        traj = Trajectory.line(Position(55.0, 5.0), math.atan2(45.0, -60.0),
                               9.1, 4.0)
        noise = 1e-3
    else:
        traj = Trajectory.line(Position(60.0, 30.0), math.pi / 2, 36.4, 4.0)
        noise = 3e-4
    scn = dataclasses.replace(scn, detector=dataclasses.replace(
        scn.detector, output_noise_volts=noise))
    results = _scan_both_ways(scn, traj, trial_rng(3, "x", track))
    missed_ap1 = sum(r.detections[0] is None for r in results)
    missed_ap2 = sum(r.detections[0] is not None and r.detections[1] is None
                     for r in results)
    low = sum(r.low_confidence for r in results)
    assert sum(r.ok for r in results) > 0
    if track == "diagonal":
        assert missed_ap2 > 0 and low > 0
    else:
        assert missed_ap1 > 0


@pytest.mark.parametrize("doppler", [False, True])
def test_batched_synthesis_checks_geometry_in_a_later_slot(doppler):
    scn = _moving_farm("alg1", doppler, seed=2)
    ap = scn.aps[0]
    # reaches AP 1 at 0.3 s and stays there: every slot of round 0 is clear
    traj = Trajectory(((0.0, Position(ap.position.x, 30.0)),
                       (0.3, ap.position)))
    pathsets = draw_pathsets(scn, traj, trial_rng(2, "geometry"))
    synthesize_rounds(scn, pathsets, traj, rounds=1)
    with pytest.raises(GeometryError):
        synthesize_rounds(scn, pathsets, traj, rounds=5)
