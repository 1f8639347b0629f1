"""End-to-end synthesis helpers and the vectorized estimation shortcut."""

import contextlib
import dataclasses
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sweeploc import pipeline
from sweeploc.channel import FieldTrace, PathSet, draw_multipath, propagate
from sweeploc.pipeline import (
    capture_track,
    detect_with_noise,
    draw_noise,
    draw_pathsets,
    fast_estimate_bearings,
    noise_pair,
    synthesize_rounds,
)
from sweeploc.receiver import (EnvelopeTrace, Receiver,
                               envelope_detect, estimate_angle, find_preamble,
                               fix_2d, step_estimate_angles,
                               sweep_window_samples)
from sweeploc.scenario import (ApConfig, ChannelConfig, ConfigError,
                               DetectorConfig, GeometryError, Position,
                               Scenario, Trajectory, trial_rng, true_bearing_xy)
from sweeploc.scenarios import bench_scenario, farm_scenario
from sweeploc.transmitter import (drive_increments,
                                  period_samples, steering_values)

from helpers import detect_joined, stretch_noise


def test_synthesize_rounds_buffer_length():
    scn = bench_scenario(seed=0)
    rng = trial_rng(0, "synth")
    where = [Trajectory.stationary(Position(40.0, 10.0))]
    pathsets = draw_pathsets(scn, rng)
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


def test_synthesis_adds_into_the_capture_and_detection_adds_detector_noise():
    """synthesize_rounds adds the field into the capture noise_pair hands
    out, in place: into the channel noise drawn there, bit for bit the
    noiseless field plus that noise, or into zeros, bit for bit the field.
    detect_with_noise adds the detector noise to the volts, in the field's
    sample order; a capture drawn as stretches x samples is synthesized and
    detected in that shape."""
    scn = bench_scenario(seed=2)
    scn = dataclasses.replace(scn, channel=dataclasses.replace(
        scn.channel, noise_power_dbm=-45.0))
    where = [Trajectory.stationary(Position(40.0, 10.0))]
    pathsets = draw_pathsets(scn, trial_rng(2, "p"))
    clean = synthesize_rounds(scn, pathsets, where).samples
    n = len(clean)
    for shape, stretches in (((n,), [...]), ((2, n // 2), [0, 1])):
        capture, detector = noise = noise_pair(scn, shape)
        for r, at in enumerate(stretches):
            draw_noise(scn, noise, at, trial_rng(2, "n", r))
        channel = capture.reshape(-1).copy()
        field = synthesize_rounds(scn, pathsets, where, out=capture)
        assert field.samples is capture
        assert capture.reshape(-1).tobytes() == (clean + channel).tobytes()
        expect = envelope_detect(field, scn.detector).volts + detector
        env = detect_with_noise(field, scn.detector, detector)
        assert env.volts.shape == shape and env.volts.tobytes() == expect.tobytes()
    quiet = _noiseless(bench_scenario(seed=2))
    capture, detector = noise_pair(quiet, clean.shape)
    field = synthesize_rounds(quiet, pathsets, where, out=capture)
    assert detector is None and capture.tobytes() == clean.tobytes()
    env = detect_with_noise(field, quiet.detector, None)
    assert env.volts.tobytes() == envelope_detect(field, quiet.detector).volts.tobytes()


def test_a_noisy_capture_makes_no_third_complex_array():
    """A warm, noisy (-60 dBm), still 4 x 40 capture_track batch peaks at
    2.51 capture-sized complex arrays of traced memory (2.57 MB), as it
    does without channel noise: the field is added into the capture its
    channel noise was drawn into. Synthesized into an array of its own, it
    peaked at 3.12 (3.19 MB); added into a third array, at 3.51 (3.60 MB)."""
    farm = farm_scenario(seed=1)
    scn = dataclasses.replace(farm, channel=dataclasses.replace(
        farm.channel, noise_power_dbm=-60.0))
    trajs = [Trajectory.stationary(Position(20.0 + 10.0 * i, 30.0)) for i in range(4)]

    def batch():
        return capture_track(scn, trajs, [trial_rng(1, "peak", i) for i in range(4)], 40)

    capture_bytes = batch().volts.size * np.dtype(complex).itemsize  # and warm
    tracemalloc.start()
    try:
        batch()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.8 * capture_bytes


def test_still_capture_noiseless_fix_near_truth():
    """A channel draw per AP, a two-round capture's noise, its synthesis and
    detection, then one receiver's process_buffer: a fix within 3 m."""
    scn = _noiseless(bench_scenario(seed=3))
    rng = trial_rng(3, "fix")
    pathsets = draw_pathsets(scn, rng)
    capture, detector = noise = noise_pair(scn, (2 * 2 * 200,))  # 2 rounds of 2 slots
    draw_noise(scn, noise, ..., rng)
    field = synthesize_rounds(scn, pathsets, [Trajectory.stationary(Position(45.0, 25.0))],
                              out=capture)
    env = detect_with_noise(field, scn.detector, detector)
    fix = Receiver(scn).process_buffer(env).fix
    assert math.hypot(fix.x - 45.0, fix.y - 25.0) < 3.0


@pytest.mark.parametrize("nlos", [0, 1, 3])
@pytest.mark.parametrize("n_ant", [2, 3, 4, 5])
@pytest.mark.parametrize("mode", ["alg1", "uniform-theta"])
def test_fast_estimates_match_sample_domain_receiver(mode, n_ant, nlos):
    """The per-step argmax shortcut must reproduce the full time-domain
    pipeline exactly for static noiseless captures. One call at 5 antennas
    gives every smaller array's estimate: its row n_ant-2 matches the
    sample-domain receiver of an n_ant-antenna AP, and each row n-2 (n >= 2)
    is bit for bit the last row of a separate n-antenna call."""
    scn = bench_scenario(seed=7)
    ap = dataclasses.replace(scn.aps[0], antenna_count=n_ant)
    fs = scn.detector.sample_rate_hz
    channel = dataclasses.replace(scn.channel, multipath_ratio=0.6,
                                  nlos_path_count=nlos)
    rng = trial_rng(7, "parity", mode, n_ant, nlos)
    los = rng.uniform(-math.pi / 3, math.pi / 3, 100)
    paths = draw_multipath(channel, rng, los.shape)
    every = fast_estimate_bearings(dataclasses.replace(ap, antenna_count=5),
                                   mode, fs, paths, los)
    assert every.shape == (4, len(los))
    for n in range(2, 6):
        alone = fast_estimate_bearings(dataclasses.replace(ap, antenna_count=n),
                                       mode, fs, paths, los)
        assert alone.shape == (n - 1, len(los))
        assert every[n - 2].tobytes() == alone[-1].tobytes()
    fast = every[n_ant - 2]

    mismatches = 0
    for k, bearing in enumerate(los):
        pos = Position(ap.position.x + 10.0 * math.cos(bearing),
                       ap.position.y + 10.0 * math.sin(bearing))
        ps = PathSet(paths.amplitudes[k], paths.bearings_rad[k],
                     paths.excess_phases_rad[k])
        field = propagate(ap, mode, ps, [Trajectory.stationary(pos)], fs, np.zeros(1))
        env = envelope_detect(FieldTrace(field.samples[0], fs), scn.detector)
        est = estimate_angle(env, 0, ap, mode)
        if not math.isclose(est, fast[k], rel_tol=0, abs_tol=1e-12):
            mismatches += 1
    assert mismatches == 0


@st.composite
def los_scenarios(draw):
    """Two facing APs 20 m apart over the ranges of a random probe of
    Scenario: detector rates 2-16 kHz, sweep periods 25-100 ms, preambles
    2-8 ms, 16-256 steps, 2-8 antennas, spacing 0.2-0.5 wavelengths and
    either mode; LOS only, no noise. Rates, periods and preamble bits are
    whole samples, so only the step-dwell rule can still refuse one."""
    rate = 1000.0 * draw(st.integers(2, 16))
    bit_samples = draw(st.integers(max(1, math.ceil(rate / 4000)),
                                   math.floor(rate / 1000)))
    period = draw(st.integers(math.ceil(0.025 * rate), math.floor(0.1 * rate)))
    common = dict(antenna_count=draw(st.integers(2, 8)),
                  spacing_wavelengths=draw(st.floats(0.2, 0.5)),
                  sweep_period_s=period / rate,
                  preamble_duration_s=8 * bit_samples / rate,
                  sweep_step_rad=math.pi / draw(st.integers(16, 256)))
    aps = (ApConfig(Position(0.0, 0.0), 0.0, preamble_id=1, **common),
           ApConfig(Position(20.0, 0.0), math.pi, preamble_id=2, **common))
    try:
        scn = Scenario(aps=aps, channel=ChannelConfig(multipath_ratio=0.0),
                       detector=DetectorConfig(sample_rate_hz=rate,
                                               output_noise_volts=0.0),
                       sweep_mode=draw(st.sampled_from(["alg1", "uniform-theta"])))
    except ConfigError:
        assume(False)
    return scn, Position(draw(st.floats(5.0, 15.0)), draw(st.floats(-8.0, 8.0)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(los_scenarios())
def test_los_scan_picks_the_nearest_sweep_step(case):
    """For every accepted configuration, a LOS-only static noiseless capture
    gives each AP's raw bearing as the estimate of the sweep step nearest
    the true bearing, within half a step in the mode's sweep variable: the
    increment, so the sine, for uniform-theta; the angle for alg1, up to
    the sine's curvature over one step (the array compares steps by sine).
    The raw bearing itself reads the sweep map at the step's first sample,
    up to one sample past the step's commanded value. And, unless two steps
    tie, fast_estimate_bearings' last row gives the same raw bearing."""
    scn, where = case
    env = envelope_detect(synthesize_rounds(
        scn, draw_pathsets(scn, trial_rng(0, "los-only")),
        [Trajectory.stationary(where)], rounds=2), scn.detector)
    scan = Receiver(scn).scan(env)
    assert scan.found.all()
    rate = scn.detector.sample_rate_hz
    for k, ap in enumerate(scn.aps):
        truth = true_bearing_xy(ap, where.x, where.y)
        raw = scan.raw_rad[0, k]
        fast = fast_estimate_bearings(ap, scn.sweep_mode, rate,
                                      PathSet([[]], [[]], [[]]), [truth])
        assert fast.shape == (ap.antenna_count - 1, 1)
        # two steps equally near the truth tie, and rounding, which the two
        # paths do differently, picks one: both are checked below
        phase = (2 * math.pi * ap.spacing_wavelengths * math.sin(truth)
                 - drive_increments(ap, scn.sweep_mode))
        response = np.sort(np.abs(np.exp(1j * np.outer(
            phase, np.arange(ap.antenna_count))).sum(axis=1)))
        if response[-1] - response[-2] > 1e-9 * response[-1]:
            assert fast[-1, 0] == raw
        (step,) = np.flatnonzero(step_estimate_angles(ap, scn.sweep_mode, rate) == raw)
        commanded = steering_values(ap, scn.sweep_mode)[step]
        n = ap.sweep_step_count
        if scn.sweep_mode == "uniform-theta":
            sine = commanded / (2 * math.pi * ap.spacing_wavelengths)
            half = 1 / (2 * n * ap.spacing_wavelengths)
            assert abs(sine - math.sin(truth)) <= half + 1e-12
        else:
            half = ap.sweep_step_rad / 2
            curvature = 1 + half * math.tan(abs(truth) + 2 * half)
            assert abs(commanded - truth) <= half * curvature + 1e-12


def test_speed_affects_doppler_only_when_enabled():
    scn = farm_scenario(seed=9)
    rng = trial_rng(9, "dop")
    traj = Trajectory.line(Position(40.0, 40.0), heading_rad=0.3,
                           speed_mps=5.0, duration_s=1.0)
    pathsets = draw_pathsets(scn, rng)
    still = synthesize_rounds(scn, pathsets, [traj], rounds=1)
    moving_scn = dataclasses.replace(
        scn, channel=dataclasses.replace(scn.channel, doppler_enabled=True))
    moving = synthesize_rounds(moving_scn, pathsets, [traj], rounds=1)
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
    a leading axis, equal, bit for bit, the rounds made one at a time: one
    propagate call per AP slot at its own start time, in TDMA order."""
    scn = _moving_farm(mode, doppler, seed=5)
    rounds = 40
    traj = Trajectory.line(Position(40.0, 30.0), heading_rad=0.4,
                           speed_mps=9.1, duration_s=rounds * scn.round_s)
    rng = trial_rng(5, "batched", mode, doppler)
    starts = [r * scn.round_s for r in range(rounds)]
    draws, last = [], None
    for t0 in starts:
        pos = Position(*map(float, traj.positions_at(t0)))
        if last is None or pos.distance_to(last) >= scn.channel.nlos_redraw_distance_m:
            pathsets, last = draw_pathsets(scn, rng), pos
        draws.append(pathsets)
    assert len({id(d) for d in draws}) > 1  # paths are redrawn on the way
    per_ap = [PathSet(*(np.stack([getattr(d[k], f) for d in draws])
                        for f in ("amplitudes", "bearings_rad",
                                  "excess_phases_rad")))
              for k in range(len(scn.aps))]
    batched = synthesize_rounds(scn, per_ap, [traj], rounds=rounds)
    period = scn.aps[0].sweep_period_s
    single = [propagate(ap, mode, d[k], [traj], scn.detector.sample_rate_hz,
                        np.array([t0 + k * period]), doppler=doppler).samples
              for d, t0 in zip(draws, starts) for k, ap in enumerate(scn.aps)]
    assert batched.samples.tobytes() == np.concatenate(single).tobytes()


@pytest.mark.parametrize("noise_dbm", [None, -50.0])
def test_capture_track_rounds_start_where_the_round_starts(noise_dbm):
    scn = _moving_farm("alg1", True, seed=6)
    scn = dataclasses.replace(scn, channel=dataclasses.replace(
        scn.channel, noise_power_dbm=noise_dbm))
    traj = Trajectory.line(Position(40.0, 30.0), heading_rad=0.4,
                           speed_mps=5.0, duration_s=1.0)
    env = capture_track(scn, [traj], [trial_rng(6, "track")], rounds=5)
    assert env.t0_s.tolist() == [r * 0.1 for r in range(5)]
    assert env.volts.shape == (1, 5, 400)
    rx = Receiver(scn)
    assert not np.isnan(rx.scan(env).x_m).any()


@pytest.mark.parametrize("noise_dbm", [None, -50.0])
def test_capture_track_maps_redraws_as_draw_multipath_does(noise_dbm,
                                                           monkeypatch):
    """capture_track takes only each redraw's uniforms from rng and maps
    them all at once. Its paths equal per-redraw draw_multipath calls
    (draw_pathsets), its capture equals one built round by round from
    those and each round's noise drawn into fresh arrays and joined
    (helpers.stretch_noise, detect_joined), bit for bit, and it leaves rng
    where they do."""
    scn = _moving_farm("alg1", True, seed=4)
    scn = dataclasses.replace(scn, channel=dataclasses.replace(
        scn.channel, noise_power_dbm=noise_dbm))
    rounds = 40
    traj = Trajectory.line(Position(40.0, 30.0), heading_rad=0.4,
                           speed_mps=9.1, duration_s=rounds * scn.round_s)
    key = "quiet" if noise_dbm is None else "noisy"
    batched_rng, single_rng = trial_rng(4, "order", key), trial_rng(4, "order", key)
    synthesized = []

    def spy(scn, pathsets, *args, **kwargs):
        synthesized.append(pathsets)
        return synthesize_rounds(scn, pathsets, *args, **kwargs)
    monkeypatch.setattr(pipeline, "synthesize_rounds", spy)
    env = capture_track(scn, [traj], [batched_rng], rounds)

    n = env.volts.shape[-1]
    draws, noises, last = [], [], None
    for r in range(rounds):
        t0 = r * scn.round_s
        pos = Position(*map(float, traj.positions_at(t0)))
        if last is None or pos.distance_to(last) >= scn.channel.nlos_redraw_distance_m:
            pathsets, last = draw_pathsets(scn, single_rng), pos
        draws.append(pathsets)
        noises.append(stretch_noise(scn, n, single_rng))
    assert len({id(d) for d in draws}) > rounds // 3  # redrawn on the way
    fields = ("amplitudes", "bearings_rad", "excess_phases_rad")
    per_ap = [PathSet(*(np.stack([getattr(d[k], f) for d in draws])
                        for f in fields)) for k in range(len(scn.aps))]
    for got, want in zip(synthesized[0], per_ap, strict=True):
        for f in fields:  # the batch of one on a leading trials axis
            assert getattr(got, f).shape == (1,) + getattr(want, f).shape
            assert getattr(got, f).tobytes() == getattr(want, f).tobytes()
    want = detect_joined(synthesize_rounds(scn, per_ap, [traj], rounds),
                         scn.detector, noises)
    assert env.volts.tobytes() == want.tobytes()
    assert batched_rng.bit_generator.state == single_rng.bit_generator.state


def test_capture_track_rows_step_by_the_round():
    """APs with 40 ms periods: a round is one 160-sample slot per AP, 40 ms
    with one AP and 80 ms with two."""
    bench = bench_scenario(seed=7)
    aps = tuple(dataclasses.replace(ap, sweep_period_s=0.04) for ap in bench.aps)
    traj = Trajectory.line(Position(40.0, 10.0), heading_rad=0.4,
                           speed_mps=5.0, duration_s=1.0)
    for count in (1, 2):
        scn = dataclasses.replace(bench, aps=aps[:count])
        assert scn.round_s == count * 0.04
        env = capture_track(scn, [traj], [trial_rng(7, "track")], rounds=4)
        assert env.t0_s.tolist() == [r * scn.round_s for r in range(4)]
        assert env.volts.shape == (1, 4, count * 160)


@pytest.mark.parametrize("rounds,count,rng_count", [
    (0, 1, 1), (-1, 1, 1), (40, 0, 0), (40, 2, 1), (40, 1, 2)])
def test_capture_track_refuses_before_any_draw(rounds, count, rng_count):
    """No rounds, no trials, or not one rng per trajectory: ConfigError,
    with every rng left where it was."""
    scn = _moving_farm("alg1", True, seed=4)
    trajs = [Trajectory.stationary(Position(40.0, 30.0))] * count
    rngs = [trial_rng(4, "refused", k) for k in range(rng_count)]
    with pytest.raises(ConfigError):
        capture_track(scn, trajs, rngs, rounds)
    for k, rng in enumerate(rngs):
        assert rng.bit_generator.state == trial_rng(4, "refused", k).bit_generator.state


def _three_tracks(case, noise_dbm):
    """Three trials of one kind on the farm: moving (one flies out of the
    field, so its later rounds miss), standing still, or moving without
    reflections; each with its own rng."""
    scn = _moving_farm("alg1", True, seed=10)
    scn = dataclasses.replace(scn, channel=dataclasses.replace(
        scn.channel, noise_power_dbm=noise_dbm,
        multipath_ratio=0.0 if case == "no reflections" else 0.4))
    points = (Position(40.0, 30.0), Position(60.0, 30.0), Position(35.0, 60.0))
    trajs = [Trajectory.stationary(p) if case == "still"
             else Trajectory.line(p, heading, speed, 4.0)
             for p, heading, speed in zip(points, (0.4, math.pi / 2, -2.0),
                                          (9.1, 36.4, 3.0))]
    return scn, trajs, [trial_rng(10, "tracks", case, k) for k in range(3)]


@pytest.mark.parametrize("noise_dbm", [None, -50.0])
@pytest.mark.parametrize("case", ["moving", "still", "no reflections"])
def test_capture_track_batch_equals_one_trial_calls(case, noise_dbm):
    """A batch of three trials equals three one-trial calls, bit for bit,
    and leaves each trial's rng where its one-trial call does."""
    scn, trajs, rngs = _three_tracks(case, noise_dbm)
    batch = capture_track(scn, trajs, rngs, rounds=40)
    assert batch.volts.shape == (3, 40, 400)
    for k, (traj, rng) in enumerate(zip(trajs, _three_tracks(case, noise_dbm)[2])):
        one = capture_track(scn, [traj], [rng], rounds=40)
        assert one.volts.tobytes() == batch.volts[k].tobytes()
        assert one.t0_s.tobytes() == batch.t0_s.tobytes()
        assert rng.bit_generator.state == rngs[k].bit_generator.state


def test_scan_of_trials_equals_one_scan_per_trial():
    """Receiver.scan of trials x rounds equals a scan of each trial's
    rounds, bit for bit: each trial's bearings are smoothed from its own
    first found round, not carried over from the trial before it."""
    scn, trajs, rngs = _three_tracks("moving", -50.0)
    env = capture_track(scn, trajs, rngs, rounds=40)
    rx = Receiver(scn)
    scan = rx.scan(env)
    assert scan.found.shape == (3, 40, 2) and scan.x_m.shape == (3, 40)
    assert not scan.found[1].all() and scan.found[2, 0].all()  # misses in trial 1
    for k in range(3):
        one = rx.scan(dataclasses.replace(env, volts=env.volts[k]))
        for got, want in zip(dataclasses.astuple(scan), dataclasses.astuple(one),
                             strict=True):
            assert got[k].tobytes() == want.tobytes()
    assert scan.smoothed_rad[2, 0].tolist() == scan.raw_rad[2, 0].tolist()


def _scan_both_ways(scn, traj, rng):
    """One Receiver.scan over a 40-round capture, against the batch-of-one
    calls on each round in turn: find_preamble and estimate_angle give
    what the round finds, its raw bearings and (through the earliest peak
    of the sweep window) its peak times; a plain recurrence over the found
    rounds gives the smoothed bearings, and fix_2d of each round's pair the
    fixes, NaN where there is none. All compared exactly. A second scan
    call on the same receiver gives the same arrays, bit for bit."""
    env = capture_track(scn, [traj], [rng], rounds=40)
    env = dataclasses.replace(env, volts=env.volts[0])  # one track's rows
    rx = Receiver(scn)
    scan = rx.scan(env)
    for got, want in zip(dataclasses.astuple(rx.scan(env)),
                         dataclasses.astuple(scan), strict=True):
        assert got.tobytes() == want.tobytes()
    rate, (rows, n) = env.sample_rate_hz, env.volts.shape
    period = period_samples(scn.aps[0], rate)
    w = scn.smoothing
    smoothed = [None, None]
    for r in range(rows):
        row = EnvelopeTrace(env.volts[r], rate, float(env.t0_s[r]))
        # AP 1 with two whole periods after it, AP 2 within the next one
        start1 = find_preamble(row, scn.aps[0], 0, n - 2 * period + 1)
        start2 = None if start1 is None else find_preamble(
            row, scn.aps[1], start1 + period,
            min(start1 + 2 * period - 1, n - period + 1))
        starts = (start1, start2)
        assert scan.found[r].tolist() == [s is not None for s in starts]
        for which, start in enumerate(starts):
            got = (scan.raw_rad[r, which], scan.smoothed_rad[r, which],
                   scan.timestamp_s[r, which])
            if start is None:
                assert np.isnan(got).all()
                continue
            ap = scn.aps[which]
            raw = estimate_angle(row, start, ap, scn.sweep_mode)
            first, stop = sweep_window_samples(ap, rate)
            peak = start + first + int(np.argmax(
                row.volts[start + first:start + stop]))
            prev = smoothed[which]
            smoothed[which] = raw if prev is None else w * prev + (1 - w) * raw
            assert got == (raw, smoothed[which], row.t0_s + peak / rate)
        fix = (float("nan"), float("nan"))
        if start2 is not None:
            fix = fix_2d(smoothed[0], smoothed[1], rx.table)
        assert np.array_equal([scan.x_m[r], scan.y_m[r]], fix, equal_nan=True)
    return scan


@pytest.mark.parametrize("speed", [0.0, 9.1])
@pytest.mark.parametrize("mode", ["alg1", "uniform-theta"])
def test_batched_receiver_equals_round_by_round(mode, speed):
    scn = _moving_farm(mode, True, seed=8)
    start = Position(50.0, 40.0)
    traj = (Trajectory.line(start, 0.4, speed, 4.0) if speed
            else Trajectory.stationary(start))
    scan = _scan_both_ways(scn, traj, trial_rng(8, "scan", mode, speed))
    assert np.isfinite(scan.x_m).sum() >= 30


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
    scan = _scan_both_ways(scn, traj, trial_rng(3, "x", track))
    found, fixed = scan.found, np.isfinite(scan.x_m)
    missed_ap1 = (~found[:, 0]).sum()
    missed_ap2 = (found[:, 0] & ~found[:, 1]).sum()
    low = (found[:, 1] & ~fixed).sum()
    assert fixed.sum() > 0
    if track == "diagonal":
        assert missed_ap2 > 0 and low > 0
    else:
        assert missed_ap1 > 0


@pytest.mark.parametrize("doppler", [False, True])
def test_batched_synthesis_checks_geometry_in_a_later_slot(doppler):
    scn = _moving_farm("alg1", doppler, seed=2)
    ap, rate = scn.aps[1], scn.detector.sample_rate_hz
    # reaches AP 2 at the last sample of five rounds, its slot in round 4:
    # every slot of round 0 is clear
    last = 4 * scn.round_s + ap.sweep_period_s + (period_samples(ap, rate) - 1) / rate
    trajs = [Trajectory(((0.0, Position(30.0, ap.position.y)), (last, ap.position)))]
    pathsets = draw_pathsets(scn, trial_rng(2, "geometry"))
    synthesize_rounds(scn, pathsets, trajs, rounds=1)
    with pytest.raises(GeometryError):
        synthesize_rounds(scn, pathsets, trajs, rounds=5)


def test_readme_quick_fix_example_finds_a_fix():
    """The README's python example runs as written, and the fix it prints
    is the Position (47.67, 9.70)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(block, namespace)
    fix = namespace["result"].fix
    assert (round(fix.x, 2), round(fix.y, 2)) == (47.67, 9.70)
    assert printed.getvalue().startswith("Position(")
