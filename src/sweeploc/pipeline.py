"""End-to-end glue: schedules through channel to envelope buffers and fixes.

One TDMA round is every AP's sweep period back to back. A capture of two
rounds guarantees the scan logic finds a full period from each AP whatever
the buffer's phase relative to the schedule. However many rounds a capture
or a moving trial spans, each AP's slots are synthesized in one propagate
call with a leading rounds axis. Every capture draws its noise before
synthesis and adds it around envelope detection.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .channel import (FieldTrace, PathSet, complex_noise, draw_multipath,
                      propagate, sweep_response)
from .receiver import (EnvelopeTrace, LocalizationResult, LookupTable,
                       Receiver, detector_noise, envelope_detect,
                       period_samples, step_estimate_angles)
from .scenario import (ApConfig, DetectorConfig, Position, Scenario,
                       Trajectory, true_bearing)
from .transmitter import cached_schedule


def synthesize_rounds(scn: Scenario, pathsets: list[PathSet],
                      where: Position | Trajectory, rounds: int = 2,
                      t0_s: float = 0.0) -> FieldTrace:
    """Noiseless field of whole TDMA rounds: one slot per AP per round.

    Each AP's slots of all rounds come from one propagate call, which are
    then interleaved in TDMA order; the result equals synthesizing the
    rounds one at a time. pathsets[k] is AP k's draw for every round, or
    one draw per round on a leading axis of length rounds. t0_s is the
    start of round 0; the rounds follow back to back. propagate applies
    Doppler when the scenario enables it and the receiver moves, measuring
    path lengths from each slot's first sample (see apply_doppler).
    """
    rate = scn.detector.sample_rate_hz
    period = scn.aps[0].sweep_period_s
    round_starts = t0_s + np.arange(rounds) * (len(scn.aps) * period)
    samples = [propagate(cached_schedule(ap, scn.sweep_mode), pathsets[k],
                         where, rate, t0_s=round_starts + k * period,
                         doppler=scn.channel.doppler_enabled
                         ).samples.reshape(rounds, -1)
               for k, ap in enumerate(scn.aps)]
    # rounds x APs x samples per slot: the slots in TDMA order
    return FieldTrace(samples=np.stack(samples, axis=1).reshape(-1),
                      sample_rate_hz=rate, t0_s=t0_s)


def draw_noise(scn: Scenario, n: int, rng: np.random.Generator
               ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Noise of an n-sample capture, drawn before its synthesis.

    Channel noise comes first (every real part, then every imaginary
    part), then detector output noise; each is None, drawing nothing,
    when the scenario turns it off.
    """
    dbm = scn.channel.noise_power_dbm
    field = None if dbm is None else complex_noise(dbm, n, rng)
    return field, detector_noise(scn.detector, n, rng)


def detect_with_noise(field: FieldTrace, det: DetectorConfig,
                      noise: tuple) -> EnvelopeTrace:
    """envelope_detect with draw_noise's noise: channel noise added to the
    field before detection, detector noise to the volts after it."""
    channel, detector = noise
    if channel is not None:
        field = replace(field, samples=field.samples + channel)
    env = envelope_detect(field, det)
    return env if detector is None else replace(env, volts=env.volts + detector)


def _round_samples(scn: Scenario) -> int:
    """Samples in one TDMA round: one sweep period per AP."""
    return len(scn.aps) * period_samples(scn.aps[0], scn.detector.sample_rate_hz)


def draw_pathsets(scn: Scenario, where: Position | Trajectory,
                  rng: np.random.Generator, t0_s: float = 0.0) -> list[PathSet]:
    """One independent multipath draw per AP, seeded with the true bearing."""
    pos = where if isinstance(where, Position) else where.position_at(t0_s)
    return [draw_multipath(scn.channel, rng, true_bearing(ap, pos))
            for ap in scn.aps]


def capture_track(scn: Scenario, traj: Trajectory, rng: np.random.Generator,
                  rounds: int) -> EnvelopeTrace:
    """Envelope capture of a moving receiver: row r is round r, and t0_s
    holds each row's start (r times the round length).

    Each round draws from rng in the order a round-by-round simulation
    would: a new multipath draw for every AP once the receiver is
    nlos_redraw_distance_m from the last draw (and in round 0), then the
    round's noise (draw_noise). All rounds are then synthesized in one
    synthesize_rounds call, with each round's draws on a leading rounds
    axis, and detected with the rounds' noise joined in round order.
    """
    round_s = len(scn.aps) * scn.aps[0].sweep_period_s
    starts = [r * round_s for r in range(rounds)]
    n = _round_samples(scn)
    redraw_m = scn.channel.nlos_redraw_distance_m
    draws, noises = [], []
    last_draw: Position | None = None
    for t0 in starts:
        pos = traj.position_at(t0)
        if last_draw is None or pos.distance_to(last_draw) >= redraw_m:
            pathsets = draw_pathsets(scn, traj, rng, t0_s=t0)
            last_draw = pos
        draws.append(pathsets)
        noises.append(draw_noise(scn, n, rng))
    per_ap = [PathSet(*(np.stack([getattr(d[k], f) for d in draws])
                        for f in ("amplitudes", "bearings_rad", "excess_phases_rad")))
              for k in range(len(scn.aps))]
    noise = tuple(None if parts[0] is None else np.concatenate(parts)
                  for parts in zip(*noises))
    env = detect_with_noise(synthesize_rounds(scn, per_ap, traj, rounds),
                            scn.detector, noise)
    return EnvelopeTrace(volts=env.volts.reshape(rounds, n),
                         sample_rate_hz=env.sample_rate_hz,
                         t0_s=np.array(starts),
                         floor_clipped=env.floor_clipped.reshape(rounds, n))


def fast_estimate_bearings(ap: ApConfig, mode: str, sample_rate_hz: float,
                           paths: PathSet,
                           los_bearings: np.ndarray) -> np.ndarray:
    """Vectorized bearing estimates for static noiseless trials.

    paths holds one draw per trial on its leading axis. The field is
    evaluated once per sweep step instead of once per output sample, with
    the same kernel and drive matrix as propagate, then the winning step is
    mapped through the time-to-angle inversion the sample-domain receiver
    applies. For a static receiver above the detector floor this picks the
    same step, and therefore the same bearing, as the full synthesis
    pipeline.
    """
    los = np.asarray(los_bearings, dtype=float)
    drive = cached_schedule(ap, mode).drive[:, -ap.sweep_step_count:]
    field = sweep_response(paths, los[:, None], ap, drive, sum_paths=True)
    winners = np.argmax(np.abs(field), axis=1)
    return step_estimate_angles(ap, mode, sample_rate_hz)[winners]


def localize_once(scn: Scenario, where: Position | Trajectory,
                  rng: np.random.Generator, table: LookupTable,
                  receiver: Receiver | None = None) -> LocalizationResult:
    """Draw a channel and the noise of a two-round capture, synthesize it,
    and run the receiver over it."""
    pathsets = draw_pathsets(scn, where, rng)
    noise = draw_noise(scn, 2 * _round_samples(scn), rng)
    env = detect_with_noise(synthesize_rounds(scn, pathsets, where, rounds=2),
                            scn.detector, noise)
    if receiver is None:
        receiver = Receiver(scn.aps[:2], scn.sweep_mode, scn.smoothing,
                            table=table)
    return receiver.process_buffer(env)
