"""End-to-end glue: schedules through channel to envelope buffers and fixes.

One TDMA round is every AP's sweep period back to back. A capture of two
rounds guarantees the scan logic finds a full period from each AP whatever
the buffer's phase relative to the schedule. Each AP's slots of all rounds
of a capture, or of every trial of a capture_track batch, come from one
propagate call (leading trials and rounds axes). Every capture draws its
noise before synthesis and adds it around envelope detection.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .channel import (FieldTrace, PathSet, complex_noise, draw_multipath,
                      map_multipath, path_uniforms, propagate, sweep_response)
from .receiver import (EnvelopeTrace, LocalizationResult, LookupTable,
                       Receiver, detector_noise, envelope_detect,
                       step_estimate_angles)
from .scenario import (ApConfig, ConfigError, DetectorConfig, Position, Scenario,
                       Trajectory)
from .transmitter import cached_schedule, period_samples


def synthesize_rounds(scn: Scenario, pathsets: list[PathSet],
                      trajs: Sequence[Trajectory], rounds: int = 2) -> FieldTrace:
    """Noiseless field of whole TDMA rounds of one trajectory per trial:
    one slot per AP per round.

    Each AP's slots of all rounds of every trial come from one propagate
    call, which writes them into their places in TDMA order; the result
    equals synthesizing the rounds one at a time. pathsets[k] is AP k's
    draw for every round, or one draw per round on leading trials and
    rounds axes. Round 0 starts at time 0; the rounds follow back to back.
    A moving receiver must move through every slot. propagate applies
    Doppler (apply_doppler's per-slot phase ramps) when the scenario
    enables it and the receiver moves, from each slot's first sample.
    """
    rate = scn.detector.sample_rate_hz
    period = scn.aps[0].sweep_period_s
    round_starts = np.broadcast_to(np.arange(rounds) * scn.round_s,
                                   (len(trajs), rounds))
    # trials x rounds x APs x samples per slot: the slots in TDMA order
    capture = np.empty((len(trajs), rounds, len(scn.aps),
                        period_samples(scn.aps[0], rate)), dtype=complex)
    for k, ap in enumerate(scn.aps):
        propagate(ap, scn.sweep_mode, pathsets[k], trajs, rate,
                  round_starts + k * period, doppler=scn.channel.doppler_enabled,
                  out=capture[..., k, :])
    return FieldTrace(samples=capture.reshape(-1), sample_rate_hz=rate)


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
    if detector is not None:  # in place: envelope_detect's volts are a fresh array
        np.add(env.volts, detector, out=env.volts)
    return env


def _round_samples(scn: Scenario) -> int:
    """Samples in one TDMA round: one sweep period per AP."""
    return len(scn.aps) * period_samples(scn.aps[0], scn.detector.sample_rate_hz)


def draw_pathsets(scn: Scenario, rng: np.random.Generator) -> list[PathSet]:
    """One independent draw of reflected paths per AP, in AP order."""
    return [draw_multipath(scn.channel, rng) for _ in scn.aps]


def capture_track(scn: Scenario, trajs: list[Trajectory],
                  rngs: list[np.random.Generator], rounds: int) -> EnvelopeTrace:
    """Envelope captures of receivers that all move or all stand still:
    volts[i, r] is trial i's round r, and t0_s holds each round's start.

    Each trial draws from its rng round by round: in round 0, and once the
    receiver is nlos_redraw_distance_m from the last draw, a new multipath
    draw's uniforms for every AP (path_uniforms); then the round's noise
    (draw_noise). map_multipath maps each AP's uniforms, per trial and
    round, into one PathSet on leading trials and rounds axes. One
    synthesize_rounds call makes every trial's rounds, detected with their
    noise joined in trial and round order. ConfigError, before any draw,
    for fewer than one round, no trial, or not one rng per trial.
    """
    if rounds < 1 or not trajs or len(trajs) != len(rngs):
        raise ConfigError(f"need rounds >= 1 (got {rounds}) and one rng for each of at"
                          f" least one trajectory (got {len(rngs)} for {len(trajs)})")
    n = _round_samples(scn)
    starts = np.arange(rounds) * scn.round_s
    redraw_m = scn.channel.nlos_redraw_distance_m
    uniforms, noises = [], []
    for traj, rng in zip(trajs, rngs):
        xs, ys = (v.tolist() for v in traj.positions_at(starts))
        for r in range(rounds):  # last: the round of the last draw
            if r == 0 or math.hypot(xs[last] - xs[r], ys[last] - ys[r]) >= redraw_m:
                last, draw = r, path_uniforms(scn.channel, rng, (len(scn.aps),))
            uniforms.append(draw)
            noises.append(draw_noise(scn, n, rng))
    u = np.reshape(uniforms, (len(trajs), rounds) + draw.shape)  # ... x APs x 3 x reflections
    per_ap = [map_multipath(scn.channel, u[:, :, k]) for k in range(len(scn.aps))]
    noise = tuple(None if parts[0] is None else np.concatenate(parts)
                  for parts in zip(*noises))
    env = detect_with_noise(synthesize_rounds(scn, per_ap, trajs, rounds),
                            scn.detector, noise)
    return EnvelopeTrace(volts=env.volts.reshape(len(trajs), rounds, n),
                         sample_rate_hz=env.sample_rate_hz, t0_s=starts)


def fast_estimate_bearings(ap: ApConfig, mode: str, sample_rate_hz: float,
                           paths: PathSet,
                           los_bearings: np.ndarray) -> np.ndarray:
    """Vectorized bearing estimates for static noiseless trials: row n-1
    (antennas x trials) is what the AP's first n antennas report.

    paths holds one draw per trial on its leading axis. The field is
    evaluated once per sweep step, not per output sample, with the same
    kernel and drive matrix as propagate; the peak step after each antenna
    is mapped through the sample-domain receiver's time-to-angle
    inversion. For a static receiver above the detector floor this picks
    the same step, so the same bearing, as the full synthesis pipeline.
    """
    los = np.asarray(los_bearings, dtype=float)
    drive = cached_schedule(ap, mode)[:, -ap.sweep_step_count:]
    winners = sweep_response(paths, np.sin(los)[:, None], ap, drive,
                             each=lambda field: np.argmax(np.abs(field), axis=-1))
    return step_estimate_angles(ap, mode, sample_rate_hz)[winners]


def localize_once(scn: Scenario, pos: Position, rng: np.random.Generator,
                  table: LookupTable) -> LocalizationResult:
    """Draw a channel and the noise of a two-round capture of a receiver
    standing at pos, synthesize it, and run a fresh receiver over it."""
    pathsets = draw_pathsets(scn, rng)
    noise = draw_noise(scn, 2 * _round_samples(scn), rng)
    field = synthesize_rounds(scn, pathsets, [Trajectory.stationary(pos)])
    return Receiver(scn, table).process_buffer(
        detect_with_noise(field, scn.detector, noise))
