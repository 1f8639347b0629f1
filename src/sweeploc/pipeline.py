"""End-to-end glue: schedules through channel to envelope buffers and fixes.

One TDMA round is every AP's sweep period back to back. A capture of two
rounds guarantees the scan logic finds a full period from each AP whatever
the buffer's phase relative to the schedule. Each AP's slots of all rounds
of a capture, or of every trial of a capture_track batch, come from one
propagate call (leading trials and rounds axes). A capture is one complex
array from its channel noise draw (noise_pair) to its detection; synthesis
adds the field into it, and detection adds the detector's output noise.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .channel import (FieldTrace, PathSet, complex_noise, draw_multipath,
                      map_multipath, path_uniforms, propagate, sweep_response)
from .receiver import EnvelopeTrace, envelope_detect, step_estimate_angles
from .scenario import (ApConfig, ConfigError, DetectorConfig, Scenario, Trajectory,
                       _normals)
from .transmitter import cached_schedule, period_samples


def synthesize_rounds(scn: Scenario, pathsets: list[PathSet],
                      trajs: Sequence[Trajectory], rounds: int = 2,
                      out: np.ndarray | None = None) -> FieldTrace:
    """Field of whole TDMA rounds of one trajectory per trial, one slot per
    AP per round, added into out (a capture that reshapes to trials x rounds
    x APs x samples per slot without a copy) or into flat zeros.

    Each AP's slots of all rounds of every trial come from one propagate
    call, which adds them at their places in TDMA order; the result equals
    synthesizing the rounds one at a time. pathsets[k] is AP k's draw for
    every round, or one draw per round on leading trials and rounds axes.
    Round 0 starts at time 0; the rounds follow back to back. A moving
    receiver must move through every slot. propagate applies Doppler
    (apply_doppler's per-slot phase ramps) when the scenario enables it and
    the receiver moves, from each slot's first sample.
    """
    rate = scn.detector.sample_rate_hz
    period = scn.aps[0].sweep_period_s
    round_starts = np.broadcast_to(np.arange(rounds) * scn.round_s,
                                   (len(trajs), rounds))
    # trials x rounds x APs x samples per slot: the slots in TDMA order
    shape = (len(trajs), rounds, len(scn.aps), period_samples(scn.aps[0], rate))
    samples = np.zeros(math.prod(shape), complex) if out is None else out
    capture = samples.reshape(shape)
    for k, ap in enumerate(scn.aps):
        propagate(ap, scn.sweep_mode, pathsets[k], trajs, rate,
                  round_starts + k * period, doppler=scn.channel.doppler_enabled,
                  out=capture[..., k, :])
    return FieldTrace(samples=samples, sample_rate_hz=rate)


def noise_pair(scn: Scenario, shape: tuple[int, ...]
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """A complex capture of zeros, into which draw_noise draws the channel
    noise, and its detector output noise, not yet drawn (None when the
    scenario has none), both of the given shape."""
    return (np.zeros(shape, complex),
            None if scn.detector.noise_sigma_volts <= 0 else np.empty(shape))


def draw_noise(scn: Scenario, noise: tuple, at, rng: np.random.Generator) -> None:
    """Draw one stretch of a capture's noise into noise_pair's arrays at
    index at (a contiguous stretch), before the capture's synthesis:
    channel noise into the capture (every real part, then every imaginary
    part), then detector output noise. A kind turned off draws nothing."""
    capture, detector = noise
    if scn.channel.noise_power_dbm is not None:
        complex_noise(scn.channel.noise_power_dbm, rng, capture[at])
    if detector is not None:
        _normals(rng, scn.detector.noise_sigma_volts, detector[at])


def detect_with_noise(field: FieldTrace, det: DetectorConfig,
                      detector: np.ndarray | None) -> EnvelopeTrace:
    """envelope_detect of a capture, with its detector output noise
    (noise_pair's, or None) added to the volts in the field's sample order."""
    env = envelope_detect(field, det)
    if detector is not None:  # in place: envelope_detect's volts are a fresh array
        np.add(env.volts, detector.reshape(env.volts.shape), out=env.volts)
    return env


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
    (draw_noise), into slot [i, r] of the trials x rounds capture (its
    noise_pair). map_multipath maps each AP's uniforms, per trial and round,
    into one PathSet on leading trials and rounds axes. One
    synthesize_rounds call adds every trial's rounds into it. ConfigError,
    before any draw, for fewer than one round, no trial, or not one rng per
    trial.
    """
    if rounds < 1 or not trajs or len(trajs) != len(rngs):
        raise ConfigError(f"need rounds >= 1 (got {rounds}) and one rng for each of at"
                          f" least one trajectory (got {len(rngs)} for {len(trajs)})")
    n = len(scn.aps) * period_samples(scn.aps[0], scn.detector.sample_rate_hz)  # a round
    starts = np.arange(rounds) * scn.round_s
    redraw_m = scn.channel.nlos_redraw_distance_m
    uniforms, noise = [], noise_pair(scn, (len(trajs), rounds, n))
    for i, (traj, rng) in enumerate(zip(trajs, rngs)):
        xs, ys = (v.tolist() for v in traj.positions_at(starts))
        for r in range(rounds):  # last: the round of the last draw
            if r == 0 or math.hypot(xs[last] - xs[r], ys[last] - ys[r]) >= redraw_m:
                last, draw = r, path_uniforms(scn.channel, rng, (len(scn.aps),))
            uniforms.append(draw)
            draw_noise(scn, noise, (i, r), rng)
    u = np.reshape(uniforms, (len(trajs), rounds) + draw.shape)  # ... x APs x 3 x reflections
    per_ap = [map_multipath(scn.channel, u[:, :, k]) for k in range(len(scn.aps))]
    field = synthesize_rounds(scn, per_ap, trajs, rounds, out=noise[0])
    env = detect_with_noise(field, scn.detector, noise[1])
    return EnvelopeTrace(volts=env.volts, sample_rate_hz=env.sample_rate_hz, t0_s=starts)


def fast_estimate_bearings(ap: ApConfig, mode: str, sample_rate_hz: float,
                           paths: PathSet,
                           los_bearings: np.ndarray) -> np.ndarray:
    """Vectorized bearing estimates for static noiseless trials: row n-2
    ((antennas - 1) x trials) is what the AP's first n >= 2 antennas report.

    paths holds one draw per trial on its leading axis. The field is
    evaluated once per sweep step, not per output sample, with the same
    kernel and drive matrix as propagate; the peak step after each antenna
    from the second on is mapped through the sample-domain receiver's
    time-to-angle inversion. For a static receiver above the detector floor
    this picks the same step, so the same bearing, as the full synthesis
    pipeline.
    """
    los = np.asarray(los_bearings, dtype=float)
    drive = cached_schedule(ap, mode)[:, -ap.sweep_step_count:]
    winners = sweep_response(paths, np.sin(los)[:, None], ap, drive,
                             each=lambda field: np.argmax(np.abs(field), axis=-1))
    return step_estimate_angles(ap, mode, sample_rate_hz)[winners]

