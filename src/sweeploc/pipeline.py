"""End-to-end glue: schedules through channel to envelope buffers and fixes.

One TDMA round is every AP's sweep period back to back. A capture of two
rounds guarantees the scan logic finds a full period from each AP whatever
the buffer's phase relative to the schedule. However many rounds a capture
or a moving trial spans, each AP's slots are synthesized in one propagate
call with a leading rounds axis.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .channel import (FieldTrace, PathSet, add_noise, apply_doppler,
                      complex_noise, draw_multipath, propagate, sweep_response)
from .receiver import (EnvelopeTrace, LocalizationResult, LookupTable,
                       Receiver, detector_noise, envelope_detect,
                       step_estimate_angles)
from .scenario import ApConfig, Position, Scenario, Trajectory, true_bearing
from .transmitter import cached_schedule


def synthesize_rounds(scn: Scenario, pathsets: list[PathSet],
                      where: Position | Trajectory, rounds: int = 2,
                      t0_s: float = 0.0, oversample: int = 1,
                      noise_rng: np.random.Generator | None = None) -> FieldTrace:
    """Received field for whole TDMA rounds: one slot per AP per round.

    Each AP's slots of all rounds come from one propagate call (and one
    apply_doppler call when the receiver moves and Doppler is on), which
    are then interleaved in TDMA order; the result equals synthesizing the
    rounds one at a time. pathsets[k] is AP k's draw for every round, or
    one draw per round on a leading axis of length rounds. t0_s is the
    start of round 0; the rounds follow back to back. With noise_rng,
    channel noise is drawn once over the whole buffer: every real part, then every imaginary part. A trial
    that draws paths and noise round by round (capture_track) makes its
    draws first and passes no noise_rng. Doppler, when applied, measures
    path lengths from each slot's first sample (see apply_doppler).
    """
    rate = scn.detector.sample_rate_hz * oversample
    period = scn.aps[0].sweep_period_s
    moving = isinstance(where, Trajectory) and len(where.waypoints) > 1
    round_starts = t0_s + np.arange(rounds) * (len(scn.aps) * period)
    samples, kinds = [], []
    for k, ap in enumerate(scn.aps):
        tr = propagate(cached_schedule(ap, scn.sweep_mode), pathsets[k], where,
                       rate, t0_s=round_starts + k * period, ap_index=k)
        if scn.channel.doppler_enabled and moving:
            tr = apply_doppler(tr, where)
        samples.append(tr.samples.reshape(rounds, -1))
        kinds.append(tr.kinds.reshape(rounds, -1))
    # rounds x APs x samples per slot: the slots in TDMA order
    combined = FieldTrace(samples=np.stack(samples, axis=1).reshape(-1),
                          sample_rate_hz=rate, t0_s=t0_s,
                          kinds=np.stack(kinds, axis=1).reshape(-1))
    if noise_rng is not None and scn.channel.noise_power_dbm is not None:
        combined = add_noise(combined, scn.channel.noise_power_dbm, noise_rng)
    return combined


def capture_envelope(scn: Scenario, pathsets: list[PathSet],
                     where: Position | Trajectory, rounds: int = 2,
                     t0_s: float = 0.0, oversample: int = 1,
                     noise_rng: np.random.Generator | None = None,
                     detector_rng: np.random.Generator | None = None
                     ) -> EnvelopeTrace:
    field = synthesize_rounds(scn, pathsets, where, rounds, t0_s, oversample,
                              noise_rng)
    return envelope_detect(field, scn.detector, detector_rng)


def draw_pathsets(scn: Scenario, where: Position | Trajectory,
                  rng: np.random.Generator, t0_s: float = 0.0) -> list[PathSet]:
    """One independent multipath draw per AP, seeded with the true bearing."""
    pos = where if isinstance(where, Position) else where.position_at(t0_s)
    return [draw_multipath(scn.channel, rng, true_bearing(ap, pos))
            for ap in scn.aps]


def capture_track(scn: Scenario, traj: Trajectory, rng: np.random.Generator,
                  rounds: int) -> list[EnvelopeTrace]:
    """Envelope captures of a moving receiver, one per TDMA round.

    Each round draws from rng in the order a round-by-round simulation
    would: a new multipath draw for every AP once the receiver is
    nlos_redraw_distance_m from the last draw (and in round 0), then the
    round's channel noise (real parts, then imaginary parts), then its
    detector noise. The field of all rounds is synthesized afterwards in
    one synthesize_rounds call, with the draws of each round on a leading
    rounds axis. Round r's envelope starts at r times the round length.
    """
    round_s = len(scn.aps) * scn.aps[0].sweep_period_s
    starts = [r * round_s for r in range(rounds)]
    n = len(scn.aps) * round(scn.aps[0].sweep_period_s
                             * scn.detector.sample_rate_hz)
    noise_dbm = scn.channel.noise_power_dbm
    redraw_m = scn.channel.nlos_redraw_distance_m
    draws, field_noise, det_noise = [], [], []
    last_draw: Position | None = None
    for t0 in starts:
        pos = traj.position_at(t0)
        if last_draw is None or pos.distance_to(last_draw) >= redraw_m:
            pathsets = draw_pathsets(scn, traj, rng, t0_s=t0)
            last_draw = pos
        draws.append(pathsets)
        if noise_dbm is not None:
            field_noise.append(complex_noise(noise_dbm, n, rng))
        noise = detector_noise(scn.detector, n, rng)
        if noise is not None:
            det_noise.append(noise)
    per_ap = [PathSet(*(np.stack([getattr(d[k], f) for d in draws])
                        for f in ("amplitudes", "bearings_rad", "excess_phases_rad")))
              for k in range(len(scn.aps))]
    field = synthesize_rounds(scn, per_ap, traj, rounds)
    if field_noise:
        field = replace(field, samples=field.samples + np.concatenate(field_noise))
    env = envelope_detect(field, scn.detector)
    volts = env.volts
    if det_noise:
        volts = volts + np.concatenate(det_noise)
    return [EnvelopeTrace(volts=volts[r * n:(r + 1) * n],
                          sample_rate_hz=env.sample_rate_hz, t0_s=t0,
                          floor_clipped=env.floor_clipped[r * n:(r + 1) * n])
            for r, t0 in enumerate(starts)]


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
                  receiver: Receiver | None = None, rounds: int = 2,
                  with_noise: bool = True) -> LocalizationResult:
    """Draw a channel, synthesize a capture, and run the receiver over it."""
    pathsets = draw_pathsets(scn, where, rng)
    noise_rng = rng if with_noise else None
    det_rng = rng if with_noise else None
    env = capture_envelope(scn, pathsets, where, rounds=rounds,
                           noise_rng=noise_rng, detector_rng=det_rng)
    if receiver is None:
        receiver = Receiver(scn.aps[:2], scn.sweep_mode, scn.smoothing,
                            table=table)
    return receiver.process_buffer(env)
