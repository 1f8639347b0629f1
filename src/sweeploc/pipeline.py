"""End-to-end glue: schedules through channel to envelope buffers and fixes.

One TDMA round is every AP's sweep period back to back. A capture of two
rounds guarantees the scan logic finds a full period from each AP whatever
the buffer's phase relative to the schedule.
"""

from __future__ import annotations

import numpy as np

from .channel import (FieldTrace, PathSet, add_noise, apply_doppler,
                      concat_traces, draw_multipath, propagate, sweep_response)
from .receiver import (EnvelopeTrace, LocalizationResult, LookupTable,
                       Receiver, envelope_detect, step_estimate_angles)
from .scenario import ApConfig, Position, Scenario, Trajectory, true_bearing
from .transmitter import cached_schedule


def synthesize_rounds(scn: Scenario, pathsets: list[PathSet],
                      where: Position | Trajectory, rounds: int = 2,
                      t0_s: float = 0.0, oversample: int = 1,
                      noise_rng: np.random.Generator | None = None) -> FieldTrace:
    """Received field for whole TDMA rounds: one slot per AP per round."""
    rate = scn.detector.sample_rate_hz * oversample
    schedules = [cached_schedule(ap, scn.sweep_mode) for ap in scn.aps]
    period = scn.aps[0].sweep_period_s
    moving = isinstance(where, Trajectory) and len(where.waypoints) > 1
    traces = []
    for r in range(rounds):
        for k, (ap, sched) in enumerate(zip(scn.aps, schedules)):
            slot_t0 = t0_s + (r * len(scn.aps) + k) * period
            tr = propagate(sched, pathsets[k], where, rate, t0_s=slot_t0,
                           ap_index=k)
            if scn.channel.doppler_enabled and moving:
                tr = apply_doppler(tr, where)
            traces.append(tr)
    combined = concat_traces(traces)
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
