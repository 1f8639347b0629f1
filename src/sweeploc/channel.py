"""Downlink channel: multipath draws, field synthesis, noise, Doppler.

Fields are complex baseband samples in sqrt-milliwatt units, so |s|^2 is
instantaneous received power in mW. The line-of-sight path tracks the
moving receiver; reflected paths keep fixed arrival bearings and excess
phases for the lifetime of one PathSet draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .scenario import (ApConfig, ChannelConfig, ConfigError, GeometryError,
                       Position, Trajectory, free_space_loss_db, wrap_angle,
                       SPEED_OF_LIGHT)
from .transmitter import SweepSchedule


def phased_sum(x: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Array response sum_i x_i * drive[i, r] of steering vectors x (... x N)
    under an antenna x row drive matrix. A row axis of x, the one before
    the antennas, pairs each row with its own drive column; at size 1 it
    broadcasts, which makes the product x @ drive."""
    return np.einsum("...i,i...->...", x, drive)


@dataclass(frozen=True, eq=False)
class PathSet:
    """Propagation paths of one or more channel draws, as arrays.

    The last axis is paths, index 0 the line-of-sight path; an optional
    leading axis holds trials. Each path has a relative amplitude, an
    arrival bearing relative to boresight and an excess phase. The stored
    LOS bearing is nominal (the bearing at draw time): sweep_response takes
    the LOS bearing from geometry, while reflected-path bearings stay fixed.
    """

    amplitudes: np.ndarray
    bearings_rad: np.ndarray
    excess_phases_rad: np.ndarray

    def __post_init__(self) -> None:
        for name in ("amplitudes", "bearings_rad", "excess_phases_rad"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        amps = self.amplitudes
        if not amps.shape == self.bearings_rad.shape == self.excess_phases_rad.shape:
            raise ConfigError("path arrays must share one shape")
        if amps.ndim not in (1, 2) or amps.shape[-1] == 0:
            raise ConfigError("a path set needs at least the LOS path")
        if not (np.all(np.isfinite(amps)) and np.all(amps >= 0)):
            raise ConfigError("path amplitude must be finite and >= 0")
        if np.any(amps[..., 0] <= 0):
            raise ConfigError("LOS amplitude must be positive")


def draw_multipath(cfg: ChannelConfig, rng: np.random.Generator,
                   los_bearing_rad: float | np.ndarray = 0.0) -> PathSet:
    """Draw PathSets: LOS at unit amplitude plus scaled reflections.

    A scalar LOS bearing gives one draw, an (n,) array n draws on a
    leading trials axis. Reflection amplitudes are U(0,1] draws normalized
    so their sum equals multipath_ratio; bearings are i.i.d.
    U(-pi/2, pi/2); excess phases U[0, 2*pi). Each trial draws its
    amplitudes, then bearings, then phases, so n draws at once equal n
    draws in turn.
    """
    los = np.asarray(los_bearing_rad, dtype=float)[..., None]
    k = cfg.nlos_path_count if cfg.multipath_ratio != 0.0 else 0
    u = rng.random(los.shape[:-1] + (3, k))
    raw = 1.0 - u[..., 0, :]  # U(0, 1], cannot be zero
    amps = raw / raw.sum(axis=-1, keepdims=True) * cfg.multipath_ratio
    lo, hi = -math.pi / 2, math.pi / 2
    bearings = lo + (hi - lo) * u[..., 1, :]
    phases = 2.0 * math.pi * u[..., 2, :]
    return PathSet(np.concatenate([np.ones_like(los), amps], axis=-1),
                   np.concatenate([los, bearings], axis=-1),
                   np.concatenate([np.zeros_like(los), phases], axis=-1))


def sweep_response(paths: PathSet, los_bearing_rad: np.ndarray,
                   ap: ApConfig, drive: np.ndarray,
                   link: np.ndarray | float = 1.0,
                   sum_paths: bool = False) -> np.ndarray:
    """Complex field of each path under each drive row: steering @ drive.

    Path k's steering vector over antennas i is w_k * exp(j*i*phi_k), with
    phi_k = 2*pi*spacing*sin(b_k) and weight w_k = a_k*link*exp(j*psi_k).
    phased_sum contracts it with the drive matrix (SweepSchedule.drive);
    on a sweep row, exp(-j*i*inc), that gives the array-manifold sum
    w_k * sum_i exp(j*i*(phi_k - inc)) (Van Trees, Optimum Array
    Processing, ch. 2). The LOS bearing b_0 is los_bearing_rad, from
    geometry, never the stored nominal value.

    The last axis of drive (and of link and the LOS bearing, where they
    vary) runs over drive rows: output samples or sweep steps. A trials
    axis of paths broadcasts against it. Paths come out on the axis before
    the rows, unless sum_paths adds the steering vectors first (the field
    is linear in the paths).
    """
    los = np.expand_dims(los_bearing_rad, -2)
    is_los = np.arange(paths.amplitudes.shape[-1])[:, None] == 0
    bearings = np.where(is_los, los, paths.bearings_rad[..., None])
    weights = (paths.amplitudes[..., None] * link
               * np.exp(1j * paths.excess_phases_rad[..., None]))
    phases = 2.0 * math.pi * ap.spacing_wavelengths * np.sin(bearings)
    steering = weights[..., None] * np.exp(
        1j * np.multiply.outer(phases, np.arange(ap.antenna_count)))
    if sum_paths:
        steering = steering.sum(axis=-3)
    return phased_sum(steering, drive)


@dataclass(frozen=True)
class FieldTrace:
    """Sampled complex field at the receiver over one transmit slot.

    samples[s] is the total field at t0_s + s/sample_rate_hz; kinds[s]
    labels the active schedule row (0 silence, K_PREAMBLE, K_SWEEP).
    path_components holds the per-path fields (paths x samples) whose sum
    is the noiseless total; additive noise only affects samples.
    """

    samples: np.ndarray
    sample_rate_hz: float
    t0_s: float
    kinds: np.ndarray
    ap: ApConfig | None = None
    ap_index: int = -1
    paths: PathSet | None = None
    path_components: np.ndarray | None = None

    def times(self) -> np.ndarray:
        return self.t0_s + np.arange(len(self.samples)) / self.sample_rate_hz


def _as_trajectory(where: Position | Trajectory) -> Trajectory:
    if isinstance(where, Position):
        return Trajectory.stationary(where)
    return where


def _positions_at(traj: Trajectory, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    times = np.array([w[0] for w in traj.waypoints])
    xs = np.array([w[1].x for w in traj.waypoints])
    ys = np.array([w[1].y for w in traj.waypoints])
    return np.interp(t, times, xs), np.interp(t, times, ys)


def propagate(schedule: SweepSchedule, paths: PathSet,
              where: Position | Trajectory, sample_rate_hz: float,
              t0_s: float = 0.0, ap_index: int = 0) -> FieldTrace:
    """Synthesize the received field for one sweep period of one AP.

    Each sample takes the drive of the schedule row active at its time;
    sweep_response turns that drive into per-path fields, with the LOS
    bearing following the receiver.
    """
    ap = schedule.ap
    traj = _as_trajectory(where)
    n = round(schedule.period_s * sample_rate_hz)
    t_local = np.arange(n) / sample_rate_hz
    t_abs = t0_s + t_local

    row = np.searchsorted(schedule.starts_s, t_local + 1e-12, side="right") - 1
    row = np.clip(row, 0, len(schedule.starts_s) - 1)

    px, py = _positions_at(traj, t_abs)
    dx = px - ap.position.x
    dy = py - ap.position.y
    dist = np.hypot(dx, dy)
    if np.any(dist <= 0):
        raise GeometryError("receiver trajectory passes through the AP")
    amp = 10.0 ** ((ap.tx_power_dbm - free_space_loss_db(dist, ap.carrier_hz)) / 20.0)
    los_bearing = wrap_angle(np.arctan2(dy, dx) - ap.boresight_rad)

    components = sweep_response(paths, los_bearing, ap,
                                schedule.drive[:, row], link=amp)
    return FieldTrace(samples=components.sum(axis=0), sample_rate_hz=sample_rate_hz,
                      t0_s=t0_s, kinds=schedule.kinds[row], ap=ap,
                      ap_index=ap_index, paths=paths, path_components=components)


def silence_trace(duration_s: float, sample_rate_hz: float,
                  t0_s: float = 0.0) -> FieldTrace:
    n = round(duration_s * sample_rate_hz)
    return FieldTrace(samples=np.zeros(n, dtype=complex),
                      sample_rate_hz=sample_rate_hz, t0_s=t0_s,
                      kinds=np.zeros(n, dtype=np.int8))


def concat_traces(traces: Sequence[FieldTrace]) -> FieldTrace:
    """Join back-to-back slots (e.g. a TDMA round) into one buffer."""
    if not traces:
        raise ConfigError("nothing to concatenate")
    rate = traces[0].sample_rate_hz
    if any(tr.sample_rate_hz != rate for tr in traces):
        raise ConfigError("traces must share one sample rate")
    return FieldTrace(samples=np.concatenate([tr.samples for tr in traces]),
                      sample_rate_hz=rate, t0_s=traces[0].t0_s,
                      kinds=np.concatenate([tr.kinds for tr in traces]))


def add_noise(trace: FieldTrace, noise_power_dbm: float | None,
              rng: np.random.Generator) -> FieldTrace:
    """Add circular complex Gaussian noise of the given total power."""
    if noise_power_dbm is None:
        return trace
    sigma = math.sqrt(10.0 ** (noise_power_dbm / 10.0) / 2.0)
    noise = rng.normal(0.0, sigma, len(trace.samples)) \
        + 1j * rng.normal(0.0, sigma, len(trace.samples))
    return replace(trace, samples=trace.samples + noise)


def apply_doppler(trace: FieldTrace, trajectory: Trajectory) -> FieldTrace:
    """Rotate each path's phase by its geometric length change over time.

    The LOS length change is exact from geometry; reflected paths use the
    plane-wave approximation along their fixed arrival direction. Motion
    toward a path's source shortens it and advances its phase, so path
    phases drift relative to each other and the fade pattern moves.
    Apply before add_noise: the output is rebuilt from path components.
    """
    if trace.ap is None or trace.paths is None or trace.path_components is None:
        raise ConfigError("doppler needs a single-AP trace with path data")
    lam = SPEED_OF_LIGHT / trace.ap.carrier_hz
    t = trace.times()
    px, py = _positions_at(trajectory, t)
    ap = trace.ap
    dist = np.hypot(px - ap.position.x, py - ap.position.y)
    if np.any(dist <= 0):
        raise GeometryError("receiver trajectory passes through the AP")
    dpx = px - px[0]
    dpy = py - py[0]
    components = np.empty_like(trace.path_components)
    for k, bearing in enumerate(trace.paths.bearings_rad):
        if k == 0:
            delta_len = dist - dist[0]
        else:
            alpha = ap.boresight_rad + bearing  # toward the source
            delta_len = -(np.cos(alpha) * dpx + np.sin(alpha) * dpy)
        components[k] = trace.path_components[k] * np.exp(-2j * math.pi * delta_len / lam)
    return replace(trace, samples=components.sum(axis=0),
                   path_components=components)
