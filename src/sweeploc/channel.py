"""Downlink channel: multipath draws, field synthesis, Doppler, noise.

Fields are complex baseband samples in sqrt-milliwatt units, so |s|^2 is
instantaneous received power in mW. The line-of-sight path tracks the
moving receiver; reflected paths keep fixed arrival bearings and excess
phases for the lifetime of one PathSet draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import (ApConfig, ChannelConfig, ConfigError, GeometryError,
                       Position, Trajectory, free_space_loss_db, wrap_angle)
from .transmitter import SweepSchedule


def phased_sum(x: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Array response sum_i x[i] * drive[i] of antenna-major steering
    vectors x (N x ... x rows) under an antenna x row drive matrix. The
    last axis of x pairs each row with its own drive column; at size 1 it
    broadcasts, which makes the product x.T @ drive. The antennas stay on
    the outer axis, so every product runs over whole rows."""
    return np.einsum("i...,i...->...", x, drive)


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


def _steering(paths: PathSet, ks: slice, bearing: np.ndarray, ap: ApConfig,
              link: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Steering vectors of paths[ks] as weights times antenna phase factors;
    their product is antennas x ... x paths x rows. bearing and link
    broadcast against ... x paths x rows."""
    phase = 2.0 * math.pi * ap.spacing_wavelengths * np.sin(bearing)
    weight = (paths.amplitudes[..., ks, None] * link
              * np.exp(1j * paths.excess_phases_rad[..., ks, None]))
    antennas = np.arange(ap.antenna_count).reshape(
        (-1,) + (1,) * max(weight.ndim, phase.ndim))  # before every axis
    return weight, np.exp(1j * (antennas * phase))


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
    vary) runs over drive rows: output samples or sweep steps. Leading
    axes of paths (trials, or one AP's slots in successive rounds)
    broadcast against the leading axes of the LOS bearing and the link.
    exp(j*i*phi_k) is evaluated per row only for the LOS path, and once
    per draw for the reflected paths, whose weights carry the per-row link.
    Paths come out on the axis before the rows, unless sum_paths adds the
    steering vectors first, in path order (the field is linear in them).
    Otherwise the reflected paths are contracted one at a time, so no
    temporary holds every path's steering vectors for every row.
    """
    link = np.expand_dims(link, -2) if np.ndim(link) else link
    los = np.multiply(*_steering(paths, slice(0, 1), np.expand_dims(
        los_bearing_rad, -2), ap, link))[..., 0, :]
    if not sum_paths:  # contracted now, so its steering vectors are freed
        los = phased_sum(los, drive)
    weight, phases = _steering(paths, slice(1, None),
                               paths.bearings_rad[..., 1:, None], ap, link)
    if sum_paths:
        total = los
        for k in range(weight.shape[-2]):
            total = total + weight[..., k, :] * phases[..., k, :]
        return phased_sum(total, drive)
    # The LOS field has the widest shape: its bearing carries the geometry.
    fields = np.empty(los.shape[:-1] + (weight.shape[-2] + 1, los.shape[-1]),
                      dtype=complex)
    fields[..., 0, :] = los
    for k in range(weight.shape[-2]):
        fields[..., k + 1, :] = phased_sum(weight[..., k, :] * phases[..., k, :],
                                           drive)
    return fields


@dataclass(frozen=True)
class FieldTrace:
    """Sampled complex field at the receiver: a plain sample buffer.

    samples[s] is the total field at t0_s + s/sample_rate_hz. A buffer of
    several slots (see propagate) keeps them back to back, although they
    may be apart in time.
    """

    samples: np.ndarray
    sample_rate_hz: float
    t0_s: float


def propagate(schedule: SweepSchedule, paths: PathSet,
              where: Position | Trajectory, sample_rate_hz: float,
              t0_s: float | np.ndarray = 0.0,
              doppler: bool = False) -> FieldTrace:
    """Synthesize the received field for sweep periods of one AP.

    t0_s is one slot start time, or an (R,) array of them: R slots of this
    AP, one per TDMA round, from one call. paths is one draw for every
    slot, or one draw per slot on a leading axis of length R. The slots
    come out back to back in samples (R x period samples, flat). Each
    sample takes the drive of the schedule row active at its time within
    its slot; sweep_response turns that drive into per-path fields, with
    the LOS bearing following the receiver, which apply_doppler rotates if
    doppler is set and the receiver moves. Raises GeometryError if the
    receiver reaches the AP in any slot.
    """
    ap = schedule.ap
    waypoints = where.waypoints if isinstance(where, Trajectory) else ((0.0, where),)
    n = round(schedule.period_s * sample_rate_hz)
    t_local = np.arange(n) / sample_rate_hz
    starts = np.asarray(t0_s, dtype=float)
    t_abs = starts[..., None] + t_local

    row = np.searchsorted(schedule.starts_s, t_local + 1e-12, side="right") - 1
    row = np.clip(row, 0, len(schedule.starts_s) - 1)

    times = [t for t, _ in waypoints]
    px = np.interp(t_abs, times, [p.x for _, p in waypoints])
    py = np.interp(t_abs, times, [p.y for _, p in waypoints])
    dx = px - ap.position.x
    dy = py - ap.position.y
    dist = np.hypot(dx, dy)
    if np.any(dist <= 0):
        raise GeometryError("receiver trajectory passes through the AP")
    amp = 10.0 ** ((ap.tx_power_dbm - free_space_loss_db(dist, ap.carrier_hz)) / 20.0)
    los_bearing = wrap_angle(np.arctan2(dy, dx) - ap.boresight_rad)

    components = sweep_response(paths, los_bearing, ap,
                                schedule.drive[:, row], link=amp)
    if doppler and len(waypoints) > 1:
        components = apply_doppler(components, paths.bearings_rad, ap,
                                   px, py, dist)
    return FieldTrace(samples=components.sum(axis=-2).reshape(-1),
                      sample_rate_hz=sample_rate_hz, t0_s=float(starts.flat[0]))


def apply_doppler(components: np.ndarray, bearings_rad: np.ndarray,
                  ap: ApConfig, px: np.ndarray, py: np.ndarray,
                  dist: np.ndarray) -> np.ndarray:
    """Rotate each path's field by its geometric length change over time.

    components are propagate's per-path fields (... x paths x samples);
    px, py and dist are the receiver's position and AP distance at each
    sample (... x samples). The LOS length change is exact from geometry;
    reflected paths use the plane-wave approximation along their fixed
    arrival bearings. Motion toward a path's source shortens it and
    advances its phase, so the fade pattern moves. Each slot measures from
    its own first sample (dist - dist[..., :1]): the phase restarts at
    every slot.
    """
    dpx = px - px[..., :1]
    dpy = py - py[..., :1]
    rotated = np.empty_like(components)
    for k in range(bearings_rad.shape[-1]):
        if k == 0:
            delta_len = dist - dist[..., :1]
        else:
            alpha = ap.boresight_rad + bearings_rad[..., k, None]  # toward the source
            delta_len = -(np.cos(alpha) * dpx + np.sin(alpha) * dpy)
        rotated[..., k, :] = (components[..., k, :]
                              * np.exp(-2j * math.pi * delta_len / ap.wavelength_m))
    return rotated


def complex_noise(noise_power_dbm: float, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """n samples of circular complex Gaussian noise of the given total
    power: all n real parts are drawn first, then all n imaginary parts."""
    sigma = math.sqrt(10.0 ** (noise_power_dbm / 10.0) / 2.0)
    return rng.normal(0.0, sigma, n) + 1j * rng.normal(0.0, sigma, n)
