"""Downlink channel: multipath draws, field synthesis, Doppler, noise.

Fields are complex baseband samples in sqrt-milliwatt units, so |s|^2 is
instantaneous received power in mW. The line-of-sight path tracks the
moving receiver; reflected paths keep fixed arrival bearings and excess
phases for the lifetime of one PathSet draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .scenario import (ApConfig, ChannelConfig, ConfigError, GeometryError,
                       Position, Trajectory, _normals)
from .transmitter import SweepSchedule


def phased_sum(x: np.ndarray, drive: np.ndarray, each: Callable | None = None):
    """sum_i x[i] * drive[i] of antenna-major steering vectors x (N x ...
    x rows) and an N x rows drive (x's last axis may broadcast at size 1),
    added in antenna order in one buffer: after antenna n it holds an
    n-antenna array's sum, bit for bit. each, if given, is called on it
    after every antenna; its results come back stacked in place of the sum."""
    shape = np.broadcast_shapes(x.shape[1:], drive.shape[1:])
    # one allocation: as two, their pages went back to the OS on every call
    total, term = np.zeros((2,) + shape, dtype=complex)
    kept = []
    for xi, di in zip(x, drive):
        total += np.multiply(xi, di, out=term)
        if each is not None:
            kept.append(each(total))
    return total if each is None else np.stack(kept)


@dataclass(frozen=True, eq=False)
class PathSet:
    """Propagation paths of one or more channel draws, as arrays.

    The last axis is paths, index 0 the line-of-sight path; an optional
    leading axis holds trials. Each path has a relative amplitude, an
    arrival bearing relative to boresight and an excess phase. The stored
    LOS bearing is nominal (the bearing at draw time): propagate takes the
    LOS sine from geometry, while reflected-path bearings stay fixed.
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
    draws in turn. It maps (map_multipath) a draw of uniforms
    (path_uniforms); capture_track calls the two steps apart.
    """
    los = np.asarray(los_bearing_rad, dtype=float)
    return map_multipath(cfg, path_uniforms(cfg, rng, los.shape), los)


def path_uniforms(cfg: ChannelConfig, rng: np.random.Generator,
                  shape: tuple[int, ...]) -> np.ndarray:
    """The uniforms of draws of the given shape (shape x 3 x reflections)."""
    return rng.random(shape + (3, cfg.nlos_path_count if cfg.multipath_ratio else 0))


def map_multipath(cfg: ChannelConfig, u: np.ndarray,
                  los_bearing_rad: np.ndarray) -> PathSet:
    """The PathSet of draws from their uniforms and LOS bearings."""
    los = np.asarray(los_bearing_rad, dtype=float)[..., None]
    raw = 1.0 - u[..., 0, :]  # U(0, 1], cannot be zero
    amps = raw / raw.sum(axis=-1, keepdims=True) * cfg.multipath_ratio
    lo, hi = -math.pi / 2, math.pi / 2
    bearings = lo + (hi - lo) * u[..., 1, :]
    phases = 2.0 * math.pi * u[..., 2, :]
    return PathSet(np.concatenate([np.ones_like(los), amps], axis=-1),
                   np.concatenate([los, bearings], axis=-1),
                   np.concatenate([np.zeros_like(los), phases], axis=-1))


def _steering(paths: PathSet, ks: slice, sine: np.ndarray,
              ap: ApConfig) -> tuple[np.ndarray, np.ndarray]:
    """Steering vectors of paths[ks] as weights (... x paths x 1) times
    antenna factors (antennas x ... x paths x rows), from the sine of each
    path's bearing (broadcasting against ... x paths x rows). Antenna i's
    factor is the i-th power of exp(j*phi), by successive products: one
    complex exponential per path and row, not one per antenna."""
    phasor = np.exp(1j * (2.0 * math.pi * ap.spacing_wavelengths * sine))
    weight = (paths.amplitudes[..., ks, None]
              * np.exp(1j * paths.excess_phases_rad[..., ks, None]))
    factors = np.empty((ap.antenna_count,) + (1,) * (weight.ndim - phasor.ndim)
                       + phasor.shape, dtype=complex)  # antennas before every axis
    factors[0], factors[1] = 1.0, phasor
    for i in range(2, ap.antenna_count):
        np.multiply(factors[i - 1], phasor, out=factors[i])
    return weight, factors


def sweep_response(paths: PathSet, los_sine: np.ndarray,
                   ap: ApConfig, drive: np.ndarray, sum_paths: bool = False,
                   rows: np.ndarray | None = None, each: Callable | None = None):
    """Complex field of the paths under each drive row.

    Path k's steering vector over antennas i is w_k * exp(j*i*phi_k), with
    phi_k = 2*pi*spacing*sin(b_k) and weight w_k = a_k*exp(j*psi_k).
    phased_sum contracts it with the drive matrix (SweepSchedule.drive);
    on a sweep row, exp(-j*i*inc), that gives the array-manifold sum
    w_k * sum_i exp(j*i*(phi_k - inc)) (Van Trees, Optimum Array
    Processing, ch. 2). The LOS path takes sin(b_0) = los_sine, never the
    stored nominal bearing: propagate works the sine out from geometry.

    The output rows are the drive's columns, or the columns rows[s] for
    output samples s; the LOS sine's last axis, where it varies, runs over
    them. Leading axes of paths (trials, or one AP's slots in successive
    rounds) broadcast against its leading axes. sum_paths adds the weighted
    steering vectors first, in path order, into one field per output row
    (contracted by phased_sum with each). Otherwise it returns the LOS
    field per output row and the reflected paths' fields per drive column
    (... x paths x columns); equal draws on successive slots of a leading
    axis are contracted once.
    """
    per_row = drive if rows is None else drive[:, rows]
    los_weight, los = _steering(paths, slice(0, 1), np.expand_dims(los_sine, -2), ap)
    weight, factors = _steering(paths, slice(1, None),
                                np.sin(paths.bearings_rad[..., 1:, None]), ap)
    if sum_paths:
        total = (los_weight * los)[..., 0, :]
        for k in range(weight.shape[-2]):
            total = total + weight[..., k, :] * factors[..., k, :]
        return phased_sum(total, per_row, each)
    los = phased_sum(los[..., 0, :], per_row) * los_weight[..., 0, :]
    steer = weight * factors
    if steer.ndim == 4:  # a draw per slot, kept until a redraw: contract each once
        new = np.append(True, np.any(steer[:, 1:] != steer[:, :-1], axis=(0, 2, 3)))
        return los, phased_sum(steer[:, new], drive)[np.cumsum(new) - 1]
    return los, phased_sum(steer, drive)


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
    its slot. The LOS sine (dy*cos(b) - dx*sin(b)) / dist and the link
    amplitude 10**(P/20) * lambda / (4*pi*dist) follow the receiver in
    closed form. The reflected paths are added per schedule row and
    gathered once, or, with doppler set and a moving receiver, gathered
    and rotated by apply_doppler. Raises GeometryError if the receiver
    reaches the AP in any slot.
    """
    ap = schedule.ap
    waypoints = where.waypoints if isinstance(where, Trajectory) else ((0.0, where),)
    n = round(schedule.period_s * sample_rate_hz)
    t_local = np.arange(n) / sample_rate_hz
    starts = np.asarray(t0_s, dtype=float)
    t_abs = starts[..., None] + t_local

    row = np.searchsorted(schedule.starts_s, t_local + 1e-12, side="right") - 1

    rel = np.interp(t_abs, [t for t, _ in waypoints], [complex(
        p.x - ap.position.x, p.y - ap.position.y) for _, p in waypoints])
    dx, dy = rel.real, rel.imag
    dist = np.sqrt(dx * dx + dy * dy)
    if np.any(dist <= 0):
        raise GeometryError("receiver trajectory passes through the AP")
    los_sine = (dy * math.cos(ap.boresight_rad) - dx * math.sin(ap.boresight_rad)) / dist
    amp = 10.0 ** (ap.tx_power_dbm / 20.0) * ap.wavelength_m / (4.0 * math.pi * dist)

    los, reflected = sweep_response(paths, los_sine, ap, schedule.drive, rows=row)
    if doppler and len(waypoints) > 1:
        samples = apply_doppler(los, reflected, row,
                                paths.bearings_rad, ap, where, starts, t_local, dist)
    else:
        samples = los + reflected.sum(axis=-2)[..., row]
    return FieldTrace(samples=(samples * amp).reshape(-1),
                      sample_rate_hz=sample_rate_hz, t0_s=float(starts.flat[0]))


def apply_doppler(los: np.ndarray, reflected: np.ndarray, row: np.ndarray,
                  bearings_rad: np.ndarray, ap: ApConfig, traj: Trajectory,
                  starts: np.ndarray, t_local: np.ndarray,
                  dist: np.ndarray) -> np.ndarray:
    """Rotate each path by its length change since its slot's first
    sample, so the phase restarts at every slot, and add the paths up.

    los is the LOS field per sample, reflected the reflected paths' fields
    per schedule row (... x paths x rows), row each sample's row, t_local
    its time in its slot and dist its AP distance. The LOS length change is
    exact. Path k, a plane wave from bearing u_k, turns its phase at
    omega_k = (2*pi/lambda) * u_k . v (Clarke, BSTJ 1968) while the
    receiver moves along traj's one segment at velocity v. The gathered
    paths are rotated in place by a per-block and a within-block table of
    exp(j*omega_k*t), about 2*sqrt(samples) complex exponentials per path
    and slot. Motion toward a source shortens its path and advances it.
    """
    wavenumber = 2.0 * math.pi / ap.wavelength_m  # phase advance per meter shorter
    total = los * np.exp(-1j * wavenumber * (dist - dist[..., :1]))
    (t_start, p_start), (t_stop, p_stop) = traj.waypoints
    alpha = ap.boresight_rad + bearings_rad[..., 1:, None]  # toward the source
    omega = wavenumber * (np.cos(alpha) * (p_stop.x - p_start.x)
                          + np.sin(alpha) * (p_stop.y - p_start.y)) / (t_stop - t_start)
    moves_from = np.maximum(t_start - starts, 0.0)[..., None, None]  # slot time
    moves_to = np.maximum(t_stop - starts, 0.0)[..., None, None]
    n = len(t_local)
    block = math.isqrt(n - 1) + 1  # samples per block; whole blocks pad the slot
    pad = np.minimum(np.arange(-(-n // block) * block), n - 1)
    t = t_local[pad]
    every_slot = np.broadcast_shapes(reflected.shape, moves_from.shape)
    fields = np.take(np.broadcast_to(reflected, every_slot), row[pad], axis=-1)
    blocks = fields.reshape(fields.shape[:-1] + (len(pad) // block, block))
    # tau = t - moves_from while moving, 0 before, moves_to - moves_from after
    moving = ((t >= moves_from) & (t <= moves_to)).reshape(
        moves_from.shape[:-1] + blocks.shape[-2:])
    moving = True if moving.all() else moving  # a mask only if the motion clips
    np.multiply(blocks, np.exp(1j * omega * (t[::block] - moves_from))[..., None],
                out=blocks, where=moving)
    np.multiply(blocks, np.exp(1j * omega * t[:block])[..., None, :],
                out=blocks, where=moving)
    if moving is not True:
        np.multiply(fields, np.exp(1j * omega * (moves_to - moves_from)),
                    out=fields, where=t > moves_to)
    return total + fields[..., :n].sum(axis=-2)


def complex_noise(noise_power_dbm: float, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """n samples of circular complex Gaussian noise of the given total
    power: all n real parts are drawn first, then all n imaginary parts."""
    sigma = math.sqrt(10.0 ** (noise_power_dbm / 10.0) / 2.0)
    noise, part = np.empty(n, dtype=complex), np.empty(n)
    noise.real = _normals(rng, sigma, part)
    noise.imag = _normals(rng, sigma, part)
    return noise
