"""Downlink channel: multipath draws, field synthesis, Doppler, noise.

Fields are complex baseband samples in sqrt-milliwatt units, so |s|^2 is
instantaneous received power in mW. The line-of-sight path tracks the
moving receiver; reflected paths keep fixed arrival bearings and excess
phases for the lifetime of one PathSet draw.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .scenario import (ApConfig, ChannelConfig, ConfigError, GeometryError,
                       Position, Trajectory, _normals)
from .transmitter import SweepSchedule


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


_SCRATCH = threading.local()


def _scratch(role: str, shape: tuple[int, ...], dtype: type = float) -> np.ndarray:
    """This thread's buffer for one role, kept from call to call and
    reallocated only when a call needs more room than any before. Allocated
    afresh, temporaries went back to the OS after every call and were
    faulted in again on the next, a third of a track trial's time. No
    scratch buffer leaves this module: a function here returns its out
    argument or a fresh array."""
    count = math.prod(shape)
    buf = getattr(_SCRATCH, role, None)
    if buf is None or buf.size < count or buf.dtype != dtype:
        buf = np.empty(count, dtype)
        setattr(_SCRATCH, role, buf)
    return buf[:count].reshape(shape)


def _phasors(sine: np.ndarray, ap: ApConfig, out: np.ndarray | None = None) -> np.ndarray:
    """exp(j*phi), phi = 2*pi*spacing*sine: antenna i's factor in the
    steering vector of a path whose bearing has this sine is its i-th power."""
    phase = np.multiply(2.0 * math.pi * ap.spacing_wavelengths, sine,
                        out=_scratch("phase", np.shape(sine)))
    phasor = np.multiply(1j, phase, out=out)
    return np.exp(phasor, out=phasor)


def _weights(paths: PathSet, ks: slice) -> np.ndarray:
    """Weights a*exp(j*psi) of paths[ks] (... x paths x 1)."""
    return (paths.amplitudes[..., ks, None]
            * np.exp(1j * paths.excess_phases_rad[..., ks, None]))


def phased_sum(x: np.ndarray, weight: np.ndarray, drive: np.ndarray,
               each: Callable | None = None, out: np.ndarray | None = None):
    """sum_i drive[i] * sum_k weight[k] * x[k]**i: the field of paths with
    phasors x (... x paths x columns, _phasors) and weights a*exp(j*psi)
    (... x paths x 1) under each column of an antennas x columns drive.
    Every other axis broadcasts. At antenna i the paths' steering vectors
    are added in path order, then multiplied by drive row i and added in
    antenna order into one buffer: after antenna n it holds an n-antenna
    array's sum, bit for bit. Antenna i's factor x**i is a running product
    in a scratch buffer: one complex exponential per path and column, not
    one per antenna. The sum is written into out or a fresh array; each,
    if given, is called on it after every antenna, and its results come
    back stacked in place of the sum."""
    path_shape = np.broadcast_shapes(x.shape, weight.shape)
    summed_shape = path_shape[:-2] + path_shape[-1:]
    shape = np.broadcast_shapes(summed_shape, drive.shape[1:])
    # this antenna's factor and the last one's: numpy rounds an in-place
    # complex product of one element without the fused multiply-add
    factors = _scratch("antenna_factors", (2,) + x.shape, complex)
    steering = _scratch("steering", path_shape, complex)
    summed = _scratch("steering_sum", summed_shape, complex)
    term = _scratch("antenna_term", shape, complex)
    total = np.empty(shape, complex) if out is None else out
    total.fill(0.0)
    kept = []
    for i, di in enumerate(drive):
        factor = factors[i % 2]
        if i == 0:
            factor.fill(1.0)
        elif i == 1:
            np.copyto(factor, x)
        else:
            np.multiply(factors[1 - i % 2], x, out=factor)
        np.multiply(weight, factor, out=steering)
        steer = steering[..., 0, :]
        for k in range(1, path_shape[-2]):
            steer = np.add(steer, steering[..., k, :], out=summed)
        total += np.multiply(steer, di, out=term)
        if each is not None:
            kept.append(each(total))
    return total if each is None else np.stack(kept)


def _reflected(paths: PathSet, ap: ApConfig,
               drive: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The reflected paths' fields per drive column (... x paths x
    columns), each path's apart: phased_sum sums a size-1 paths axis. For
    a draw per slot on a leading axis, also the index into them of each
    slot's draw: equal draws on successive slots (rounds between redraws)
    are contracted once. The index is None otherwise."""
    x = _phasors(np.sin(paths.bearings_rad[..., 1:, None, None]), ap)
    weight = _weights(paths, slice(1, None))[..., None]
    if x.ndim < 4:
        return phased_sum(x, weight, drive), None
    new = np.append(True, np.any((x[1:] != x[:-1]) | (weight[1:] != weight[:-1]),
                                 axis=(1, 2, 3)))
    return phased_sum(x[new], weight[new], drive), np.cumsum(new) - 1


def sweep_response(paths: PathSet, los_sine: np.ndarray,
                   ap: ApConfig, drive: np.ndarray, each: Callable | None = None):
    """Complex field of the paths, summed, under each drive column.

    Path k's steering vector over antennas i is w_k * exp(j*i*phi_k), with
    phi_k = 2*pi*spacing*sin(b_k) and weight w_k = a_k*exp(j*psi_k).
    phased_sum contracts it with the drive matrix (SweepSchedule.drive);
    on a sweep row, exp(-j*i*inc), that gives the array-manifold sum
    w_k * sum_i exp(j*i*(phi_k - inc)) (Van Trees, Optimum Array
    Processing, ch. 2). The LOS path takes sin(b_0) = los_sine, never the
    stored nominal bearing.

    Leading axes of paths (trials) broadcast against the LOS sine's. All
    paths go on phased_sum's paths axis, summed before the contraction.
    """
    is_los = np.arange(paths.amplitudes.shape[-1])[:, None] == 0
    sine = np.where(is_los, np.expand_dims(los_sine, -2),
                    np.sin(paths.bearings_rad[..., None]))
    return phased_sum(_phasors(sine, ap), _weights(paths, slice(None)), drive, each)


@dataclass(frozen=True)
class FieldTrace:
    """Sampled complex field at the receiver: a plain sample buffer.

    samples[s] is the total field at t0_s + s/sample_rate_hz. A buffer of
    several slots (see propagate) keeps them back to back, although they
    may be apart in time; written into a caller's out, it is that slots x
    samples array.
    """

    samples: np.ndarray
    sample_rate_hz: float
    t0_s: float


def propagate(schedule: SweepSchedule, paths: PathSet,
              where: Position | Trajectory, sample_rate_hz: float,
              t0_s: float | np.ndarray = 0.0,
              doppler: bool = False, out: np.ndarray | None = None) -> FieldTrace:
    """Synthesize the received field for sweep periods of one AP.

    t0_s is one slot start time, or an (R,) array of them: R slots of this
    AP, one per TDMA round, from one call. paths is one draw for every
    slot, or one draw per slot on a leading axis of length R. The slots
    come out back to back in samples (R x period samples, flat), or in
    out, a complex array of t0_s's shape plus the period's samples, which
    is then the returned samples. Each sample takes the drive of the
    schedule row active at its time within its slot. The LOS sine
    (dy*cos(b) - dx*sin(b)) / dist and the link amplitude
    10**(P/20) * lambda / (4*pi*dist) follow the receiver in closed form.
    phased_sum gives the LOS field per sample and the reflected paths' per
    schedule row, added and gathered once, or, with doppler set and a
    moving receiver, gathered and rotated by apply_doppler. Every
    per-sample intermediate lives in this thread's scratch buffers
    (_scratch). Raises GeometryError if the receiver reaches the AP.
    """
    ap = schedule.ap
    waypoints = where.waypoints if isinstance(where, Trajectory) else ((0.0, where),)
    n = round(schedule.period_s * sample_rate_hz)
    t_local = np.arange(n) / sample_rate_hz
    starts = np.asarray(t0_s, dtype=float)
    shape = starts.shape + (n,)
    t_abs = np.add(starts[..., None], t_local, out=_scratch("t_abs", shape))

    row = np.searchsorted(schedule.starts_s, t_local + 1e-12, side="right") - 1

    rel = np.interp(t_abs, [t for t, _ in waypoints], [complex(
        p.x - ap.position.x, p.y - ap.position.y) for _, p in waypoints])
    dx, dy = rel.real, rel.imag
    part = _scratch("geometry_part", shape)
    dist = np.multiply(dx, dx, out=_scratch("dist", shape))
    dist += np.multiply(dy, dy, out=part)
    np.sqrt(dist, out=dist)
    if np.any(dist <= 0):
        raise GeometryError("receiver trajectory passes through the AP")
    los_sine = np.multiply(dy, math.cos(ap.boresight_rad),
                           out=_scratch("los_sine", shape))
    los_sine -= np.multiply(dx, math.sin(ap.boresight_rad), out=part)
    los_sine /= dist
    amp = np.multiply(4.0 * math.pi, dist, out=_scratch("amplitude", shape))
    np.divide(10.0 ** (ap.tx_power_dbm / 20.0) * ap.wavelength_m, amp, out=amp)

    field_shape = np.broadcast_shapes(shape, paths.amplitudes.shape[:-1] + (1,))
    phasor = _phasors(los_sine, ap, _scratch("los_phasor", shape, complex))
    los = phased_sum(phasor[..., None, :], _weights(paths, slice(0, 1)),
                     schedule.drive[:, row], out=_scratch("los", field_shape, complex))
    reflected, draw = _reflected(paths, ap, schedule.drive)
    if doppler and len(waypoints) > 1:
        field = apply_doppler(los, reflected, draw, row, paths.bearings_rad, ap,
                              where, starts, t_local, dist,
                              _scratch("field", field_shape, complex))
    else:
        field = np.add(los, _per_sample(reflected.sum(axis=-2), draw, row, _scratch(
            "gathered", los.shape, complex)), out=los)
    samples = np.multiply(field, amp, out=out)
    return FieldTrace(samples=samples.reshape(-1) if out is None else out,
                      sample_rate_hz=sample_rate_hz, t0_s=float(starts.flat[0]))


def _per_sample(fields: np.ndarray, draw: np.ndarray | None, row: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Fill out (slots x samples) with column row[s] of each slot's draw:
    fields holds the draws' columns (draws x columns) and draw indexes each
    slot's, or fields is one draw's columns for every slot."""
    # mode="clip" (the indices are in range): "raise" copies via a new buffer
    if draw is not None:
        fields = np.take(fields, draw, axis=0, mode="clip", out=_scratch(
            "slot_columns", draw.shape + fields.shape[-1:], complex))
    return np.take(np.broadcast_to(fields, out.shape[:-1] + fields.shape[-1:]),
                   row, axis=-1, mode="clip", out=out)


def apply_doppler(los: np.ndarray, reflected: np.ndarray, draw: np.ndarray | None,
                  row: np.ndarray, bearings_rad: np.ndarray, ap: ApConfig,
                  traj: Trajectory, starts: np.ndarray, t_local: np.ndarray,
                  dist: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rotate each path by its length change since its slot's first
    sample, so the phase restarts at every slot, and add the paths up into
    out (slots x samples), which is returned.

    los is the LOS field per sample, reflected the reflected paths' fields
    per schedule row (draws x paths x rows), draw each slot's draw among
    them (None: reflected is one draw, paths x rows, for every slot), row
    each sample's row, t_local its time in its slot and dist its AP
    distance. The LOS length change is exact. Path k, a plane wave from
    bearing u_k, turns its phase at omega_k = (2*pi/lambda) * u_k . v
    (Clarke, BSTJ 1968) while the receiver moves along traj's one segment
    at velocity v. Each path in turn is gathered per sample and rotated in
    place by a per-block and a within-block table of exp(j*omega_k*t),
    about 2*sqrt(samples) complex exponentials per path and slot, then
    added to the paths before it: ((f_1 + f_2) + f_3), the order of a sum
    over the paths axis. Motion toward a source shortens its path and
    advances it.
    """
    wavenumber = 2.0 * math.pi / ap.wavelength_m  # phase advance per meter shorter
    shortened = np.subtract(dist, dist[..., :1],
                            out=_scratch("doppler_shortened", dist.shape))
    total = np.multiply(-1j * wavenumber, shortened,
                        out=_scratch("doppler_los", dist.shape, complex))
    np.multiply(los, np.exp(total, out=total), out=total)
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
    slots = los.shape[:-1]
    # tau = t - moves_from while moving, 0 before, moves_to - moves_from after
    moving = ((t >= moves_from) & (t <= moves_to)).reshape(
        moves_from.shape[:-1] + (len(pad) // block, block))[..., 0, :, :]
    moving = True if moving.all() else moving  # a mask only if the motion clips
    per_block = np.exp(1j * omega * (t[::block] - moves_from))[..., None]
    within = np.exp(1j * omega * t[:block])[..., None, :]
    if moving is not True:
        after = np.exp(1j * omega * (moves_to - moves_from))
        stopped = (t > moves_to)[..., 0, :]
    field = _scratch("doppler_path", slots + (len(pad),), complex)
    blocks = field.reshape(slots + (len(pad) // block, block))
    paths_sum = _scratch("doppler_paths", slots + (n,), complex)
    if reflected.shape[-2] == 0:
        paths_sum.fill(0.0)
    for k in range(reflected.shape[-2]):
        _per_sample(reflected[..., k, :], draw, row[pad], field)
        np.multiply(blocks, per_block[..., k, :, :], out=blocks, where=moving)
        np.multiply(blocks, within[..., k, :, :], out=blocks, where=moving)
        if moving is not True:
            np.multiply(field, after[..., k, :], out=field, where=stopped)
        if k == 0:
            np.copyto(paths_sum, field[..., :n])
        else:
            paths_sum += field[..., :n]
    return np.add(total, paths_sum, out=out)


def complex_noise(noise_power_dbm: float, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """n samples of circular complex Gaussian noise of the given total
    power: all n real parts are drawn first, then all n imaginary parts."""
    sigma = math.sqrt(10.0 ** (noise_power_dbm / 10.0) / 2.0)
    noise, part = np.empty(n, dtype=complex), np.empty(n)
    noise.real = _normals(rng, sigma, part)
    noise.imag = _normals(rng, sigma, part)
    return noise
