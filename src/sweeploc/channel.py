"""Downlink channel: multipath draws, field synthesis, Doppler, noise.

Fields are complex baseband samples in sqrt-milliwatt units, so |s|^2 is
instantaneous received power in mW. The line-of-sight path, at unit
weight, tracks the moving receiver; a PathSet draw holds only the
reflected paths, whose arrival bearings and excess phases stay fixed for
its lifetime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .scenario import (ApConfig, ChannelConfig, ConfigError, GeometryError,
                       Trajectory, _normals, _scratch)
from .transmitter import cached_schedule, sample_rows


@dataclass(frozen=True, eq=False)
class PathSet:
    """Reflected paths of one or more channel draws, as arrays.

    The last axis is paths, and may be empty (a LOS-only channel); leading
    axes hold trials and rounds. Each path has an amplitude relative to
    the line-of-sight path's, an arrival bearing relative to boresight and
    an excess phase. The LOS path is not stored: it has unit weight, and
    propagate takes its sine from geometry.
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
        if not 1 <= amps.ndim <= 3:
            raise ConfigError("path arrays need a paths axis and at most two more")
        if not (np.all(np.isfinite(amps)) and np.all(amps >= 0)):
            raise ConfigError("path amplitude must be finite and >= 0")


def draw_multipath(cfg: ChannelConfig, rng: np.random.Generator,
                   shape: tuple[int, ...] = ()) -> PathSet:
    """Draw PathSets of reflections, relative to the unit LOS path.

    shape () gives one draw, (n,) n draws on a leading trials axis.
    Reflection amplitudes are U(0,1] draws normalized so their sum equals
    multipath_ratio; bearings are i.i.d. U(-pi/2, pi/2); excess phases
    U[0, 2*pi). Each trial draws its amplitudes, then bearings, then
    phases, so n draws at once equal n draws in turn. It maps
    (map_multipath) a draw of uniforms (path_uniforms); capture_track
    calls the two steps apart.
    """
    return map_multipath(cfg, path_uniforms(cfg, rng, shape))


def path_uniforms(cfg: ChannelConfig, rng: np.random.Generator,
                  shape: tuple[int, ...]) -> np.ndarray:
    """The uniforms of draws of the given shape (shape x 3 x reflections)."""
    return rng.random(shape + (3, cfg.nlos_path_count if cfg.multipath_ratio else 0))


def map_multipath(cfg: ChannelConfig, u: np.ndarray) -> PathSet:
    """The PathSet of draws from their uniforms."""
    raw = 1.0 - u[..., 0, :]  # U(0, 1], cannot be zero
    amps = raw / raw.sum(axis=-1, keepdims=True) * cfg.multipath_ratio
    lo, hi = -math.pi / 2, math.pi / 2
    bearings = lo + (hi - lo) * u[..., 1, :]
    phases = 2.0 * math.pi * u[..., 2, :]
    return PathSet(amps, bearings, phases)


def _phasors(sine: np.ndarray, ap: ApConfig, out: np.ndarray | None = None) -> np.ndarray:
    """exp(j*phi), phi = 2*pi*spacing*sine: antenna i's factor in the
    steering vector of a path whose bearing has this sine is its i-th power."""
    phasor = np.empty(np.shape(sine), complex) if out is None else out
    # j*phi written in place: the value of np.multiply(1j, phi), whose
    # real part is a zero (signed like phi) that exp maps to the same bits
    np.multiply(2.0 * math.pi * ap.spacing_wavelengths, sine, out=phasor.imag)
    phasor.real = 0.0
    return np.exp(phasor, out=phasor)


def _weights(paths: PathSet) -> np.ndarray:
    """Weights a*exp(j*psi) of the paths (... x paths x 1)."""
    return (paths.amplitudes[..., None]
            * np.exp(1j * paths.excess_phases_rad[..., None]))


def phased_sum(x: np.ndarray, weight: np.ndarray | None, drive: np.ndarray,
               each: Callable | None = None, out: np.ndarray | None = None):
    """sum_i drive[i] * sum_k weight[k] * x[k]**i: the field of paths with
    phasors x (... x paths x columns, _phasors) and weights a*exp(j*psi)
    (... x paths x 1; None for unit weights) under each column of an
    antennas x columns drive.
    Every other axis broadcasts. At antenna i the paths' steering vectors
    are added in path order, then multiplied by drive row i and added in
    antenna order into one buffer: after antenna n it holds an n-antenna
    array's sum, bit for bit. Antenna i's factor x**i is a running product
    in a scratch buffer: one complex exponential per path and column, not
    one per antenna. The sum is written into out or a fresh array; each,
    if given, is called on it after every antenna from the second on (no
    array has one antenna), and its results come back stacked in place of
    the sum."""
    path_shape = np.broadcast_shapes(x.shape, np.shape(weight))  # np.shape(None): ()
    summed_shape = path_shape[:-2] + path_shape[-1:]
    shape = np.broadcast_shapes(summed_shape, drive.shape[1:])
    # this antenna's factor and the last one's: numpy rounds an in-place
    # complex product of one element without the fused multiply-add
    factors = _scratch("antenna_factors", (2,) + x.shape, complex)
    weighted = None if weight is None else _scratch("steering", path_shape, complex)
    summed = _scratch("steering_sum", summed_shape, complex) if path_shape[-2] > 1 else None
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
        steering = factor if weight is None else np.multiply(weight, factor, out=weighted)
        steer = steering[..., 0, :]
        for k in range(1, path_shape[-2]):
            steer = np.add(steer, steering[..., k, :], out=summed)
        total += np.multiply(steer, di, out=term)
        if each is not None and i > 0:
            kept.append(each(total))
    return total if each is None else np.stack(kept)


def sweep_response(paths: PathSet, los_sine: np.ndarray,
                   ap: ApConfig, drive: np.ndarray, each: Callable | None = None):
    """Complex field of the paths, summed, under each drive column.

    Path k's steering vector over antennas i is w_k * exp(j*i*phi_k), with
    phi_k = 2*pi*spacing*sin(b_k) and weight w_k = a_k*exp(j*psi_k).
    phased_sum contracts it with the drive matrix (build_sweep_schedule);
    on a sweep row, exp(-j*i*inc), that gives the array-manifold sum
    w_k * sum_i exp(j*i*(phi_k - inc)) (Van Trees, Optimum Array
    Processing, ch. 2). The LOS path, path 0, takes sin(b_0) = los_sine
    and w_0 = 1; the reflected paths follow it in PathSet order.

    Leading axes of paths (trials) broadcast against the LOS sine's. All
    paths go on phased_sum's paths axis, summed before the contraction.
    """
    los = np.expand_dims(los_sine, -2)
    reflected = np.sin(paths.bearings_rad[..., None])
    *lead, count, columns = np.broadcast_shapes(los.shape, reflected.shape)
    sine = np.empty((*lead, 1 + count, columns))
    sine[..., :1, :], sine[..., 1:, :] = los, reflected
    weight = _weights(paths)
    weight = np.concatenate([np.ones(weight.shape[:-2] + (1, 1), complex), weight],
                            axis=-2)
    return phased_sum(_phasors(sine, ap), weight, drive, each)


@dataclass(frozen=True)
class FieldTrace:
    """Sampled complex field at the receiver: samples[..., s] is the total
    field at s/sample_rate_hz into its slot. Leading axes hold slots (see
    propagate); a flat buffer is one stretch of samples."""

    samples: np.ndarray
    sample_rate_hz: float


def propagate(ap: ApConfig, mode: str, paths: PathSet, trajs: Sequence[Trajectory],
              sample_rate_hz: float, t0_s: np.ndarray, doppler: bool = False,
              out: np.ndarray | None = None) -> FieldTrace:
    """Synthesize the received field for sweep periods of one AP, driven
    by its (ap, mode) schedule (cached_schedule).

    t0_s holds slot start times, one row per trajectory of trajs (trials
    x R: R slots of this AP, one per TDMA round); the trajectories all
    move or all stand still. A moving receiver must move from at or before
    each slot's first sample to at or after its last; ConfigError
    otherwise. paths is one draw for every slot, or one per slot on
    leading axes of t0_s's shape. The samples have t0_s's shape plus the
    period's samples, in a fresh array or written into out.
    Each sample takes the drive of its schedule row (sample_rows, the
    sweep's sample clock). The LOS path has unit weight; its sine
    (dy*cos(b) - dx*sin(b)) / dist and the link amplitude
    10**(P/20) * lambda / (4*pi*dist) follow the receiver in closed form.
    Each slot's field comes from its own paths. A still receiver's is
    sweep_response's per schedule row, gathered per sample. A moving one's
    is phased_sum's LOS field per sample and the reflected paths' per row,
    which apply_doppler gathers, rotates (by nothing when doppler is off)
    and adds up, in scratch buffers (_scratch). Raises GeometryError if the
    receiver reaches the AP.
    """
    drive = cached_schedule(ap, mode)
    row = sample_rows(ap, sample_rate_hz)
    t_local = np.arange(len(row)) / sample_rate_hz
    starts = np.asarray(t0_s, dtype=float)
    shape = starts.shape + row.shape
    waypoints = [traj.waypoints for traj in trajs]
    moves = {len(w) > 1 for w in waypoints}
    if len(moves) > 1 or starts.shape[:1] != (len(waypoints),):
        raise ConfigError("one t0_s row per trajectory, all moving or all still")
    trial = (len(waypoints),) + (1,) * (starts.ndim - 1)  # per trial
    field_shape = np.broadcast_shapes(shape, paths.amplitudes.shape[:-1] + (1,))
    rel = [[complex(p.x - ap.position.x, p.y - ap.position.y) for _, p in w]
           for w in waypoints]  # from the AP
    link = 10.0 ** (ap.tx_power_dbm / 20.0) * ap.wavelength_m

    if True not in moves:
        one = trial + (1,)  # one value per trial for all its samples
        dist, los_sine = _geometry(np.reshape(rel, one), ap, *np.empty((2,) + one))
        fields = sweep_response(paths, los_sine, ap, drive)
        field = _per_sample(fields, row, _scratch("gathered", field_shape, complex))
        amp = np.divide(link, np.multiply(4.0 * math.pi, dist, out=dist), out=dist)
    else:
        dist, los_sine = _scratch("dist", shape), _scratch("los_sine", shape)
        for i, (w, fp) in enumerate(zip(waypoints, rel)):
            times = np.add(starts[i, ..., None], t_local)
            if w[0][0] > times[..., 0].min() or w[-1][0] < times[..., -1].max():
                raise ConfigError("a moving receiver's motion must span every"
                                  " slot it is synthesized in")
            _geometry(np.interp(times, [t for t, _ in w], fp), ap, dist[i], los_sine[i])
        phasor = _phasors(los_sine, ap, _scratch("los_phasor", shape, complex))
        amp = np.divide(link, np.multiply(4.0 * math.pi, dist, out=los_sine),
                        out=los_sine)  # the sine's buffer, spent
        los = phased_sum(phasor[..., None, :], None, drive[:, row],
                         out=_scratch("los", field_shape, complex))
        reflected = phased_sum(
            _phasors(np.sin(paths.bearings_rad[..., None, None]), ap),
            _weights(paths)[..., None], drive)
        # per trial: start and stop times, x and y displacement
        segment = np.reshape([(t0, t1, p1.x - p0.x, p1.y - p0.y)
                              for (t0, p0), *_, (t1, p1) in waypoints], trial + (4,))
        wavenumber = 2.0 * math.pi / ap.wavelength_m if doppler else 0.0
        field = apply_doppler(los, reflected, row, paths.bearings_rad, ap, segment,
                              t_local, dist, wavenumber, out=los)
    return FieldTrace(samples=np.multiply(field, amp, out=out),
                      sample_rate_hz=sample_rate_hz)


def _geometry(rel: np.ndarray, ap: ApConfig, dist: np.ndarray,
              los_sine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill dist and los_sine for receiver offsets rel = dx + j*dy from the
    AP; raises GeometryError where the receiver is on the AP."""
    dx, dy = rel.real, rel.imag
    part = _scratch("geometry_part", dist.shape)
    np.multiply(dx, dx, out=dist)
    dist += np.multiply(dy, dy, out=part)
    np.sqrt(dist, out=dist)
    if np.any(dist <= 0):
        raise GeometryError("receiver trajectory passes through the AP")
    np.multiply(dy, math.cos(ap.boresight_rad), out=los_sine)
    los_sine -= np.multiply(dx, math.sin(ap.boresight_rad), out=part)
    los_sine /= dist
    return dist, los_sine


def _per_sample(fields: np.ndarray, row: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out (slots x samples) with column row[s] of each slot's fields
    (slots x columns, or one slot's columns for every slot)."""
    # mode="clip" (the indices are in range): "raise" copies via a new buffer
    return np.take(np.broadcast_to(fields, out.shape[:-1] + fields.shape[-1:]),
                   row, axis=-1, mode="clip", out=out)


def apply_doppler(los: np.ndarray, reflected: np.ndarray, row: np.ndarray,
                  bearings_rad: np.ndarray, ap: ApConfig, segment: np.ndarray,
                  t_local: np.ndarray, dist: np.ndarray, wavenumber: float,
                  out: np.ndarray) -> np.ndarray:
    """Rotate each path by its length change since its slot's first
    sample, so the phase restarts at every slot, and add the paths up into
    out (slots x samples, may be los), which is returned.

    los is the LOS field per sample, reflected each slot's reflected paths'
    fields per schedule row (slots x paths x rows; paths x rows is one
    draw's for every slot), row each sample's row, bearings_rad the
    reflected paths' bearings (PathSet.bearings_rad), t_local each
    sample's time in its slot and dist its AP distance. segment
    holds each trial's segment (start and stop times, x and y
    displacement) on its last axis, broadcasting against the slots; the
    motion spans every slot (propagate refuses any other). wavenumber is
    the phase advance per meter shorter: 2*pi/lambda, or 0, which turns no
    path (exp(0) is 1). The LOS length change is exact. Path k, a plane
    wave from bearing u_k, turns its phase at omega_k = wavenumber * u_k . v
    (Clarke, BSTJ 1968) while the receiver moves at velocity v. Each path
    in turn is gathered per sample and rotated in place by a per-block and
    a within-block table of exp(j*omega_k*t), about 2*sqrt(samples) complex
    exponentials per path and slot, then added to the paths before it,
    ((f_1 + f_2) + f_3) as a sum over the paths axis would, and the LOS
    field last. Motion toward a source shortens its path and advances it.
    """
    # the geometry's part and the LOS phasors are free once propagate has them
    shortened = np.subtract(dist, dist[..., :1],
                            out=_scratch("geometry_part", dist.shape))
    total = np.multiply(-1j * wavenumber, shortened,
                        out=_scratch("los_phasor", dist.shape, complex))
    np.multiply(los, np.exp(total, out=total), out=total)
    t_start, t_stop, move_x, move_y = np.moveaxis(segment, -1, 0)[..., None, None]
    alpha = ap.boresight_rad + bearings_rad[..., None]  # toward the source
    omega = wavenumber * (np.cos(alpha) * move_x + np.sin(alpha) * move_y
                          ) / (t_stop - t_start)
    n = len(t_local)
    block = math.isqrt(n - 1) + 1  # samples per block; whole blocks pad the slot
    pad = np.minimum(np.arange(-(-n // block) * block), n - 1)
    t = t_local[pad]
    slots = los.shape[:-1]
    per_block = np.exp(1j * omega * t[::block])[..., None]
    within = np.exp(1j * omega * t[:block])[..., None, :]
    field = _scratch("doppler_path", slots + (len(pad),), complex)
    blocks = field.reshape(slots + (len(pad) // block, block))
    out.fill(0.0)  # 0 + f_1 is f_1
    for k in range(reflected.shape[-2]):
        _per_sample(reflected[..., k, :], row[pad], field)
        np.multiply(blocks, per_block[..., k, :, :], out=blocks)
        np.multiply(blocks, within[..., k, :, :], out=blocks)
        out += field[..., :n]
    out += total  # paths + LOS: the bits of LOS + paths
    return out


def complex_noise(noise_power_dbm: float, rng: np.random.Generator,
                  out: np.ndarray) -> np.ndarray:
    """Fill out (contiguous, complex) with circular complex Gaussian noise of
    the given total power and return it: every real part drawn first, in C
    order, then every imaginary part, each through a scratch buffer."""
    sigma = math.sqrt(10.0 ** (noise_power_dbm / 10.0) / 2.0)
    part = _scratch("noise_part", out.shape)
    out.real = _normals(rng, sigma, part)
    out.imag = _normals(rng, sigma, part)
    return out
