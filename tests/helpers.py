"""Helpers shared by the test modules."""

import math

import numpy as np

from sweeploc.experiments import _grid_chunk_errors
from sweeploc.scenario import Scenario, Trajectory


def grid_cell_errors(scn: Scenario, n_ant: int, ratio: float, r_key,
                     chunk_idx: int, n: int) -> np.ndarray:
    """Signed bearing errors (degrees) for one grid cell chunk."""
    return _grid_chunk_errors(scn, (n_ant,), ratio, r_key, chunk_idx, n)[0]


def per_antenna_propagate(schedule, paths, where, sample_rate_hz, t0_s=0.0,
                          doppler=False) -> np.ndarray:
    """propagate's samples the direct way, as an oracle: at every sample,
    each path's steering vector a*link*exp(j*psi)*exp(j*i*phi) with one
    complex exponential per antenna, contracted with the drive of the
    sample's schedule row, rotated by the path's Doppler phase (from the
    slot's first sample) and added up."""
    ap = schedule.ap
    waypoints = where.waypoints if isinstance(where, Trajectory) else ((0.0, where),)
    n = round(schedule.period_s * sample_rate_hz)
    t_local = np.arange(n) / sample_rate_hz
    t_abs = np.asarray(t0_s, dtype=float)[..., None] + t_local
    row = np.searchsorted(schedule.starts_s, t_local + 1e-12, side="right") - 1
    times = [t for t, _ in waypoints]
    px = np.interp(t_abs, times, [p.x for _, p in waypoints])
    py = np.interp(t_abs, times, [p.y for _, p in waypoints])
    dist = np.hypot(px - ap.position.x, py - ap.position.y)
    loss_db = 20.0 * np.log10(4.0 * math.pi * dist / ap.wavelength_m)  # free space
    link = 10.0 ** ((ap.tx_power_dbm - loss_db) / 20.0)
    los = np.arctan2(py - ap.position.y, px - ap.position.x) - ap.boresight_rad
    drive = schedule.drive[:, row]
    total = 0.0
    for k in range(paths.amplitudes.shape[-1]):
        bearing = los if k == 0 else paths.bearings_rad[..., k, None]
        phi = 2.0 * math.pi * ap.spacing_wavelengths * np.sin(bearing)
        weight = (paths.amplitudes[..., k, None] * link
                  * np.exp(1j * paths.excess_phases_rad[..., k, None]))
        field = sum(weight * np.exp(1j * i * phi) * drive[i]
                    for i in range(ap.antenna_count))
        if doppler and len(waypoints) > 1:
            if k == 0:
                delta = dist - dist[..., :1]
            else:  # plane wave from the source's direction
                alpha = ap.boresight_rad + bearing
                delta = -(np.cos(alpha) * (px - px[..., :1])
                          + np.sin(alpha) * (py - py[..., :1]))
            field = field * np.exp(-2j * math.pi * delta / ap.wavelength_m)
        total = total + field
    return np.reshape(total, -1)
