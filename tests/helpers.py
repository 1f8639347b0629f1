"""Helpers shared by the test modules."""

import math
from dataclasses import replace

import numpy as np

from sweeploc.backscatter import (CAPTURE_RATE_HZ, MODULATOR_RATE_HZ,
                                  SUBCARRIER_HZ, UPLINK_BITRATE_HZ,
                                  ap_demodulate)
from sweeploc.channel import FieldTrace, draw_multipath, propagate
from sweeploc.experiments import (FARM_MARGIN_M, FARM_RATIO_MAX,
                                  GRID_ANTENNA_COUNTS, RANGE_BEARING_LIMIT_DEG,
                                  RANGE_DISTANCES_M, _grid_chunk_errors)
from sweeploc.pipeline import (detect_with_noise, draw_noise, draw_pathsets,
                               noise_pair, synthesize_rounds)
from sweeploc.receiver import (MIN_CROSSING_SINE, EnvelopeTrace, Receiver,
                               envelope_detect, estimate_angle, find_preamble)
from sweeploc.scenario import (ApConfig, ConfigError, Position, Scenario,
                               Trajectory, _normals, trial_rng)
from sweeploc.transmitter import build_sweep_schedule, period_samples


def grid_cell_errors(scn: Scenario, n_ant: int, ratio: float, r_key,
                     chunk_idx: int, n: int) -> np.ndarray:
    """Signed bearing errors (degrees) for one grid cell chunk: its antenna
    count's row of the chunk's errors."""
    errors = _grid_chunk_errors(scn, ratio, r_key, chunk_idx, n)
    return errors[GRID_ANTENNA_COUNTS.index(n_ant)]


def still_capture(scn: Scenario, pos: Position,
                  rng: np.random.Generator) -> EnvelopeTrace:
    """Two rounds of a receiver standing at pos, made alone: a channel draw
    per AP (draw_pathsets), then the capture's noise (draw_noise), then its
    synthesis into that capture and detection."""
    pathsets = draw_pathsets(scn, rng)
    n = 2 * len(scn.aps) * period_samples(scn.aps[0], scn.detector.sample_rate_hz)
    capture, detector = noise = noise_pair(scn, (n,))
    draw_noise(scn, noise, ..., rng)
    field = synthesize_rounds(scn, pathsets, [Trajectory.stationary(pos)], out=capture)
    return detect_with_noise(field, scn.detector, detector)


def stretch_noise(scn: Scenario, n: int, rng: np.random.Generator) -> tuple:
    """One n-sample stretch of a capture's noise in fresh arrays, as a
    reference for pipeline.draw_noise: the channel noise's real parts, then
    its imaginary parts, then the detector's output noise, each drawn by
    Generator.normal; None for a kind the scenario turns off."""
    channel = detector = None
    if scn.channel.noise_power_dbm is not None:
        sigma = math.sqrt(10.0 ** (scn.channel.noise_power_dbm / 10.0) / 2.0)
        channel = rng.normal(0.0, sigma, n) + 1j * rng.normal(0.0, sigma, n)
    if scn.detector.noise_sigma_volts > 0:
        detector = rng.normal(0.0, scn.detector.noise_sigma_volts, n)
    return channel, detector


def detect_joined(field, det, noises) -> np.ndarray:
    """The volts of envelope_detect with stretch_noise's draws of a
    capture's stretches joined in order, as a reference for a capture
    that the pipeline synthesizes into its channel noise and detects with
    detect_with_noise: channel noise added to the noiseless field before
    detection, detector noise to the volts after it."""
    channel, detector = (None if parts[0] is None else np.concatenate(parts)
                         for parts in zip(*noises))
    if channel is not None:
        field = replace(field, samples=field.samples + channel)
    volts = envelope_detect(field, det).volts
    return volts if detector is None else volts + detector


def farm_chunk_reference(scn: Scenario, lo: int,
                         hi: int) -> tuple[list[tuple], int]:
    """experiments._farm_chunk one trial at a time, as a reference: each
    trial draws its position and ratio, its still_capture, and a fresh
    receiver's process_buffer fixes it. Returns the rows and the count of
    trials without a fix."""
    width, height = scn.field_extent_m
    rows, skipped = [], 0
    for t in range(lo, hi):
        rng = trial_rng(scn.seed, "farm_cdf", t)
        pos = Position(rng.uniform(FARM_MARGIN_M, width - FARM_MARGIN_M),
                       rng.uniform(FARM_MARGIN_M, height - FARM_MARGIN_M))
        ratio = rng.uniform(0.0, FARM_RATIO_MAX)
        scn_t = replace(scn, channel=replace(scn.channel, multipath_ratio=ratio))
        fix = Receiver(scn_t).process_buffer(still_capture(scn_t, pos, rng)).fix
        if fix is None:
            skipped += 1
            continue
        rows.append((pos.x, pos.y, ratio, fix.distance_to(pos)))
    return rows, skipped


def range_chunk_reference(scn: Scenario, d_idx: int, lo: int,
                          hi: int) -> list[tuple[int, int, int, float]]:
    """experiments._range_chunk one trial at a time, as a reference: each
    trial draws its bearing, its channel (draw_multipath) and its noise
    into a capture of its own (noise_pair), then propagate adds its slot
    into that capture, half a period of silence before it and a whole
    period after, which is detected, searched and read alone."""
    ap = scn.aps[0]
    fs = scn.detector.sample_rate_hz
    period = ap.sweep_period_s
    distance = RANGE_DISTANCES_M[d_idx]
    limit = math.radians(RANGE_BEARING_LIMIT_DEG)
    lead, slot_n = round(period / 2.0 * fs), period_samples(ap, fs)
    detected, abs_err_sum = 0, 0.0
    for t in range(lo, hi):
        rng = trial_rng(scn.seed, "range_sweep", d_idx, t)
        bearing = rng.uniform(-limit, limit)
        heading = ap.boresight_rad + bearing
        pos = Position(ap.position.x + distance * math.cos(heading),
                       ap.position.y + distance * math.sin(heading))
        paths = draw_multipath(scn.channel, rng)
        capture, detector = noise = noise_pair(scn, (lead + 2 * slot_n,))
        draw_noise(scn, noise, ..., rng)
        propagate(ap, scn.sweep_mode, paths, [Trajectory.stationary(pos)], fs,
                  np.array([period / 2.0]), out=capture[None, lead:lead + slot_n])
        env = detect_with_noise(FieldTrace(capture, fs), scn.detector, detector)
        start = find_preamble(env, ap, 0, lead + 1)  # two periods must follow
        if start is None:
            continue
        detected += 1
        raw = estimate_angle(env, start, ap, scn.sweep_mode)
        abs_err_sum += abs(math.degrees(raw - bearing))
    return [(d_idx, hi - lo, detected, abs_err_sum)]


def row_starts(ap: ApConfig) -> np.ndarray:
    """Start time of each schedule row within its period: the 8 preamble
    bits, then the sweep steps, from the AP's durations."""
    return np.concatenate([
        np.arange(8) * ap.preamble_bit_duration_s,
        ap.preamble_duration_s + np.arange(ap.sweep_step_count) * ap.sweep_dwell_s])


def per_antenna_propagate(ap, mode, paths, traj, sample_rate_hz, t0_s,
                          doppler=False) -> np.ndarray:
    """propagate's samples for one trajectory the direct way, as an
    oracle: at every sample, each path's steering vector
    a*link*exp(j*psi)*exp(j*i*phi) with one complex exponential per
    antenna, contracted with the drive of the sample's schedule row (built
    here, not taken from propagate's cache), rotated by the path's Doppler
    phase (from the slot's first sample) and added up. The LOS path comes
    first, at unit weight and the receiver's bearing, then the PathSet's
    reflections. The samples have t0_s's shape plus the period's."""
    waypoints = traj.waypoints
    n = round(ap.sweep_period_s * sample_rate_hz)
    t_local = np.arange(n) / sample_rate_hz
    t_abs = np.asarray(t0_s, dtype=float)[..., None] + t_local
    row = np.searchsorted(row_starts(ap), t_local + 1e-12, side="right") - 1
    times = [t for t, _ in waypoints]
    px = np.interp(t_abs, times, [p.x for _, p in waypoints])
    py = np.interp(t_abs, times, [p.y for _, p in waypoints])
    dist = np.hypot(px - ap.position.x, py - ap.position.y)
    loss_db = 20.0 * np.log10(4.0 * math.pi * dist / ap.wavelength_m)  # free space
    link = 10.0 ** ((ap.tx_power_dbm - loss_db) / 20.0)
    los = np.arctan2(py - ap.position.y, px - ap.position.x) - ap.boresight_rad
    drive = build_sweep_schedule(ap, mode)[:, row]
    terms = [(los, 1.0, 0.0)] + [
        (paths.bearings_rad[..., k, None], paths.amplitudes[..., k, None],
         paths.excess_phases_rad[..., k, None])
        for k in range(paths.amplitudes.shape[-1])]
    total = 0.0
    for k, (bearing, amplitude, excess) in enumerate(terms):
        phi = 2.0 * math.pi * ap.spacing_wavelengths * np.sin(bearing)
        weight = amplitude * link * np.exp(1j * excess)
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
    return total


def intersect_bearings(ap1: ApConfig, bearing1_rad: float, ap2: ApConfig,
                       bearing2_rad: float) -> Position | None:
    """Exact intersection of the two bearing rays, or None if degenerate:
    the LookupTable's reference, one pair at a time.

    Degenerate means nearly parallel rays (|sin of crossing angle| below
    MIN_CROSSING_SINE) or an intersection behind either AP.
    """
    a1 = ap1.boresight_rad + bearing1_rad
    a2 = ap2.boresight_rad + bearing2_rad
    u1 = (math.cos(a1), math.sin(a1))
    u2 = (math.cos(a2), math.sin(a2))
    den = u1[0] * u2[1] - u1[1] * u2[0]
    if abs(den) < MIN_CROSSING_SINE:
        return None
    dx = ap2.position.x - ap1.position.x
    dy = ap2.position.y - ap1.position.y
    t1 = (dx * u2[1] - dy * u2[0]) / den
    t2 = (dx * u1[1] - dy * u1[0]) / den
    if t1 <= 0 or t2 <= 0:
        return None
    return Position(ap1.position.x + t1 * u1[0], ap1.position.y + t1 * u1[1])


def demod_fundamental_gain(wave_rate_hz: float = MODULATOR_RATE_HZ,
                           subcarrier_hz: float = SUBCARRIER_HZ) -> complex:
    """Complex per-bit gain the discrete mix+decimate applies to a one-bit
    of unit path gain. Its magnitude approaches 2/pi as the modulator rate
    grows."""
    half = round(wave_rate_hz / (2.0 * subcarrier_hz))
    cycle = 2 * half
    k = np.arange(cycle)
    states = ((k // half) % 2 == 0).astype(float)
    return complex(2.0 * np.mean(states * np.exp(-2j * math.pi * k / cycle)))


def ber_point_waveform_oracle(snr_db: float, n_bits: int,
                              rng: np.random.Generator) -> tuple[float, int]:
    """Brute-force BER reference through the full modulator-rate waveform.

    The signal is a one-bit's switch states, built here by
    demod_fundamental_gain's rule (closed for the first half of each
    subcarrier cycle), mixed down per modulator sample and block-averaged
    to the capture rate, then repeated for each one-bit. Noise is injected
    at the modulator rate with its power scaled so the decimated capture
    sees the same per-sample SNR as ber_point, and the path gain divides
    out the discrete fundamental gain so both models share one signal
    level.
    """
    if n_bits < 1:
        raise ConfigError("need at least one bit")
    bits = rng.integers(0, 2, n_bits).astype(np.uint8)
    amplitude = 1.0 / abs(demod_fundamental_gain())
    factor = round(MODULATOR_RATE_HZ / CAPTURE_RATE_HZ)
    k = np.arange(round(MODULATOR_RATE_HZ / UPLINK_BITRATE_HZ))
    states = ((k // round(MODULATOR_RATE_HZ / (2.0 * SUBCARRIER_HZ))) % 2 == 0)
    mixed = states * np.exp(-2j * math.pi * SUBCARRIER_HZ * k / MODULATOR_RATE_HZ)
    one_bit = 2.0 * amplitude * mixed.reshape(-1, factor).mean(axis=1)
    # per-dimension sigma chosen so block-averaging by `factor` leaves the
    # capture with total complex noise power 10**(-snr/10)
    sigma_hi = 10.0 ** (-snr_db / 20.0) * math.sqrt(factor / 2.0)
    # Draw the modulator-rate noise in bit-aligned chunks and keep only its
    # block means, which add to the decimated envelope.
    chunk_bits = 500
    chunk = np.empty(min(n_bits, chunk_bits) * len(k))
    noise_parts = []
    for lo in range(0, n_bits, chunk_bits):
        buf = chunk[:len(bits[lo:lo + chunk_bits]) * len(k)]
        real = _normals(rng, sigma_hi, buf).reshape(-1, factor).mean(axis=1)
        imag = _normals(rng, sigma_hi, buf).reshape(-1, factor).mean(axis=1)
        noise_parts.append(real + 1j * imag)
    noise = np.concatenate(noise_parts).reshape(n_bits, len(one_bit))
    decided = ap_demodulate(bits[:, None] * one_bit + noise)
    errors = int(np.count_nonzero(decided != bits))
    return errors / n_bits, errors
