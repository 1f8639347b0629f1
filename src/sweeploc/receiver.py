"""Receiver side: envelope detection, peak timing, 2D fixes, logging.

The receiver never sees phase. It samples an envelope-detector output,
finds which AP is transmitting from an 8-bit OOK preamble, locates the
sweep's peak sample, and maps peak time back to a bearing with the same
linear sweep map the transmitter used. Two bearings from two APs give a
2D fix through a precomputed intersection table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .scenario import ApConfig, ConfigError, DetectorConfig, Position, Scenario
from .transmitter import PREAMBLE_PATTERNS, period_samples, sample_rows

PREAMBLE_CORRELATION_THRESHOLD = 0.75


class StoreFullError(RuntimeError):
    """The measurement log is at capacity."""


@dataclass(frozen=True)
class EnvelopeTrace:
    """Sampled detector output in volts, or rows of buffers (rows x
    samples) with one start time t0_s per row (default 0)."""

    volts: np.ndarray
    sample_rate_hz: float
    t0_s: float | np.ndarray = 0.0


def envelope_detect(trace, det: DetectorConfig) -> EnvelopeTrace:
    """Run a field trace, sampled at the detector's output rate, through
    the detector response.

    Instantaneous input power |s|^2 (mW) maps through the monotone response
    to volts, clipping below the sensitivity floor. The output is
    noiseless; pipeline.draw_noise draws the Gaussian output noise for a
    caller to add.
    """
    if trace.sample_rate_hz != det.sample_rate_hz:
        raise ConfigError(f"field rate {trace.sample_rate_hz} Hz must equal the"
                          f" detector rate {det.sample_rate_hz} Hz")
    power = np.abs(trace.samples)  # |s|^2 in mW, then dBm, in place
    np.square(power, out=power)
    with np.errstate(divide="ignore"):
        np.log10(power, out=power)
    return EnvelopeTrace(volts=det.response_volts(np.multiply(10.0, power, out=power)),
                         sample_rate_hz=det.sample_rate_hz)


# --- sweep timing shared by the estimator and the fast ensemble path ------

def sweep_window_samples(ap: ApConfig, sample_rate_hz: float) -> tuple[int, int]:
    """Half-open [first, stop) sample range of the sweep within one period,
    relative to the period's first sample: from the first sample on a
    sweep row (sample_rows) to the period's end."""
    rows = sample_rows(ap, sample_rate_hz)
    first = np.searchsorted(rows, len(PREAMBLE_PATTERNS[ap.preamble_id]))
    return int(first), len(rows)


def angle_from_sample(ap: ApConfig, mode: str, sample_index: int,
                      sample_rate_hz: float) -> float:
    """Invert sweep timing: peak sample index (within a period) to bearing.

    The sweep covers its commanded range linearly in time, so the fraction
    of the sweep elapsed at the peak gives the commanded value back. In
    "alg1" mode that value is the bearing itself; in "uniform-theta" mode
    it is the inter-antenna increment 2*pi*spacing*sin(bearing), mapped
    back through arcsin.
    """
    t = sample_index / sample_rate_hz
    frac = (t - ap.preamble_duration_s) / (ap.sweep_period_s - ap.preamble_duration_s)
    frac = min(max(frac, 0.0), 1.0)
    if mode == "alg1":
        return frac * math.pi - math.pi / 2
    if mode == "uniform-theta":
        increment = frac * 2.0 * math.pi - math.pi
        sine = increment / (2.0 * math.pi * ap.spacing_wavelengths)
        return math.asin(min(max(sine, -1.0), 1.0))
    raise ConfigError(f"unknown sweep mode {mode!r}")


@functools.lru_cache(maxsize=64)
def sample_angles(ap: ApConfig, mode: str, sample_rate_hz: float) -> np.ndarray:
    """angle_from_sample at each sample index of a period; read-only."""
    out = np.array([angle_from_sample(ap, mode, s, sample_rate_hz)
                    for s in range(period_samples(ap, sample_rate_hz))])
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def step_estimate_angles(ap: ApConfig, mode: str,
                         sample_rate_hz: float) -> np.ndarray:
    """Bearing the estimator reports if step m wins the peak search.

    The peak search returns the earliest sample of the winning step, so
    this is angle_from_sample at each step's first sample on the clock
    propagate synthesizes by (sample_rows): vectorized experiments and the
    sample-domain receiver agree by construction. Read-only, as cached.
    """
    first = np.searchsorted(sample_rows(ap, sample_rate_hz),
                            len(PREAMBLE_PATTERNS[ap.preamble_id])
                            + np.arange(ap.sweep_step_count))
    out = sample_angles(ap, mode, sample_rate_hz)[first]
    out.flags.writeable = False
    return out


def sweep_peaks(volts: np.ndarray, period_start: np.ndarray, ap: ApConfig,
                sample_rate_hz: float) -> np.ndarray:
    """estimate_angle's peak search over rows of buffers (rows x samples):
    the earliest maximum of row r's sweep in the period that starts at
    period_start[r], from one argmax over the gathered sweep windows (past
    the buffer's end, its last sample again)."""
    first, stop = sweep_window_samples(ap, sample_rate_hz)
    lo = period_start[:, None] + first
    windows = volts[np.arange(len(volts))[:, None],
                    np.minimum(lo + np.arange(stop - first), volts.shape[-1] - 1)]
    return lo[:, 0] + np.argmax(windows, axis=1)


def estimate_angle(env: EnvelopeTrace, period_start_sample: int, ap: ApConfig,
                   mode: str) -> float:
    """Raw bearing of the period starting at the given sample.

    Scans the sweep portion only (preamble excluded), takes the earliest
    maximum (sweep_peaks on one row), and reads its bearing from
    sample_angles, as Receiver.scan does.
    """
    rate, start = env.sample_rate_hz, period_start_sample
    if start < 0 or start + sweep_window_samples(ap, rate)[1] > len(env.volts):
        raise ConfigError("sweep window extends past the captured buffer")
    peak = int(sweep_peaks(env.volts[None], np.array([start]), ap, rate)[0])
    return float(sample_angles(ap, mode, rate)[peak - start])


def smooth_angle(previous_rad: float | None, raw_rad: float,
                 smoothing: float) -> float:
    """Exponential smoothing: weight `smoothing` on history. None seeds."""
    if not 0.0 <= smoothing < 1.0:
        raise ConfigError("smoothing must be in [0, 1)")
    if previous_rad is None:
        return raw_rad
    return smoothing * previous_rad + (1.0 - smoothing) * raw_rad


@functools.lru_cache(maxsize=64)
def centered_template(pattern: tuple[int, ...],
                      samples_per_bit: int) -> tuple[np.ndarray, float]:
    """The OOK template of a preamble pattern, centered, and its norm.
    Built once per (pattern, samples_per_bit); shared, so read-only."""
    template = np.repeat(np.asarray(pattern, dtype=float), samples_per_bit)
    tc = template - template.mean()
    tc.flags.writeable = False
    return tc, math.sqrt(float(tc @ tc))


def correlate_pattern(volts: np.ndarray, pattern: Iterable[int],
                      samples_per_bit: int) -> np.ndarray:
    """Normalized (Pearson) correlation of the OOK template at every offset
    along the last axis of volts, so of rows of buffers at once. Row sums,
    not a BLAS product whose rounding varies with a row's position, keep
    each value a function of its own window alone."""
    tc, tnorm = centered_template(tuple(pattern), samples_per_bit)
    offsets = max(volts.shape[-1] - len(tc) + 1, 0)
    windows = np.lib.stride_tricks.as_strided(  # read-only sliding windows
        volts, volts.shape[:-1] + (offsets, len(tc)),
        volts.strides + volts.strides[-1:], writeable=False)
    wc = windows - windows.sum(axis=-1, keepdims=True) / len(tc)  # = np.mean, cheaper
    wnorm = np.sqrt((wc * wc).sum(axis=-1))
    num = (wc * tc).sum(axis=-1)
    den = wnorm * tnorm
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


def search_preambles(volts: np.ndarray, ap: ApConfig, sample_rate_hz: float,
                     start: np.ndarray, stop: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """find_preamble over rows of buffers (rows x samples) at once, row r
    searching the template start offsets [start[r], stop[r]). Returns each
    row's earliest best offset, its correlation, and whether it reached
    PREAMBLE_CORRELATION_THRESHOLD (never for an empty window)."""
    spb_f = ap.preamble_bit_duration_s * sample_rate_hz
    spb = round(spb_f)
    if spb < 1 or abs(spb_f - spb) > 1e-6:
        raise ConfigError("preamble bit must span an integer number of samples")
    pattern = PREAMBLE_PATTERNS[ap.preamble_id]
    n, span = volts.shape[-1], len(pattern) * spb - 1
    stop = np.minimum(stop, n - span)
    width = int((stop - start).max(initial=0))
    if width <= 0:
        return start, np.zeros(len(start)), np.zeros(len(start), dtype=bool)
    # each row from its first offset on (past its end: its last sample, masked)
    rows = np.arange(len(volts))
    segment = volts[rows[:, None], np.minimum(
        start[:, None] + np.arange(width + span), n - 1)]
    corr = np.where(np.arange(width) < (stop - start)[:, None],
                    correlate_pattern(segment, pattern, spb), -np.inf)
    best = np.argmax(corr, axis=1)
    peak = corr[rows, best]
    found = (stop > start) & ~(peak < PREAMBLE_CORRELATION_THRESHOLD)
    return start + best, peak, found


def find_preamble(env: EnvelopeTrace, ap: ApConfig, start: int = 0,
                  stop: int | None = None) -> int | None:
    """Start sample of the best correlation offset for this AP's preamble
    in [start, stop), by search_preambles on one row.

    stop bounds the template's *start* offset. Returns None when no offset
    reaches the threshold.
    """
    best, _, found = search_preambles(
        env.volts[None], ap, env.sample_rate_hz, np.array([start]),
        np.array([len(env.volts) if stop is None else stop]))
    return int(best[0]) if found[0] else None


# --- two-AP fix -----------------------------------------------------------

MIN_CROSSING_SINE = 0.05  # reject fixes where the rays are nearly parallel


def _unit_vectors(angles_rad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of each angle through math, so the table equals a
    scalar ray intersection per cell on any numpy build (SIMD sin/cos
    builds may round the last bit differently)."""
    return (np.array([math.cos(a) for a in angles_rad]),
            np.array([math.sin(a) for a in angles_rad]))


TABLE_RESOLUTION_DEG = 1.0  # angular size of a table cell
TABLE_CELLS = round(180.0 / TABLE_RESOLUTION_DEG)  # cells across [-90, 90] degrees
TABLE_CENTERS_RAD = np.deg2rad(-90.0 + (np.arange(TABLE_CELLS) + 0.5)
                               * TABLE_RESOLUTION_DEG)
TABLE_CENTERS_RAD.flags.writeable = False  # shared by every table


class LookupTable:
    """Bearing-pair to position table at TABLE_RESOLUTION_DEG.

    Cell (i, j) stores the exact ray intersection for the pair of cell
    center bearings; unusable pairs hold NaN. Lookup quantizes incoming
    bearings to their cells, mirroring a table a microcontroller would
    carry instead of solving geometry online.
    """

    def __init__(self, ap1: ApConfig, ap2: ApConfig) -> None:
        # The exact intersection of the two bearing rays for every pair at
        # once: rows are AP 1 bearings, columns AP 2. A pair is unusable
        # when the rays are nearly parallel (|sin of the crossing angle|
        # below MIN_CROSSING_SINE) or cross behind either AP.
        u1x, u1y = _unit_vectors(ap1.boresight_rad + TABLE_CENTERS_RAD)
        u2x, u2y = _unit_vectors(ap2.boresight_rad + TABLE_CENTERS_RAD)
        u1x, u1y = u1x[:, None], u1y[:, None]
        den = u1x * u2y - u1y * u2x
        dx = ap2.position.x - ap1.position.x
        dy = ap2.position.y - ap1.position.y
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (dx * u2y - dy * u2x) / den
            t2 = (dx * u1y - dy * u1x) / den
        ok = (np.abs(den) >= MIN_CROSSING_SINE) & (t1 > 0) & (t2 > 0)
        self.xs = np.where(ok, ap1.position.x + t1 * u1x, np.nan)
        self.ys = np.where(ok, ap1.position.y + t1 * u1y, np.nan)

    def cell_index(self, bearing_rad) -> np.ndarray:
        """Cell of each bearing (any shape): floor((deg + 90) / resolution),
        with +90 degrees folded into the top cell; -1 outside the table,
        NaN included."""
        deg = np.degrees(bearing_rad)
        idx = np.floor((deg + 90.0) / TABLE_RESOLUTION_DEG)
        idx = np.where((idx == TABLE_CELLS) & (deg <= 90.0), idx - 1, idx)
        return np.where((idx >= 0) & (idx < TABLE_CELLS), idx, -1).astype(int)


@functools.lru_cache(maxsize=64)
def cached_table(ap1: ApConfig, ap2: ApConfig) -> LookupTable:
    """LookupTable(ap1, ap2), once per AP pair; shared, so read-only."""
    table = LookupTable(ap1, ap2)
    for grid in (table.xs, table.ys):
        grid.flags.writeable = False
    return table


def fix_2d(bearing1_rad, bearing2_rad,
           table: LookupTable) -> tuple[np.ndarray, np.ndarray]:
    """Quantize bearing pairs (scalars or arrays) into the table and return
    the stored fixes as x, y arrays, NaN where there is none: a NaN bearing,
    a bearing outside the table, or a cell pair whose rays are degenerate
    (nearly parallel or crossing behind an AP)."""
    i = table.cell_index(bearing1_rad)
    j = table.cell_index(bearing2_rad)
    hit = (i >= 0) & (j >= 0)
    return (np.where(hit, table.xs[i, j], np.nan),
            np.where(hit, table.ys[i, j], np.nan))


# --- measurement log --------------------------------------------------------

SENSOR_KINDS: dict[str, tuple[int, int]] = {
    # kind -> (tag, value bits); every record is one tagged measurement
    "humidity": (0, 11),
    "temperature": (1, 11),
    "light": (2, 12),
}

RECORD_SIZE_BYTES = 4
LOG_CAPACITY_BYTES = 32768  # the tag's measurement flash
LOG_RECORDS = LOG_CAPACITY_BYTES // RECORD_SIZE_BYTES  # records the flash holds


@dataclass(frozen=True)
class SensorRecord:
    """One logged measurement with the bearings current at log time.

    Packs to exactly 4 bytes: 2-bit kind tag, 12-bit value (11-bit kinds
    zero-extended), two 8-bit angle codes, 2 reserved zero bits.
    """

    kind: str
    value: int
    angle1_code: int
    angle2_code: int

    def __post_init__(self) -> None:
        if self.kind not in SENSOR_KINDS:
            raise ConfigError(f"unknown sensor kind {self.kind!r}")
        bits = SENSOR_KINDS[self.kind][1]
        if not 0 <= self.value < (1 << bits):
            raise ConfigError(f"{self.kind} value must fit {bits} bits")
        for code in (self.angle1_code, self.angle2_code):
            if not 0 <= code <= 255:
                raise ConfigError("angle codes must fit 8 bits")

    def pack(self) -> bytes:
        tag = SENSOR_KINDS[self.kind][0]
        word = (tag << 30) | (self.value << 18) | (self.angle1_code << 10) \
            | (self.angle2_code << 2)
        return word.to_bytes(RECORD_SIZE_BYTES, "big")


@dataclass
class LogStore:
    """The tag's measurement log: LOG_RECORDS records fill its flash."""

    records: list[SensorRecord] = field(default_factory=list)

    def append(self, record: SensorRecord) -> None:
        if len(self.records) >= LOG_RECORDS:
            raise StoreFullError(f"log full at {LOG_RECORDS} records")
        self.records.append(record)


# --- receiver scan ----------------------------------------------------------

@dataclass(frozen=True)
class Scan:
    """Receiver.scan over rows of buffers (or trials x rows). Per row and
    AP (rows x 2): whether its preamble was found, and its raw and smoothed
    bearings and peak time, NaN where it was not. Per row: the fix, NaN
    where there is none."""

    found: np.ndarray
    raw_rad: np.ndarray
    smoothed_rad: np.ndarray
    timestamp_s: np.ndarray
    x_m: np.ndarray
    y_m: np.ndarray


@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of one buffer: the fix, if any."""

    fix: Position | None


class Receiver:
    """Finds each AP's preamble and sweep peak in sample buffers, smooths
    the bearings and fixes each pair.

    Holds only its configuration, read from an already validated Scenario
    (its first two APs, sweep mode and smoothing), and their cached_table,
    so a scan depends on its envelope alone. Buffers must contain at least
    two full sweep periods after the first AP's preamble for a fix to come out.
    """

    def __init__(self, scn: Scenario) -> None:
        if len(scn.aps) < 2:
            raise ConfigError("a 2D receiver needs two APs")
        self.aps = scn.aps[:2]
        self.sweep_mode = scn.sweep_mode
        self.smoothing = scn.smoothing
        self.table = cached_table(*self.aps)

    def process_buffer(self, env: EnvelopeTrace) -> LocalizationResult:
        """Scan one buffer: scan with a batch of one."""
        scan = self.scan(env)
        x, y = float(scan.x_m[0]), float(scan.y_m[0])
        return LocalizationResult(None if math.isnan(x) else Position(x, y))

    def scan(self, env: EnvelopeTrace) -> Scan:
        """The rows of a rows x samples envelope (1-D: one row), or of
        trials x rows x samples, in row order. Each AP's preamble search
        and sweep peak run over all rows at once, AP 2's only where AP 1 was
        found. Each AP's bearings are smoothed over a trial's rows that
        found it, seeded at the first, then all rows are fixed in one
        fix_2d call (NaN where either bearing is missing)."""
        volts, rate = np.atleast_2d(env.volts), env.sample_rate_hz
        lead, volts = volts.shape[:-1], volts.reshape(-1, volts.shape[-1])
        (rows, n), n_period = volts.shape, period_samples(self.aps[0], rate)
        # AP 1 needs two full slots after it; AP 2 needs one.
        start1, _, found1 = search_preambles(
            volts, self.aps[0], rate, np.zeros(rows, int),
            np.full(rows, n - 2 * n_period + 1))
        hi2 = np.minimum(start1 + 2 * n_period - 1, n - n_period + 1)
        start2, _, found2 = search_preambles(volts, self.aps[1], rate,
                                             start1 + n_period, hi2)
        found = np.stack([found1, found1 & found2], axis=1)
        raw, stamp = np.empty((rows, 2)), np.empty((rows, 2))
        for which, (ap, start) in enumerate(zip(self.aps, (start1, start2))):
            # rows that missed this AP get a placeholder peak, masked below
            peak = sweep_peaks(volts, start, ap, rate)
            raw[:, which] = sample_angles(ap, self.sweep_mode, rate)[peak - start]
            stamp[:, which] = np.broadcast_to(env.t0_s, lead).reshape(-1) + peak / rate
        raw[~found] = stamp[~found] = np.nan
        smoothed = raw.copy()
        for track, hits in zip(*(a.reshape(-1, lead[-1], 2) for a in (smoothed, found))):
            for column, column_hits in zip(track.T, hits.T):
                previous = None
                for r in np.flatnonzero(column_hits).tolist():
                    previous = column[r] = smooth_angle(previous, float(column[r]),
                                                        self.smoothing)
        x, y = fix_2d(smoothed[:, 0], smoothed[:, 1], self.table)
        return Scan(*(a.reshape(lead + a.shape[1:])
                      for a in (found, raw, smoothed, stamp, x, y)))
