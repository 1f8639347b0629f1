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

from .scenario import ApConfig, ConfigError, DetectorConfig, Position
from .transmitter import PREAMBLE_PATTERNS

PREAMBLE_CORRELATION_THRESHOLD = 0.75


class LowConfidenceFixError(ValueError):
    """The two bearings do not intersect in a usable way."""


class StoreFullError(RuntimeError):
    """The measurement log is at capacity."""


@dataclass(frozen=True)
class EnvelopeTrace:
    """Sampled detector output: volts plus a below-floor flag per sample,
    or rows of buffers (rows x samples) with one start time t0_s per row."""

    volts: np.ndarray
    sample_rate_hz: float
    t0_s: float | np.ndarray
    floor_clipped: np.ndarray


def envelope_detect(trace, det: DetectorConfig) -> EnvelopeTrace:
    """Run a field trace through the detector response and output sampler.

    Instantaneous input power |s|^2 (mW) maps through the monotone response
    to volts, clipping below the sensitivity floor. If the field is
    oversampled relative to the detector output rate the response output is
    block-averaged down. The output is noiseless; detector_noise draws the
    Gaussian output noise for a caller to add.
    """
    factor_f = trace.sample_rate_hz / det.sample_rate_hz
    factor = round(factor_f)
    if factor < 1 or abs(factor_f - factor) > 1e-9:
        raise ConfigError("field rate must be an integer multiple of detector rate")
    power_mw = np.abs(trace.samples) ** 2
    with np.errstate(divide="ignore"):
        power_dbm = 10.0 * np.log10(power_mw)
    volts = det.response_volts(power_dbm)
    clipped = power_dbm < det.sensitivity_floor_dbm
    if factor > 1:
        n = (len(volts) // factor) * factor
        volts = volts[:n].reshape(-1, factor).mean(axis=1)
        clipped = clipped[:n].reshape(-1, factor).all(axis=1)
    return EnvelopeTrace(volts=volts, sample_rate_hz=det.sample_rate_hz,
                         t0_s=trace.t0_s, floor_clipped=clipped)


def detector_noise(det: DetectorConfig, n: int,
                   rng: np.random.Generator) -> np.ndarray | None:
    """n samples of the detector's Gaussian output noise, or None (drawing
    nothing) for a noiseless detector."""
    if det.noise_sigma_volts <= 0:
        return None
    return rng.normal(0.0, det.noise_sigma_volts, n)


# --- sweep timing shared by the estimator and the fast ensemble path ------

def _ceil_tol(x: float) -> int:
    # ceil robust to float representation of exact products like 0.008*4000
    return math.ceil(x - 1e-9)


def sweep_window_samples(ap: ApConfig, sample_rate_hz: float) -> tuple[int, int]:
    """Half-open [first, stop) sample range of the sweep within one period,
    relative to the period's first sample."""
    first = _ceil_tol(ap.preamble_duration_s * sample_rate_hz)
    stop = _ceil_tol(ap.sweep_period_s * sample_rate_hz)
    return first, stop


def period_samples(ap: ApConfig, sample_rate_hz: float) -> int:
    return round(ap.sweep_period_s * sample_rate_hz)


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
def step_estimate_angles(ap: ApConfig, mode: str,
                         sample_rate_hz: float) -> np.ndarray:
    """Bearing the estimator reports if step m wins the peak search.

    The peak search returns the earliest sample of the winning step, so
    this is angle_from_sample at each step's first covering sample. Kept
    in one place so vectorized experiments and the sample-domain receiver
    agree exactly. Built once per argument set, so the result is read-only.
    """
    dwell = ap.sweep_dwell_s
    out = np.empty(ap.sweep_step_count)
    for m in range(ap.sweep_step_count):
        s = _ceil_tol((ap.preamble_duration_s + m * dwell) * sample_rate_hz)
        out[m] = angle_from_sample(ap, mode, s, sample_rate_hz)
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


@dataclass(frozen=True)
class AngleEstimate:
    """One raw bearing from one sweep, plus its smoothed value."""

    ap_index: int
    raw_rad: float
    smoothed_rad: float
    peak_sample: int
    timestamp_s: float


def estimate_angle(env: EnvelopeTrace, period_start_sample: int, ap: ApConfig,
                   mode: str, ap_index: int = 0) -> AngleEstimate:
    """Peak-sample bearing estimate for the period starting at the given sample.

    Scans the sweep portion only (preamble excluded), takes the earliest
    maximum (sweep_peaks on one row), and inverts the sweep's linear time
    map. The smoothed value is the raw one; Receiver smooths across sweeps.
    """
    rate, start = env.sample_rate_hz, period_start_sample
    if start < 0 or start + sweep_window_samples(ap, rate)[1] > len(env.volts):
        raise ConfigError("sweep window extends past the captured buffer")
    peak = int(sweep_peaks(env.volts[None], np.array([start]), ap, rate)[0])
    raw = angle_from_sample(ap, mode, peak - start, rate)
    return AngleEstimate(ap_index, raw, raw, peak, env.t0_s + peak / rate)


def smooth_angle(previous_rad: float | None, raw_rad: float,
                 smoothing: float) -> float:
    """Exponential smoothing: weight `smoothing` on history. None seeds."""
    if not 0.0 <= smoothing < 1.0:
        raise ConfigError("smoothing must be in [0, 1)")
    if previous_rad is None:
        return raw_rad
    return smoothing * previous_rad + (1.0 - smoothing) * raw_rad


@dataclass(frozen=True)
class PreambleDetection:
    preamble_id: int
    start_sample: int
    correlation: float


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
                     start: np.ndarray, stop: np.ndarray,
                     threshold: float = PREAMBLE_CORRELATION_THRESHOLD
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """find_preamble over rows of buffers (rows x samples) at once, row r
    searching the template start offsets [start[r], stop[r]). Returns each
    row's earliest best offset, its correlation, and whether it reached
    the threshold (never for an empty window)."""
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
    return start + best, peak, (stop > start) & ~(peak < threshold)


def find_preamble(env: EnvelopeTrace, ap: ApConfig, start: int = 0,
                  stop: int | None = None,
                  threshold: float = PREAMBLE_CORRELATION_THRESHOLD
                  ) -> PreambleDetection | None:
    """Best correlation offset for this AP's preamble in [start, stop), by
    search_preambles on one row.

    stop bounds the template's *start* offset. Returns None when no offset
    reaches the threshold.
    """
    best, corr, found = search_preambles(
        env.volts[None], ap, env.sample_rate_hz, np.array([start]),
        np.array([len(env.volts) if stop is None else stop]), threshold)
    return (PreambleDetection(ap.preamble_id, int(best[0]), float(corr[0]))
            if found[0] else None)


# --- two-AP fix -----------------------------------------------------------

MIN_CROSSING_SINE = 0.05  # reject fixes where the rays are nearly parallel


def intersect_bearings(ap1: ApConfig, bearing1_rad: float, ap2: ApConfig,
                       bearing2_rad: float) -> Position | None:
    """Exact intersection of the two bearing rays, or None if degenerate.

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


def _unit_vectors(angles_rad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of each angle through math, as intersect_bearings takes
    them, so the table equals its loop on any numpy build (SIMD sin/cos
    builds may round the last bit differently)."""
    return (np.array([math.cos(a) for a in angles_rad]),
            np.array([math.sin(a) for a in angles_rad]))


@dataclass(frozen=True)
class LocationFix:
    position: Position
    timestamp_s: float
    bearing1_rad: float
    bearing2_rad: float


class LookupTable:
    """Bearing-pair to position table at fixed angular resolution.

    Cell (i, j) stores the exact ray intersection for the pair of cell
    center bearings; unusable pairs hold NaN. Lookup quantizes incoming
    bearings to their cells, mirroring a table a microcontroller would
    carry instead of solving geometry online.
    """

    def __init__(self, ap1: ApConfig, ap2: ApConfig,
                 resolution_deg: float = 1.0) -> None:
        if not 0.0 < resolution_deg <= 30.0:
            raise ConfigError("resolution_deg must be in (0, 30]")
        self.ap1 = ap1
        self.ap2 = ap2
        self.resolution_deg = resolution_deg
        self.cell_count = round(180.0 / resolution_deg)
        if abs(self.cell_count * resolution_deg - 180.0) > 1e-9:
            raise ConfigError("resolution_deg must divide 180 evenly")
        centers = -90.0 + (np.arange(self.cell_count) + 0.5) * resolution_deg
        self.centers_rad = np.deg2rad(centers)
        # intersect_bearings for every pair at once, with its arithmetic
        # and its degeneracy rules: rows are AP 1 bearings, columns AP 2.
        u1x, u1y = _unit_vectors(ap1.boresight_rad + self.centers_rad)
        u2x, u2y = _unit_vectors(ap2.boresight_rad + self.centers_rad)
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

    def cell_index(self, bearing_rad: float) -> int:
        deg = math.degrees(bearing_rad)
        idx = math.floor((deg + 90.0) / self.resolution_deg)
        if idx == self.cell_count and deg <= 90.0:
            idx -= 1  # +90 degrees belongs to the top cell
        if not 0 <= idx < self.cell_count:
            raise LowConfidenceFixError(f"bearing {deg:.2f} deg outside the table")
        return idx


def fix_2d(bearing1_rad: float, bearing2_rad: float, table: LookupTable,
           timestamp_s: float = 0.0) -> LocationFix:
    """Quantize two bearings into the table and return the stored fix.

    Raises LowConfidenceFixError for out-of-range bearings or cells whose
    rays are degenerate (nearly parallel or crossing behind an AP).
    """
    i = table.cell_index(bearing1_rad)
    j = table.cell_index(bearing2_rad)
    x = table.xs[i, j]
    if not math.isfinite(x):
        raise LowConfidenceFixError("bearing pair has no usable intersection")
    return LocationFix(position=Position(float(x), float(table.ys[i, j])),
                       timestamp_s=timestamp_s,
                       bearing1_rad=bearing1_rad, bearing2_rad=bearing2_rad)


# --- measurement log --------------------------------------------------------

SENSOR_KINDS: dict[str, tuple[int, int]] = {
    # kind -> (tag, value bits); every record is one tagged measurement
    "humidity": (0, 11),
    "temperature": (1, 11),
    "light": (2, 12),
}

_TAG_TO_KIND = {tag: kind for kind, (tag, _) in SENSOR_KINDS.items()}

RECORD_SIZE_BYTES = 4


def angle_code(bearing_rad: float) -> int:
    """Quantize a bearing in [-90, 90] degrees to an 8-bit code."""
    deg = min(max(math.degrees(bearing_rad), -90.0), 90.0)
    return round((deg + 90.0) / 180.0 * 255.0)


def angle_from_code(code: int) -> float:
    if not 0 <= code <= 255:
        raise ConfigError("angle code must fit 8 bits")
    return math.radians(code / 255.0 * 180.0 - 90.0)


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

    @classmethod
    def unpack(cls, data: bytes) -> "SensorRecord":
        if len(data) != RECORD_SIZE_BYTES:
            raise ConfigError("a packed record is exactly 4 bytes")
        word = int.from_bytes(data, "big")
        tag = word >> 30
        if tag not in _TAG_TO_KIND:
            raise ConfigError(f"unknown kind tag {tag}")
        if word & 0x3:
            raise ConfigError("reserved bits must be zero")
        return cls(kind=_TAG_TO_KIND[tag], value=(word >> 18) & 0xFFF,
                   angle1_code=(word >> 10) & 0xFF,
                   angle2_code=(word >> 2) & 0xFF)


@dataclass
class LogStore:
    """Fixed-capacity measurement log, sized in bytes like the real flash."""

    capacity_bytes: int = 32768
    records: list[SensorRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity_bytes < RECORD_SIZE_BYTES:
            raise ConfigError("capacity must hold at least one record")

    @property
    def max_records(self) -> int:
        return self.capacity_bytes // RECORD_SIZE_BYTES

    @property
    def used_bytes(self) -> int:
        return len(self.records) * RECORD_SIZE_BYTES

    def append(self, record: SensorRecord) -> None:
        if len(self.records) >= self.max_records:
            raise StoreFullError(f"log full at {self.max_records} records")
        self.records.append(record)

    def clear(self) -> None:
        self.records.clear()

    def dump(self) -> bytes:
        return b"".join(r.pack() for r in self.records)

    @classmethod
    def restore(cls, data: bytes, capacity_bytes: int = 32768) -> "LogStore":
        if len(data) % RECORD_SIZE_BYTES:
            raise ConfigError("dump length must be a multiple of 4 bytes")
        store = cls(capacity_bytes=capacity_bytes)
        for k in range(0, len(data), RECORD_SIZE_BYTES):
            store.append(SensorRecord.unpack(data[k:k + RECORD_SIZE_BYTES]))
        return store


# --- stateful driver --------------------------------------------------------

@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of one buffer scan: detections, angles, and the fix if any."""

    detections: tuple[PreambleDetection | None, PreambleDetection | None]
    angles: tuple[AngleEstimate | None, AngleEstimate | None]
    fix: LocationFix | None
    low_confidence: bool = False

    @property
    def ok(self) -> bool:
        return self.fix is not None


class Receiver:
    """Runs the capture-scan-estimate-smooth-fix loop over sample buffers.

    Keeps one smoothed bearing per AP across calls and an optional
    measurement log. Buffers must contain at least two full sweep periods
    after the first AP's preamble for a fix to come out.
    """

    def __init__(self, aps: tuple[ApConfig, ApConfig], sweep_mode: str,
                 smoothing: float, table: LookupTable | None = None,
                 store: LogStore | None = None) -> None:
        if len(aps) < 2:
            raise ConfigError("a 2D receiver needs two APs")
        self.aps = aps
        self.sweep_mode = sweep_mode
        self.smoothing = smoothing
        self.table = table if table is not None else LookupTable(aps[0], aps[1])
        self.store = store if store is not None else LogStore()
        self.smoothed: list[float | None] = [None, None]
        self.fixes: list[LocationFix] = []

    def process_buffer(self, env: EnvelopeTrace) -> LocalizationResult:
        """Scan one buffer: scan with a batch of one."""
        return self.scan(env)[0]

    def scan(self, env: EnvelopeTrace) -> list[LocalizationResult]:
        """process_buffer over each row of a rows x samples envelope (a 1-D
        envelope is one row), in row order. Each AP's preamble search and
        sweep peak run over all rows at once; a plain loop over the rows
        then smooths and fixes, skipping AP 2 where AP 1 was missed."""
        volts, rate = np.atleast_2d(env.volts), env.sample_rate_hz
        (rows, n), n_period = volts.shape, period_samples(self.aps[0], rate)
        # det1 needs two full slots after it; det2 needs one.
        det1 = search_preambles(volts, self.aps[0], rate, np.zeros(rows, int),
                                np.full(rows, n - 2 * n_period + 1))
        start1 = det1[0]
        hi2 = np.minimum(start1 + 2 * n_period - 1, n - n_period + 1)
        det2 = search_preambles(volts, self.aps[1], rate, start1 + n_period, hi2)
        per_ap = []
        for ap, (start, corr, found) in zip(self.aps, (det1, det2)):
            # rows that missed this AP get a placeholder peak, never read
            peak = sweep_peaks(volts, start, ap, rate)
            per_ap.append(zip(*(a.tolist() for a in (
                found, start, corr, peak, env.t0_s + peak / rate))))
        results = []
        for row in zip(*per_ap):
            dets, ests = [None, None], [None, None]
            for which, (found, start, corr, peak, stamp) in enumerate(row):
                if not found:
                    break
                ap = self.aps[which]
                raw = angle_from_sample(ap, self.sweep_mode, peak - start, rate)
                smoothed = smooth_angle(self.smoothed[which], raw, self.smoothing)
                self.smoothed[which] = smoothed
                dets[which] = PreambleDetection(ap.preamble_id, start, corr)
                ests[which] = AngleEstimate(which, raw, smoothed, peak, stamp)
            fix, low = None, False
            if ests[1] is not None:
                try:
                    fix = fix_2d(ests[0].smoothed_rad, ests[1].smoothed_rad,
                                 self.table, timestamp_s=ests[1].timestamp_s)
                    self.fixes.append(fix)
                except LowConfidenceFixError:
                    low = True
            results.append(LocalizationResult(tuple(dets), tuple(ests), fix, low))
        return results

    def log_measurement(self, kind: str, value: int) -> SensorRecord:
        """Append one measurement stamped with the current smoothed bearings."""
        b1 = self.smoothed[0] if self.smoothed[0] is not None else 0.0
        b2 = self.smoothed[1] if self.smoothed[1] is not None else 0.0
        record = SensorRecord(kind=kind, value=value,
                              angle1_code=angle_code(b1), angle2_code=angle_code(b2))
        self.store.append(record)
        return record
