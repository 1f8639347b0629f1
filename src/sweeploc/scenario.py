"""Scenario configuration: geometry, radio, channel and detector parameters.

Everything downstream (sweep synthesis, channel draws, envelope detection,
experiments) is driven by a Scenario object. Scenarios serialize to YAML and
round-trip bit-exactly, and carry the master seed from which every random
stream in a run is derived.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Any

import numpy as np
import yaml

SPEED_OF_LIGHT = 299_792_458.0

SWEEP_MODES = ("alg1", "uniform-theta")


class ConfigError(ValueError):
    """A scenario or parameter value is out of its valid domain."""


class GeometryError(ValueError):
    """A geometric query has no defined answer (coincident points, etc.)."""


def _integer(value: Any, name: str) -> int:
    """value if it is an integer, a numpy one too, and never a bool or a
    float, even an integral one. The config dataclasses check their int
    fields with it, and so does the YAML loader."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians to the interval (-pi, pi]."""
    return -((-angle + math.pi) % (2.0 * math.pi)) + math.pi


@dataclass(frozen=True)
class Position:
    """A point in the 2D field plane, meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ConfigError(f"position must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: "Position") -> float:
        return math.hypot(other.x - self.x, other.y - self.y)


@dataclass(frozen=True)
class Trajectory:
    """Motion along one straight segment: one waypoint (standing still) or
    a start and a stop, each (time_s, Position); positions_at clamps to the
    ends outside them. propagate synthesizes motion only in slots it spans,
    so each reflected path has one Doppler frequency in every sample."""

    waypoints: tuple[tuple[float, Position], ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.waypoints) <= 2:
            raise ConfigError("trajectory needs one or two waypoints")
        times = [t for t, _ in self.waypoints]
        if any(not math.isfinite(t) for t in times):
            raise ConfigError("waypoint times must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("waypoint times must be strictly increasing")

    @classmethod
    def stationary(cls, pos: Position) -> "Trajectory":
        return cls(((0.0, pos),))

    @classmethod
    def line(cls, start: Position, heading_rad: float, speed_mps: float,
             duration_s: float) -> "Trajectory":
        """Straight segment from start at a constant heading and speed."""
        if speed_mps < 0 or duration_s <= 0:
            raise ConfigError("speed must be >= 0 and duration > 0")
        end = Position(start.x + speed_mps * duration_s * math.cos(heading_rad),
                       start.y + speed_mps * duration_s * math.sin(heading_rad))
        return cls(((0.0, start), (duration_s, end)))

    def positions_at(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The x and y arrays of the position at each of the times t:
        p0 + f*(p1 - p0) on the segment, f = (t - t0)/(t1 - t0), and the end
        points outside it."""
        t = np.asarray(t, dtype=float)
        (t0, p0), (t1, p1) = self.waypoints[0], self.waypoints[-1]
        if len(self.waypoints) == 1:
            return np.full(t.shape, p0.x), np.full(t.shape, p0.y)
        f = (t - t0) / (t1 - t0)
        return tuple(np.where(t <= t0, a, np.where(t >= t1, b, a + f * (b - a)))
                     for a, b in ((p0.x, p1.x), (p0.y, p1.y)))


@dataclass(frozen=True)
class ApConfig:
    """One access point: a linear phased array that sweeps its beam.

    The array lies along the direction boresight_rad + 90 degrees, antenna i
    offset by i * spacing from antenna 0, so a target at bearing b (relative
    to boresight, CCW positive) sees antenna i leading in phase by
    i * 2*pi*spacing_wavelengths * sin(b).
    """

    position: Position
    boresight_rad: float
    antenna_count: int = 4
    spacing_wavelengths: float = 0.5
    carrier_hz: float = 915e6
    tx_power_dbm: float = 28.0
    sweep_period_s: float = 0.050
    preamble_duration_s: float = 0.008
    sweep_step_rad: float = math.pi / 128
    preamble_id: int = 1

    def __post_init__(self) -> None:
        _integer(self.antenna_count, "antenna_count")
        _integer(self.preamble_id, "preamble_id")
        if not 2 <= self.antenna_count <= 8:
            raise ConfigError(f"antenna_count must be in [2, 8], got {self.antenna_count}")
        if not 0.0 < self.spacing_wavelengths <= 0.5:
            raise ConfigError("spacing_wavelengths must be in (0, 0.5]: wider spacing"
                              " has grating lobes, so the bearing is ambiguous")
        if not (math.isfinite(self.carrier_hz) and self.carrier_hz > 0):
            raise ConfigError("carrier_hz must be finite and positive")
        if not (math.isfinite(self.tx_power_dbm) and math.isfinite(self.boresight_rad)):
            raise ConfigError("tx_power_dbm and boresight_rad must be finite")
        if not 0.0 < self.preamble_duration_s < self.sweep_period_s < math.inf:
            raise ConfigError("need 0 < preamble_duration < sweep_period < inf")
        if not self.sweep_step_rad > 0:
            raise ConfigError("sweep_step_rad must be positive")
        steps = math.pi / self.sweep_step_rad
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 \
                or round(steps) < 2:
            raise ConfigError("sweep_step_rad must divide pi into >= 2 equal steps")
        if self.preamble_id not in (1, 2):
            raise ConfigError("preamble_id must be 1 or 2")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def sweep_step_count(self) -> int:
        # Same dwell-slot count in both sweep modes; only the per-step
        # phase values differ.
        return round(math.pi / self.sweep_step_rad)

    @property
    def preamble_bit_duration_s(self) -> float:
        return self.preamble_duration_s / 8.0

    @property
    def sweep_dwell_s(self) -> float:
        return (self.sweep_period_s - self.preamble_duration_s) / self.sweep_step_count


@dataclass(frozen=True)
class ChannelConfig:
    """Multipath and noise model for the downlink field at the receiver."""

    nlos_path_count: int = 3
    multipath_ratio: float = 0.0
    noise_power_dbm: float | None = None
    doppler_enabled: bool = False
    nlos_redraw_distance_m: float = 1.0

    def __post_init__(self) -> None:
        _integer(self.nlos_path_count, "nlos_path_count")
        if not 0 <= self.nlos_path_count <= 16:
            raise ConfigError("nlos_path_count must be in [0, 16]")
        if not 0.0 <= self.multipath_ratio <= 2.0:
            raise ConfigError("multipath_ratio must be in [0, 2]")
        if self.noise_power_dbm is not None and not math.isfinite(self.noise_power_dbm):
            raise ConfigError("noise_power_dbm must be finite or None")
        if not self.nlos_redraw_distance_m > 0:
            raise ConfigError("nlos_redraw_distance_m must be positive")


@dataclass(frozen=True)
class DetectorConfig:
    """Envelope detector: monotone power-to-volts response with a floor.

    response_model "square_law" maps input power P dBm to 10**(P/10) volts
    (1 mW -> 1 V). A response_table of (dbm, volts) pairs interpolates
    linearly in dBm instead. Inputs below the sensitivity floor clip to the
    floor's output voltage. output_noise_volts is the Gaussian sigma added
    at the sampled output; None means a tenth of the floor voltage, small
    enough that the sensitivity floor, not output noise, sets the range
    limit.
    """

    sensitivity_floor_dbm: float = -40.0
    sample_rate_hz: float = 4000.0
    response_model: str = "square_law"
    response_table: tuple[tuple[float, float], ...] | None = None
    output_noise_volts: float | None = None

    def __post_init__(self) -> None:
        if not self.sample_rate_hz > 0:
            raise ConfigError("sample_rate_hz must be positive")
        if not math.isfinite(self.sensitivity_floor_dbm):
            raise ConfigError("sensitivity_floor_dbm must be finite")
        if self.response_model not in ("square_law", "table"):
            raise ConfigError("response_model must be 'square_law' or 'table'")
        if self.response_model == "square_law" and self.response_table is not None:
            raise ConfigError("response_table needs response_model 'table'")
        if self.response_model == "table":
            t = self.response_table
            if not t or len(t) < 2:
                raise ConfigError("table response needs >= 2 points")
            dbm = [p for p, _ in t]
            volts = [v for _, v in t]
            if any(b <= a for a, b in zip(dbm, dbm[1:])):
                raise ConfigError("table dBm points must be strictly increasing")
            if any(b < a for a, b in zip(volts, volts[1:])) or volts[0] < 0:
                raise ConfigError("table volts must be nonnegative and nondecreasing")
        if self.output_noise_volts is not None and not 0 <= self.output_noise_volts < math.inf:
            raise ConfigError("output_noise_volts must be finite and >= 0")

    def response_volts(self, power_dbm: np.ndarray | float) -> np.ndarray:
        """Map input power (dBm) to output volts, clipping below the floor."""
        p = np.asarray(power_dbm, dtype=float)
        p = np.maximum(p, self.sensitivity_floor_dbm, out=np.empty_like(p))
        if self.response_model == "square_law":  # in place: p is a fresh array
            return np.power(10.0, np.divide(p, 10.0, out=p), out=p)
        dbm = np.array([q for q, _ in self.response_table])
        volts = np.array([v for _, v in self.response_table])
        return np.interp(p, dbm, volts)

    @property
    def floor_volts(self) -> float:
        return float(self.response_volts(self.sensitivity_floor_dbm))

    @functools.cached_property  # read once per noise draw, so once per config
    def noise_sigma_volts(self) -> float:
        if self.output_noise_volts is not None:
            return self.output_noise_volts
        return 0.1 * self.floor_volts


@dataclass(frozen=True)
class Scenario:
    """Full simulation scenario: APs, channel, detector, shared constants."""

    aps: tuple[ApConfig, ...]
    channel: ChannelConfig = ChannelConfig()
    detector: DetectorConfig = DetectorConfig()
    sweep_mode: str = "alg1"
    smoothing: float = 0.8
    seed: int = 0
    field_extent_m: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if len(self.aps) < 1:
            raise ConfigError("scenario needs at least one AP")
        if self.sweep_mode not in SWEEP_MODES:
            raise ConfigError(f"sweep_mode must be one of {SWEEP_MODES}")
        if not 0.0 <= self.smoothing < 1.0:
            raise ConfigError("smoothing must be in [0, 1)")
        _integer(self.seed, "seed")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if len(self.aps) >= 2:
            if self.aps[0].preamble_id == self.aps[1].preamble_id:
                raise ConfigError("the first two APs must use distinct preamble ids")
            periods = {ap.sweep_period_s for ap in self.aps}
            if len(periods) != 1:
                raise ConfigError("all APs must share one sweep period for TDMA")
        if self.field_extent_m is not None:
            w, h = self.field_extent_m
            if not (0 < w < math.inf and 0 < h < math.inf):
                raise ConfigError("field_extent_m must be finite and positive")
        fs = self.detector.sample_rate_hz
        for ap in self.aps:
            # First, so the counts below are finite and round() can take them.
            n_period = ap.sweep_period_s * fs
            if not math.isfinite(n_period) or abs(n_period - round(n_period)) > 1e-6:
                raise ConfigError("sweep period must span an integer number of"
                                  f" detector samples, not {n_period:g}")
            if ap.sweep_dwell_s * fs < 1.0 - 1e-9:
                raise ConfigError("each sweep step must span >= 1 detector sample")
            spb = ap.preamble_bit_duration_s * fs
            if spb < 1.0 - 1e-9 or abs(spb - round(spb)) > 1e-6:
                raise ConfigError("preamble bit must span an integer number of samples")

    @property
    def round_s(self) -> float:
        """One TDMA round: every AP's sweep period back to back."""
        return len(self.aps) * self.aps[0].sweep_period_s


def true_bearing_xy(ap: ApConfig, x: float, y: float) -> float:
    """Bearing of the point (x, y) as seen from the AP, relative to
    boresight, in (-pi, pi]. math.atan2, not np.arctan2: the two differ in
    the last bit on some numpy builds."""
    dx = x - ap.position.x
    dy = y - ap.position.y
    if dx == 0.0 and dy == 0.0:
        raise GeometryError("bearing undefined: target coincides with the AP")
    return wrap_angle(math.atan2(dy, dx) - ap.boresight_rad)


def free_space_loss_db(distance_m: float, carrier_hz: float) -> float:
    """Free-space path loss 20*log10(4*pi*d/lambda), dB."""
    if not (distance_m > 0 and carrier_hz > 0):
        raise ConfigError("free-space loss needs distance > 0 and carrier > 0")
    return float(20.0 * np.log10(4.0 * math.pi * distance_m * carrier_hz / SPEED_OF_LIGHT))


def _key_words(part: int | str) -> tuple[int, ...]:
    # Map one key part onto uint32 words, platform independent.
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        value = int.from_bytes(digest[:8], "big")
    else:
        value = int(part) & (2 ** 64 - 1)
    return (value >> 32, value & 0xFFFFFFFF)


def trial_rng(seed: int, *key: int | str) -> np.random.Generator:
    """Independent generator for one (experiment, cell, trial...) key.

    Streams depend only on (seed, key), never on draw order elsewhere, so
    results are reproducible under any parallel dispatch.
    """
    words: list[int] = []
    for part in key:
        words.extend(_key_words(part))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(words)))


def _normals(rng: np.random.Generator, sigma: float, out: np.ndarray) -> np.ndarray:
    """Fill a contiguous float64 buffer with N(0, sigma) draws and return it:
    bitwise Generator.normal(0.0, sigma, out.size), which is 0.0 + sigma * z."""
    if not 0.0 <= sigma < math.inf:
        raise ConfigError(f"noise sigma must be finite and >= 0, got {sigma}")
    rng.standard_normal(out=out)
    if sigma == 0.0:  # 0.0 + 0.0 * z is +0.0 even where z < 0
        out.fill(0.0)
    return np.multiply(out, sigma, out=out)


_SCRATCH = threading.local()


def _scratch(role: str, shape: tuple[int, ...], dtype: type = float) -> np.ndarray:
    """This thread's buffer for one role, kept from call to call and
    reallocated only when a call needs more room than any before. Allocated
    afresh, temporaries went back to the OS after every call and were
    faulted in again on the next: a third of a track trial's time, and a
    sixth of an uplink call's. No public function returns a scratch buffer:
    each returns a fresh array or the out argument its caller passed."""
    count = math.prod(shape)
    buf = getattr(_SCRATCH, role, None)
    if buf is None or buf.size < count or buf.dtype != dtype:
        buf = np.empty(count, dtype)
        setattr(_SCRATCH, role, buf)
    return buf[:count].reshape(shape)


# --- YAML serialization ---------------------------------------------------
#
# Both directions walk dataclasses.fields, so a field is named once, in its
# dataclass. Only position, the angles' _deg spellings and the nested aps,
# channel and detector are read by hand.

def _plain(value: Any) -> Any:
    """value as YAML data: a config dataclass as the mapping of its fields,
    a Position as [x, y], a tuple as a new list (so no YAML aliases)."""
    if isinstance(value, Position):
        return [value.x, value.y]
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _finite(value: Any, name: str) -> float:
    """value as a float; booleans, NaN and infinities are errors. A string
    is read by float(), as YAML 1.1 leaves exponents like 1e-3 strings."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return x


def _boolean(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _text(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _pair(value: Any, name: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{name} must be a pair [a, b], got {value!r}")
    return _finite(value[0], name), _finite(value[1], name)


def _pairs(value: Any, name: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of [a, b] pairs, got {value!r}")
    return tuple(_pair(p, name) for p in value)


def _optional(parse):
    return lambda value, name: None if value is None else parse(value, name)


# One parser per field annotation (a string, by the __future__ import).
_PARSERS = {
    "int": _integer,
    "float": _finite,
    "bool": _boolean,
    "str": _text,
    "float | None": _optional(_finite),
    "tuple[float, float] | None": _optional(_pair),
    "tuple[tuple[float, float], ...] | None": _optional(_pairs),
}


def _parse(m: Any, cls: type, where: str, special: tuple[str, ...] = ()
           ) -> dict[str, Any]:
    """Keyword arguments of cls from one mapping level, except its special
    fields, which the caller reads. Unknown keys and missing required
    fields are errors; a null level is an empty one."""
    if m is None:
        m = {}
    if not isinstance(m, dict):
        raise ConfigError(f"{where} must be a mapping, got {m!r}")
    known = fields(cls)
    unknown = sorted(str(k) for k in m if k not in {f.name for f in known})
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")
    for f in known:
        if f.name not in m and f.default is MISSING \
                and f.default_factory is MISSING:
            raise ConfigError(f"missing {where}.{f.name}")
    return {f.name: _PARSERS[f.type](m[f.name], f"{where}.{f.name}")
            for f in known if f.name in m and f.name not in special}


def _ap_from_mapping(m: Any) -> ApConfig:
    if isinstance(m, dict):
        m = dict(m)  # angles may be given in degrees; rewrite them as _rad
        for stem in ("boresight", "sweep_step"):
            rad, deg = f"{stem}_rad", f"{stem}_deg"
            if deg in m:
                if rad in m:
                    raise ConfigError(f"give ap.{rad} or ap.{deg}, not both")
                m[rad] = math.radians(_finite(m.pop(deg), f"ap.{deg}"))
    kwargs = _parse(m, ApConfig, "ap", ("position",))
    return ApConfig(position=Position(*_pair(m["position"], "ap.position")),
                    **kwargs)


def scenario_from_mapping(m: dict[str, Any]) -> Scenario:
    """Build a Scenario from its YAML mapping, refusing unknown or missing
    keys, values of the wrong type and non-finite numbers at every level."""
    kwargs = _parse(m, Scenario, "scenario", ("aps", "channel", "detector"))
    if not isinstance(m["aps"], (list, tuple)):
        raise ConfigError(f"scenario.aps must be a list of APs, got {m['aps']!r}")
    return Scenario(
        aps=tuple(_ap_from_mapping(a) for a in m["aps"]),
        channel=ChannelConfig(**_parse(m.get("channel"), ChannelConfig,
                                       "channel")),
        detector=DetectorConfig(**_parse(m.get("detector"), DetectorConfig,
                                         "detector")),
        **kwargs)


def scenario_to_yaml(scn: Scenario) -> str:
    return yaml.safe_dump(_plain(scn), default_flow_style=False,
                          sort_keys=True)


def load_scenario(text: str) -> Scenario:
    try:
        mapping = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid scenario YAML: {exc}") from exc
    return scenario_from_mapping(mapping)


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


# Keyed on repr, not on the Scenario: scenarios with boresight 0.0 and -0.0
# compare and hash equal but serialize differently, and a list-valued field
# makes a scenario unhashable.
_DIGESTS: dict[str, str] = {}


def scenario_digest(scn: Scenario) -> str:
    """Stable sha256 of the canonical serialized scenario (first 16 hex),
    serialized once per distinct scenario."""
    key = repr(scn)
    if key not in _DIGESTS:
        if len(_DIGESTS) >= 64:
            del _DIGESTS[next(iter(_DIGESTS))]  # the oldest entry
        text = scenario_to_yaml(scn)
        _DIGESTS[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return _DIGESTS[key]
