"""Scenario configuration: geometry, radio, channel and detector parameters.

Everything downstream (sweep synthesis, channel draws, envelope detection,
experiments) is driven by a Scenario object. Scenarios serialize to YAML and
round-trip bit-exactly, and carry the master seed from which every random
stream in a run is derived.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np
import yaml

SPEED_OF_LIGHT = 299_792_458.0

SWEEP_MODES = ("alg1", "uniform-theta")


class ConfigError(ValueError):
    """A scenario or parameter value is out of its valid domain."""


class GeometryError(ValueError):
    """A geometric query has no defined answer (coincident points, etc.)."""


def wrap_angle(angle: float | np.ndarray) -> float | np.ndarray:
    """Wrap an angle in radians to the interval (-pi, pi]."""
    wrapped = -np.mod(-np.asarray(angle) + np.pi, 2.0 * np.pi) + np.pi
    if np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


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
    """Piecewise-linear motion: waypoints of (time_s, Position).

    Before the first waypoint and after the last the position is clamped
    (zero velocity).
    """

    waypoints: tuple[tuple[float, Position], ...]

    def __post_init__(self) -> None:
        if len(self.waypoints) < 1:
            raise ConfigError("trajectory needs at least one waypoint")
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

    def position_at(self, t: float) -> Position:
        pts = self.waypoints
        if t <= pts[0][0] or len(pts) == 1:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        for (t0, p0), (t1, p1) in zip(pts, pts[1:]):
            if t0 <= t < t1:
                f = (t - t0) / (t1 - t0)
                return Position(p0.x + f * (p1.x - p0.x), p0.y + f * (p1.y - p0.y))
        return pts[-1][1]


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
        if not 2 <= self.antenna_count <= 8:
            raise ConfigError(f"antenna_count must be in [2, 8], got {self.antenna_count}")
        if not 0.0 < self.spacing_wavelengths <= 0.5:
            raise ConfigError("spacing_wavelengths must be in (0, 0.5]: wider spacing"
                              " has grating lobes, so the bearing is ambiguous")
        if self.carrier_hz <= 0:
            raise ConfigError("carrier_hz must be positive")
        if not 0.0 < self.preamble_duration_s < self.sweep_period_s:
            raise ConfigError("need 0 < preamble_duration < sweep_period")
        if self.sweep_step_rad <= 0:
            raise ConfigError("sweep_step_rad must be positive")
        steps = math.pi / self.sweep_step_rad
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 2:
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
        if not 0 <= self.nlos_path_count <= 16:
            raise ConfigError("nlos_path_count must be in [0, 16]")
        if not 0.0 <= self.multipath_ratio <= 2.0:
            raise ConfigError("multipath_ratio must be in [0, 2]")
        if self.noise_power_dbm is not None and not math.isfinite(self.noise_power_dbm):
            raise ConfigError("noise_power_dbm must be finite or None")
        if self.nlos_redraw_distance_m <= 0:
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
        if self.sample_rate_hz <= 0:
            raise ConfigError("sample_rate_hz must be positive")
        if self.response_model not in ("square_law", "table"):
            raise ConfigError("response_model must be 'square_law' or 'table'")
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
        if self.output_noise_volts is not None and self.output_noise_volts < 0:
            raise ConfigError("output_noise_volts must be >= 0")

    def response_volts(self, power_dbm: np.ndarray | float) -> np.ndarray:
        """Map input power (dBm) to output volts, clipping below the floor."""
        p = np.maximum(np.asarray(power_dbm, dtype=float), self.sensitivity_floor_dbm)
        if self.response_model == "square_law":
            return 10.0 ** (p / 10.0)
        dbm = np.array([q for q, _ in self.response_table])
        volts = np.array([v for _, v in self.response_table])
        return np.interp(p, dbm, volts)

    @property
    def floor_volts(self) -> float:
        return float(self.response_volts(self.sensitivity_floor_dbm))

    @property
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
            if w <= 0 or h <= 0:
                raise ConfigError("field_extent_m must be positive")
        fs = self.detector.sample_rate_hz
        for ap in self.aps:
            if ap.sweep_dwell_s * fs < 1.0 - 1e-9:
                raise ConfigError("each sweep step must span >= 1 detector sample")
            spb = ap.preamble_bit_duration_s * fs
            if spb < 1.0 - 1e-9 or abs(spb - round(spb)) > 1e-6:
                raise ConfigError("preamble bit must span an integer number of samples")


def true_bearing(ap: ApConfig, pos: Position) -> float:
    """Bearing of pos as seen from the AP, relative to boresight, in (-pi, pi]."""
    dx = pos.x - ap.position.x
    dy = pos.y - ap.position.y
    if dx == 0.0 and dy == 0.0:
        raise GeometryError("bearing undefined: target coincides with the AP")
    return wrap_angle(math.atan2(dy, dx) - ap.boresight_rad)


def free_space_loss_db(distance_m: float | np.ndarray, carrier_hz: float) -> float | np.ndarray:
    """Free-space path loss 20*log10(4*pi*d/lambda), dB."""
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0) or carrier_hz <= 0:
        raise ConfigError("free-space loss needs distance > 0 and carrier > 0")
    loss = 20.0 * np.log10(4.0 * math.pi * d * carrier_hz / SPEED_OF_LIGHT)
    if np.ndim(distance_m) == 0:
        return float(loss)
    return loss


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


# --- YAML serialization ---------------------------------------------------

def _ap_to_mapping(ap: ApConfig) -> dict[str, Any]:
    return {
        "position": [ap.position.x, ap.position.y],
        "boresight_rad": ap.boresight_rad,
        "antenna_count": ap.antenna_count,
        "spacing_wavelengths": ap.spacing_wavelengths,
        "carrier_hz": ap.carrier_hz,
        "tx_power_dbm": ap.tx_power_dbm,
        "sweep_period_s": ap.sweep_period_s,
        "preamble_duration_s": ap.preamble_duration_s,
        "sweep_step_rad": ap.sweep_step_rad,
        "preamble_id": ap.preamble_id,
    }


def _finite(value: Any, name: str) -> float:
    """value as a float; non-numbers, NaN and infinities are errors."""
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


def _as(kind):
    return lambda value, name: kind(value)


def _optional(parse):
    return lambda value, name: None if value is None else parse(value, name)


def _pair(value: Any, name: str) -> tuple[float, float]:
    try:
        a, b = value
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a pair [a, b]") from exc
    return _finite(a, name), _finite(b, name)


_AP_FIELDS = {
    "antenna_count": _as(int),
    "preamble_id": _as(int),
    **dict.fromkeys(("spacing_wavelengths", "carrier_hz", "tx_power_dbm",
                     "sweep_period_s", "preamble_duration_s"), _finite),
}
# Read by _ap_from_mapping itself; angles also accept a _deg spelling.
_AP_SPECIAL = ("position", "boresight_rad", "boresight_deg",
               "sweep_step_rad", "sweep_step_deg")
_CHANNEL_FIELDS = {
    "nlos_path_count": _as(int),
    "multipath_ratio": _finite,
    "noise_power_dbm": _optional(_finite),
    "doppler_enabled": _boolean,
    "nlos_redraw_distance_m": _finite,
}
_DETECTOR_FIELDS = {
    "sensitivity_floor_dbm": _finite,
    "sample_rate_hz": _finite,
    "response_model": _as(str),
    "response_table": _optional(lambda v, name: tuple(_pair(p, name) for p in v)),
    "output_noise_volts": _optional(_finite),
}
_SCENARIO_FIELDS = {
    "sweep_mode": _as(str),
    "smoothing": _finite,
    "seed": _as(int),
    "field_extent_m": _optional(_pair),
}


def _parse(m: Any, fields: dict, where: str, special: tuple[str, ...] = ()
           ) -> dict[str, Any]:
    """Parse the keys of one mapping level; unknown keys are errors."""
    if m is None:
        m = {}
    if not isinstance(m, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(str(k) for k in m if k not in fields and k not in special)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")
    return {name: parse(m[name], f"{where}.{name}")
            for name, parse in fields.items() if name in m}


def _angle_from_mapping(m: dict[str, Any], stem: str, default: float | None = None) -> float:
    # Accept either <stem>_rad or <stem>_deg on input; output always _rad.
    if f"{stem}_rad" in m and f"{stem}_deg" in m:
        raise ConfigError(f"give {stem}_rad or {stem}_deg, not both")
    if f"{stem}_rad" in m:
        return _finite(m[f"{stem}_rad"], f"ap.{stem}_rad")
    if f"{stem}_deg" in m:
        return math.radians(_finite(m[f"{stem}_deg"], f"ap.{stem}_deg"))
    if default is None:
        raise ConfigError(f"missing {stem}_rad (or {stem}_deg)")
    return default


def _ap_from_mapping(m: dict[str, Any]) -> ApConfig:
    kwargs = _parse(m, _AP_FIELDS, "ap", _AP_SPECIAL)
    if "position" not in m:
        raise ConfigError("ap.position must be [x, y]")
    x, y = _pair(m["position"], "ap.position")
    return ApConfig(
        position=Position(x, y),
        boresight_rad=_angle_from_mapping(m, "boresight"),
        sweep_step_rad=_angle_from_mapping(m, "sweep_step", math.pi / 128),
        **kwargs)


def scenario_to_mapping(scn: Scenario) -> dict[str, Any]:
    return {
        "sweep_mode": scn.sweep_mode,
        "smoothing": scn.smoothing,
        "seed": scn.seed,
        "field_extent_m": list(scn.field_extent_m) if scn.field_extent_m else None,
        "aps": [_ap_to_mapping(ap) for ap in scn.aps],
        "channel": {
            "nlos_path_count": scn.channel.nlos_path_count,
            "multipath_ratio": scn.channel.multipath_ratio,
            "noise_power_dbm": scn.channel.noise_power_dbm,
            "doppler_enabled": scn.channel.doppler_enabled,
            "nlos_redraw_distance_m": scn.channel.nlos_redraw_distance_m,
        },
        "detector": {
            "sensitivity_floor_dbm": scn.detector.sensitivity_floor_dbm,
            "sample_rate_hz": scn.detector.sample_rate_hz,
            "response_model": scn.detector.response_model,
            "response_table": ([list(p) for p in scn.detector.response_table]
                               if scn.detector.response_table else None),
            "output_noise_volts": scn.detector.output_noise_volts,
        },
    }


def scenario_from_mapping(m: dict[str, Any]) -> Scenario:
    """Build a Scenario from its YAML mapping, refusing unknown keys,
    non-boolean flags and non-finite numbers at every level."""
    if not isinstance(m, dict) or "aps" not in m:
        raise ConfigError("scenario mapping needs an 'aps' list")
    top = _parse(m, _SCENARIO_FIELDS, "scenario", ("aps", "channel", "detector"))
    return Scenario(
        aps=tuple(_ap_from_mapping(a) for a in m["aps"]),
        channel=ChannelConfig(**_parse(m.get("channel"), _CHANNEL_FIELDS,
                                       "channel")),
        detector=DetectorConfig(**_parse(m.get("detector"), _DETECTOR_FIELDS,
                                         "detector")),
        **top)


def scenario_to_yaml(scn: Scenario) -> str:
    return yaml.safe_dump(scenario_to_mapping(scn), default_flow_style=False,
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


def scenario_digest(scn: Scenario) -> str:
    """Stable sha256 of the canonical serialized scenario (first 16 hex)."""
    return hashlib.sha256(scenario_to_yaml(scn).encode("utf-8")).hexdigest()[:16]


def with_seed(scn: Scenario, seed: int) -> Scenario:
    return replace(scn, seed=seed)
