"""Backscatter uplink: subcarrier switch modulation, demodulation, hive MAC.

The tag never generates a carrier; it toggles its antenna load at a
subcarrier rate during one-bits, so the interrogator sees OOK sidebands
offset from its own carrier. Reception is modeled at the interrogator's
complex envelope centered on the subcarrier offset (the strong 0 Hz
carrier leakage is band-passed away), decimated to a few samples per bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .channel import complex_noise
from .receiver import LOG_CAPACITY_BYTES, LogStore, SensorRecord
from .scenario import ConfigError, DetectorConfig, _normals, free_space_loss_db

MAX_FRAME_BITS = 8 * LOG_CAPACITY_BYTES  # a full measurement log
SYNC_PATTERN: tuple[int, ...] = (1, 0, 1, 0, 1, 0, 1, 0)
UPLINK_BITRATE_HZ = 1000.0  # the paper's 1 kbps backscatter uplink
MODULATOR_RATE_HZ = 8e6  # the tag's switch-drive sample rate
SUBCARRIER_HZ = 2e6  # switch toggle rate, the interrogator's mixing offset


@dataclass(frozen=True)
class Frame:
    """An uplink payload: bits at the tag's (slow) backscatter bitrate."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.bits) <= MAX_FRAME_BITS:
            raise ConfigError(f"frame must carry 1..{MAX_FRAME_BITS} bits")
        if any(b not in (0, 1) for b in self.bits):
            raise ConfigError("frame bits must be 0 or 1")

    @property
    def payload_duration_s(self) -> float:
        return len(self.bits) / UPLINK_BITRATE_HZ


def frame_from_records(records: Sequence[SensorRecord]) -> Frame:
    """Serialize packed records to an uplink frame, MSB first."""
    payload = b"".join(r.pack() for r in records)
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    return Frame(bits=tuple(int(b) for b in bits))


def _whole_ratio(numerator: float, denominator: float, message: str) -> int:
    ratio = round(numerator / denominator)
    if ratio < 1 or abs(numerator / denominator - ratio) > 1e-6:
        raise ConfigError(message)
    return ratio


def _capture_samples_per_bit(sample_rate_hz: float) -> int:
    return _whole_ratio(sample_rate_hz, UPLINK_BITRATE_HZ, "capture rate must"
                        " be a whole multiple of the uplink bitrate")


@dataclass(frozen=True)
class SwitchWaveform:
    """The tag's antenna-switch drive at the modulator rate: one-bits toggle
    at the subcarrier with 50% duty, zero-bits leave the switch open."""

    bits: np.ndarray
    sample_rate_hz: float
    subcarrier_hz: float
    one_bit: np.ndarray = field(init=False, repr=False)  # states of a one-bit

    def __post_init__(self) -> None:
        spb = _whole_ratio(self.sample_rate_hz, UPLINK_BITRATE_HZ,
                           "sample rate must be an integer multiple of the bitrate")
        half = _whole_ratio(self.sample_rate_hz, 2.0 * self.subcarrier_hz,
                            "sample rate must resolve the subcarrier half-period")
        if spb % (2 * half):
            raise ConfigError("each bit must span whole subcarrier cycles")
        object.__setattr__(self, "one_bit",
                           ((np.arange(spb) // half) % 2 == 0).astype(np.uint8))

    @property
    def states(self) -> np.ndarray:
        return np.outer(self.bits, self.one_bit).reshape(-1)


def modulate_frame(frame: Frame, sample_rate_hz: float = MODULATOR_RATE_HZ,
                   subcarrier_hz: float = SUBCARRIER_HZ) -> SwitchWaveform:
    """Expand frame bits to the switch drive at the modulator rate."""
    return SwitchWaveform(np.asarray(frame.bits, dtype=np.uint8),
                          sample_rate_hz, subcarrier_hz)


@dataclass(frozen=True)
class LinkBudget:
    """Two-way interrogator-tag-interrogator budget at one distance."""

    distance_m: float
    tx_power_dbm: float = 20.0
    carrier_hz: float = 915e6
    reflection_loss_db: float = 10.0
    noise_floor_dbm: float = -90.0

    def __post_init__(self) -> None:
        if not 0 < self.distance_m < math.inf:
            raise ConfigError("distance must be finite and positive")
        if not math.isfinite(self.tx_power_dbm):
            raise ConfigError("transmit power must be finite")
        if not 0 < self.carrier_hz < math.inf:
            raise ConfigError("carrier must be finite and positive")
        if not 0 <= self.reflection_loss_db < math.inf:
            raise ConfigError("reflection loss must be finite and >= 0")
        if not math.isfinite(self.noise_floor_dbm):
            raise ConfigError("noise floor must be finite")

    @property
    def path_gain_db(self) -> float:
        """Amplitude-level gain applied to the switch waveform (dB)."""
        return (self.tx_power_dbm
                - 2.0 * free_space_loss_db(self.distance_m, self.carrier_hz)
                - self.reflection_loss_db)


@dataclass(frozen=True)
class DemodConfig:
    """Interrogator-side capture and decision parameters."""

    offset_hz: float = SUBCARRIER_HZ
    sample_rate_hz: float = 16000.0

    def __post_init__(self) -> None:
        if not (self.offset_hz > 0 and self.sample_rate_hz > 0):
            raise ConfigError("offset and sample rate must be positive")


@dataclass(frozen=True)
class RxCapture:
    """Complex envelope at the subcarrier offset, a few samples per bit."""

    samples: np.ndarray
    sample_rate_hz: float

    @property
    def samples_per_bit(self) -> int:
        return _capture_samples_per_bit(self.sample_rate_hz)


def _decimated_envelope(wave: SwitchWaveform, demod: DemodConfig,
                        amplitude: float) -> np.ndarray:
    """The switch waveform at path amplitude, mixed down by the subcarrier
    offset and block-averaged to the capture rate.

    Every bit spans whole decimation blocks, so the envelope is
    bits (x) (rotation * template): the one-bit template is mixed and
    averaged once, and each bit's mixer phase is reduced to under one
    cycle before the exp, which keeps long frames exact.
    """
    factor = _whole_ratio(wave.sample_rate_hz, demod.sample_rate_hz, "modulator"
                          " rate must be an integer multiple of the capture rate")
    spb = len(wave.one_bit)
    if spb % factor:
        raise ConfigError(f"a bit ({spb} modulator samples) must span whole capture"
                          f" blocks of {factor}, not {spb / factor:g} blocks")
    mixed = wave.one_bit * np.exp(-2j * math.pi * demod.offset_hz
                                  * np.arange(spb) / wave.sample_rate_hz)
    template = 2.0 * amplitude * mixed.reshape(-1, factor).mean(axis=1)
    cycles_per_bit = demod.offset_hz * spb / wave.sample_rate_hz
    phase = np.arange(len(wave.bits)) * (cycles_per_bit % 1.0) % 1.0
    rotation = np.exp(-2j * math.pi * phase)
    return (wave.bits[:, None] * rotation[:, None] * template).reshape(-1)


def transmit_backscatter(wave: SwitchWaveform, link: LinkBudget,
                         demod: DemodConfig,
                         rng: np.random.Generator | None = None) -> RxCapture:
    """Mix the reflected switch waveform down to the subcarrier offset and
    decimate to the capture rate; add receiver noise when an rng is given.

    Uses the analytic-signal convention (factor 2 on the mixer output), so
    a one-bit's fundamental lands at amplitude gain * (2/pi) in the
    infinite-rate limit.
    """
    env = _decimated_envelope(wave, demod, 10.0 ** (link.path_gain_db / 20.0))
    if rng is not None:
        env = env + complex_noise(link.noise_floor_dbm, len(env), rng)
    return RxCapture(samples=env, sample_rate_hz=demod.sample_rate_hz)


def bit_magnitudes(rx: RxCapture) -> np.ndarray:
    """Magnitude of each whole bit's mean envelope: a boxcar filter one bit
    long, read as a view of the capture. Trailing samples short of a bit
    are not read; at one sample per bit the samples are the means."""
    spb = rx.samples_per_bit
    n_bits = len(rx.samples) // spb
    if n_bits < 1:
        raise ConfigError("capture is shorter than one bit")
    bits = rx.samples[:n_bits * spb].reshape(n_bits, spb)
    return np.abs(bits[:, 0] if spb == 1 else bits.sum(axis=1) / spb)


def _bimodal_threshold(mags: np.ndarray) -> float:
    """Two-means split point of a magnitude population.

    Iterating threshold -> midpoint of the above/below means converges to a
    fixed point that depends on the magnitude distribution, not on how many
    bits the capture holds. A min/max midpoint would creep upward with
    capture length because the noise maximum is unbounded in n, making BER
    depend on batch size.
    """
    ordered = np.sort(mags)
    prefix = np.concatenate(([0.0], np.cumsum(ordered)))
    n = len(ordered)
    t = 0.5 * (float(ordered[0]) + float(ordered[-1]))
    for _ in range(64):
        k = int(np.searchsorted(ordered, t, side="right"))  # count <= t
        if k == 0 or k == n:
            break
        t_new = 0.5 * ((prefix[n] - prefix[k]) / (n - k) + prefix[k] / k)
        if abs(t_new - t) <= 1e-12 * max(abs(t), 1.0):
            break
        t = t_new
    return t


def ap_demodulate(rx: RxCapture, sync_bits: int = 0) -> np.ndarray:
    """Decide bits by thresholding each bit's magnitude (bit_magnitudes).

    The threshold is the two-means split of the frame's magnitudes. When
    the frame starts with the known sync pattern, pass sync_bits to
    calibrate the threshold from the sync levels instead, which also
    handles degenerate all-same payloads.
    """
    mags = bit_magnitudes(rx)
    if sync_bits:
        if sync_bits > len(mags) or sync_bits > len(SYNC_PATTERN):
            raise ConfigError("sync_bits exceeds the frame or pattern length")
        sync = np.asarray(SYNC_PATTERN[:sync_bits])
        ones = mags[:sync_bits][sync == 1]
        zeros = mags[:sync_bits][sync == 0]
        threshold = 0.5 * (ones.mean() + zeros.mean())
    else:
        threshold = _bimodal_threshold(mags)
    return (mags > threshold).astype(np.uint8)


def roundtrip_frame(frame: Frame, link: LinkBudget, demod: DemodConfig,
                    rng: np.random.Generator | None = None,
                    sync_bits: int = 0) -> np.ndarray:
    """Modulate, reflect through the link, capture, and demodulate."""
    rx = transmit_backscatter(modulate_frame(frame), link, demod, rng)
    return ap_demodulate(rx, sync_bits=sync_bits)


# --- BER simulation ---------------------------------------------------------

def synth_capture(bits: np.ndarray, amplitude: float, noise_sigma: float,
                  rng: np.random.Generator, demod: DemodConfig) -> RxCapture:
    """Capture-rate OOK envelope without the modulator-rate detour; at the
    bitrate it is the boxcar filter's output, one sample per bit.

    Equivalent to transmit_backscatter for whole-cycle decimation blocks up
    to the complex fundamental gain, which the caller folds into amplitude.
    """
    spb = _capture_samples_per_bit(demod.sample_rate_hz)
    sigma = noise_sigma / math.sqrt(2.0)
    samples = np.empty(len(bits) * spb, dtype=complex)
    noise = _normals(rng, sigma, np.empty((len(bits), spb)))
    np.add(noise, (bits * amplitude)[:, None], out=samples.real.reshape(-1, spb))
    samples.imag = _normals(rng, sigma, noise).reshape(-1)
    return RxCapture(samples=samples, sample_rate_hz=demod.sample_rate_hz)


def ber_point(snr_db: float, n_bits: int, rng: np.random.Generator,
              demod: DemodConfig | None = None) -> tuple[float, int]:
    """Monte Carlo BER at a per-sample SNR (signal power over total complex
    noise power during a one-bit), drawn as each bit's boxcar output: one
    complex Gaussian at sigma / sqrt(spb). Returns (ber, error_count)."""
    if n_bits < 1:
        raise ConfigError("need at least one bit")
    demod = demod or DemodConfig()
    spb = _capture_samples_per_bit(demod.sample_rate_hz)
    bits = rng.integers(0, 2, n_bits).astype(np.uint8)
    sigma = 10.0 ** (-snr_db / 20.0) / math.sqrt(spb)
    rx = synth_capture(bits, 1.0, sigma, rng,
                       replace(demod, sample_rate_hz=UPLINK_BITRATE_HZ))
    errors = int(np.count_nonzero(ap_demodulate(rx) != bits))
    return errors / n_bits, errors


# --- hive MAC ----------------------------------------------------------------

QUERY_ADDRESS_BITS = 8
MAC_RETRIES = 2  # further queries before an insect is skipped
MAC_GUARD_S = 0.005  # idle gap after every query and every reply


@dataclass
class InsectNode:
    """One tagged insect in the hive: address, distance, and its log."""

    address: int
    distance_m: float
    store: LogStore = field(default_factory=LogStore)

    def __post_init__(self) -> None:
        if not 0 <= self.address < (1 << QUERY_ADDRESS_BITS):
            raise ConfigError("address must fit 8 bits")
        if not self.distance_m > 0:
            raise ConfigError("distance must be positive")


@dataclass(frozen=True)
class MacEvent:
    insect_address: int
    attempt: int
    address_decoded: bool
    replied: bool
    bits_sent: int
    bit_errors: int
    start_s: float
    end_s: float
    skipped: bool


@dataclass
class MacTranscript:
    events: list[MacEvent] = field(default_factory=list)
    total_elapsed_s: float = 0.0

    def delivered_bits(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.events:
            if e.replied and not e.skipped:
                out[e.insect_address] = out.get(e.insect_address, 0) + e.bits_sent
        return out

    def fairness_index(self) -> float:
        """Jain index over per-insect delivered payload bits."""
        totals = list(self.delivered_bits().values())
        if not totals:
            return 0.0
        s = sum(totals)
        return s * s / (len(totals) * sum(x * x for x in totals))

    def to_rows(self) -> list[tuple]:
        return [(e.insect_address, e.attempt, int(e.address_decoded),
                 int(e.replied), e.bits_sent, e.bit_errors,
                 round(e.start_s, 6), round(e.end_s, 6),
                 int(e.skipped)) for e in self.events]


def _downlink_decode(address: int, link: LinkBudget, det: DetectorConfig,
                     rng: np.random.Generator) -> int:
    """OOK query, at the uplink bitrate, through the insect's envelope
    detector, decided by ap_demodulate on the sync-calibrated threshold;
    returns the address the insect heard (possibly garbage when under its
    floor)."""
    bits = list(SYNC_PATTERN) + [(address >> (7 - k)) & 1 for k in range(8)]
    one_way_dbm = link.tx_power_dbm - free_space_loss_db(link.distance_m,
                                                         link.carrier_hz)
    spb = _capture_samples_per_bit(det.sample_rate_hz)
    levels = np.where(np.repeat(bits, spb) > 0,
                      float(det.response_volts(one_way_dbm)), det.floor_volts)
    volts = levels + _normals(rng, det.noise_sigma_volts, np.empty(len(levels)))
    decided = ap_demodulate(RxCapture(volts, det.sample_rate_hz),
                            sync_bits=len(SYNC_PATTERN))
    return int("".join(str(b) for b in decided[len(SYNC_PATTERN):]), 2)


def hive_mac_session(insects: Sequence[InsectNode],
                     rng: np.random.Generator) -> MacTranscript:
    """Round-robin query/dump cycle over the hive's tagged insects.

    The reader addresses one insect at a time; an insect replies only when
    it decodes its own address, so out-of-range insects time out and are
    skipped after the retry budget. Replies carry the insect's full log
    behind a sync header.
    """
    demod, detector = DemodConfig(), DetectorConfig()
    transcript = MacTranscript()
    query_s = (len(SYNC_PATTERN) + QUERY_ADDRESS_BITS) / UPLINK_BITRATE_HZ
    for insect in insects:
        link = LinkBudget(distance_m=insect.distance_m)
        for attempt in range(1, MAC_RETRIES + 2):
            start_s = transcript.total_elapsed_s
            transcript.total_elapsed_s += query_s + MAC_GUARD_S
            heard = _downlink_decode(insect.address, link, detector, rng)
            decoded_ok = heard == insect.address
            if not decoded_ok:
                last = attempt == MAC_RETRIES + 1
                transcript.events.append(MacEvent(
                    insect.address, attempt, False, False, 0, 0,
                    start_s, transcript.total_elapsed_s, skipped=last))
                continue
            payload = frame_from_records(insect.store.records) \
                if insect.store.records else None
            bits = list(SYNC_PATTERN) + (list(payload.bits) if payload else [])
            frame = Frame(bits=tuple(bits))
            decided = roundtrip_frame(frame, link, demod, rng,
                                      sync_bits=len(SYNC_PATTERN))
            sent = len(frame.bits) - len(SYNC_PATTERN)
            errors = int(np.count_nonzero(
                decided[len(SYNC_PATTERN):] != np.asarray(frame.bits[len(SYNC_PATTERN):])))
            transcript.total_elapsed_s += frame.payload_duration_s + MAC_GUARD_S
            transcript.events.append(MacEvent(
                insect.address, attempt, True, True, sent, errors,
                start_s, transcript.total_elapsed_s, skipped=False))
            break
    return transcript
