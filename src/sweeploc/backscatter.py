"""Backscatter uplink: subcarrier switch modulation, demodulation, hive MAC.

The tag never generates a carrier; it toggles its antenna load at a
subcarrier rate during one-bits, so the interrogator sees OOK sidebands
offset from its own carrier. Reception is modeled at the interrogator's
complex envelope centered on the subcarrier offset (the strong 0 Hz
carrier leakage is band-passed away), decimated to a few samples per bit.
The rates and the link's levels are the platform's fixed values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import complex_noise
from .receiver import LogStore, SensorRecord
from .scenario import (ConfigError, DetectorConfig, _normals, _scratch,
                       free_space_loss_db)

SYNC_PATTERN: tuple[int, ...] = (1, 0, 1, 0, 1, 0, 1, 0)
UPLINK_BITRATE_HZ = 1000.0  # the paper's 1 kbps backscatter uplink
MODULATOR_RATE_HZ = 8e6  # the tag's switch-drive sample rate
SUBCARRIER_HZ = 2e6  # switch toggle rate, the interrogator's mixing offset
CAPTURE_RATE_HZ = 16000.0  # the interrogator's envelope capture rate
CAPTURE_SAMPLES_PER_BIT = round(CAPTURE_RATE_HZ / UPLINK_BITRATE_HZ)
TX_POWER_DBM = 20.0  # the interrogator's carrier
CARRIER_HZ = 915e6
REFLECTION_LOSS_DB = 10.0  # the tag's modulated reflection
NOISE_FLOOR_DBM = -90.0  # the interrogator's receiver


def frame_from_records(records: Sequence[SensorRecord]) -> np.ndarray:
    """Serialize packed records to uplink bits (uint8), MSB first; an empty
    log gives no bits."""
    payload = b"".join(r.pack() for r in records)
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8))


def _one_bit() -> tuple[np.ndarray, np.ndarray]:
    """A one-bit's switch states at the modulator rate, closed for the first
    half of each of its 2000 subcarrier cycles, and their mean over each
    capture block once mixed down by the subcarrier offset. Shared by every
    frame, so read-only."""
    n = np.arange(round(MODULATOR_RATE_HZ / UPLINK_BITRATE_HZ))
    half_cycle = round(MODULATOR_RATE_HZ / (2.0 * SUBCARRIER_HZ))
    states = ((n // half_cycle) % 2 == 0).astype(np.uint8)
    mixed = states * np.exp(-2j * math.pi * SUBCARRIER_HZ * n / MODULATOR_RATE_HZ)
    capture = mixed.reshape(CAPTURE_SAMPLES_PER_BIT, -1).mean(axis=1)
    states.flags.writeable = capture.flags.writeable = False
    return states, capture


ONE_BIT_STATES, ONE_BIT_CAPTURE = _one_bit()


@dataclass(frozen=True)
class SwitchWaveform:
    """The tag's antenna-switch drive at the modulator rate: one-bits toggle
    at the subcarrier with 50% duty, zero-bits leave the switch open."""

    bits: np.ndarray

    @property
    def states(self) -> np.ndarray:
        return np.outer(self.bits, ONE_BIT_STATES).reshape(-1)


def modulate_frame(bits: np.ndarray) -> SwitchWaveform:
    """Expand frame bits to the switch drive at the modulator rate."""
    return SwitchWaveform(bits)


def path_gain_db(distance_m: float) -> float:
    """Two-way interrogator-tag-interrogator gain at one distance: the
    amplitude-level gain applied to the switch waveform (dB)."""
    return (TX_POWER_DBM - 2.0 * free_space_loss_db(distance_m, CARRIER_HZ)
            - REFLECTION_LOSS_DB)


def transmit_backscatter(wave: SwitchWaveform, distance_m: float,
                         rng: np.random.Generator | None = None) -> np.ndarray:
    """Mix the reflected switch waveform down to the subcarrier offset and
    decimate to the capture rate; add receiver noise (drawn in scratch) if given an rng.

    Every bit spans whole capture blocks and whole subcarrier cycles, so
    the capture is bits x CAPTURE_SAMPLES_PER_BIT, each row ONE_BIT_CAPTURE
    at path amplitude or zero. Uses the analytic-signal convention (factor
    2 on the mixer output), so a one-bit's fundamental lands at amplitude
    gain * (2/pi) in the infinite-rate limit.
    """
    template = 2.0 * 10.0 ** (path_gain_db(distance_m) / 20.0) * ONE_BIT_CAPTURE
    env = wave.bits[:, None] * template
    if rng is not None:
        env += complex_noise(NOISE_FLOOR_DBM, rng, _scratch("reply_noise", env.shape, complex))
    return env


def bit_magnitudes(capture: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Magnitude of each bit's mean envelope, a boxcar filter one bit long,
    from a bits x samples-per-bit capture; at one sample per bit the
    samples are the means. Written into out (one float per bit) if given,
    else a fresh array."""
    if capture.size == 0:
        raise ConfigError("capture is empty")
    spb = capture.shape[1]
    return np.abs(capture[:, 0] if spb == 1 else capture.sum(axis=1) / spb, out=out)


def _bimodal_threshold(mags: np.ndarray) -> float:
    """Two-means split point of a magnitude population.

    Iterating threshold -> midpoint of the above/below means converges to a
    fixed point that depends on the magnitude distribution, not on how many
    bits the capture holds. A min/max midpoint would creep upward with
    capture length because the noise maximum is unbounded in n, making BER
    depend on batch size.
    The magnitudes are taken as float64, sorted in a scratch copy.
    """
    n = len(mags)
    ordered, prefix = _scratch("sorted_mags", (n,)), _scratch("mag_prefix", (n + 1,))
    np.copyto(ordered, mags)
    ordered.sort()  # np.sort's own steps: a copy, sorted in place
    prefix[0] = 0.0
    np.cumsum(ordered, out=prefix[1:])
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


def ap_demodulate(capture: np.ndarray, synced: bool = False) -> np.ndarray:
    """Decide bits by thresholding each bit's magnitude (bit_magnitudes).

    The threshold is the two-means split of the frame's magnitudes. When
    the frame opens with the whole SYNC_PATTERN, set synced to calibrate
    the threshold from the sync levels instead, which also handles
    degenerate all-same payloads. The magnitudes are float64, held in this
    thread's per-bit buffer.
    """
    mags = bit_magnitudes(capture, _scratch("per_bit", (len(capture),)))
    if synced:
        if len(mags) < len(SYNC_PATTERN):
            raise ConfigError("frame is shorter than its sync header")
        header = mags[:len(SYNC_PATTERN)]
        sync = np.asarray(SYNC_PATTERN)
        threshold = 0.5 * (header[sync == 1].mean() + header[sync == 0].mean())
    else:
        threshold = _bimodal_threshold(mags)
    return (mags > threshold).astype(np.uint8)


# --- BER simulation ---------------------------------------------------------

def synth_capture(bits: np.ndarray, noise_sigma: float, rng: np.random.Generator,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Each bit's boxcar output at unit one-bit level, bits x 1, without the
    modulator-rate detour: the bit plus complex Gaussian noise of total
    power noise_sigma**2, all real parts drawn first, then the imaginary.
    Written into out (bits x 1 complex) if given, else a fresh array."""
    sigma = noise_sigma / math.sqrt(2.0)
    capture = np.empty((len(bits), 1), dtype=complex) if out is None else out
    noise = _normals(rng, sigma, _scratch("per_bit", (len(bits), 1)))
    np.add(noise, bits[:, None], out=capture.real)
    capture.imag = _normals(rng, sigma, noise)
    return capture


def ber_point(snr_db: float, n_bits: int,
              rng: np.random.Generator) -> tuple[float, int]:
    """Monte Carlo BER at a per-sample SNR (signal power over total complex
    noise power during a one-bit) of the capture, drawn as each bit's
    boxcar output: one complex Gaussian at sigma / sqrt(spb). Returns
    (ber, error_count)."""
    if n_bits < 1:
        raise ConfigError("need at least one bit")
    bits = rng.integers(0, 2, n_bits).astype(np.uint8)
    sigma = 10.0 ** (-snr_db / 20.0) / math.sqrt(CAPTURE_SAMPLES_PER_BIT)
    capture = synth_capture(bits, sigma, rng, _scratch("ber_capture", (n_bits, 1), complex))
    decided = ap_demodulate(capture)  # the noise is spent: its buffer takes the magnitudes
    errors = int(np.count_nonzero(decided != bits))
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
        if not 0 < self.distance_m < math.inf:
            raise ConfigError("distance must be finite and positive")


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
        """Payload bits per insect, from the replies with no bit error."""
        out: dict[int, int] = {}
        for e in self.events:
            if e.replied and not e.skipped and e.bit_errors == 0:
                out[e.insect_address] = out.get(e.insect_address, 0) + e.bits_sent
        return out

    def fairness_index(self) -> float:
        """Jain index over per-insect delivered payload bits; 0.0 when no
        payload bit was delivered: no insect replied, no reply arrived
        intact, or every intact reply carried only the sync header."""
        totals = list(self.delivered_bits().values())
        s = sum(totals)
        if s == 0:
            return 0.0
        return s * s / (len(totals) * sum(x * x for x in totals))

    def to_rows(self) -> list[tuple]:
        return [(e.insect_address, e.attempt, int(e.address_decoded),
                 int(e.replied), e.bits_sent, e.bit_errors,
                 round(e.start_s, 6), round(e.end_s, 6),
                 int(e.skipped)) for e in self.events]


def _downlink_decode(address: int, distance_m: float, det: DetectorConfig,
                     rng: np.random.Generator) -> int:
    """OOK query, at the uplink bitrate, through the insect's envelope
    detector, decided by ap_demodulate on the sync-calibrated threshold;
    returns the address the insect heard (possibly garbage when under its
    floor)."""
    spb = round(det.sample_rate_hz / UPLINK_BITRATE_HZ)
    if spb < 1 or abs(det.sample_rate_hz / UPLINK_BITRATE_HZ - spb) > 1e-6:
        raise ConfigError("detector rate must be a whole multiple of the uplink"
                          " bitrate")
    bits = np.concatenate((SYNC_PATTERN, np.unpackbits(np.uint8([address]))))
    one_way_dbm = TX_POWER_DBM - free_space_loss_db(distance_m, CARRIER_HZ)
    levels = np.where(bits[:, None] > 0, float(det.response_volts(one_way_dbm)),
                      det.floor_volts)
    volts = levels + _normals(rng, det.noise_sigma_volts, np.empty((len(bits), spb)))
    decided = ap_demodulate(volts, synced=True)
    return int(np.packbits(decided[len(SYNC_PATTERN):])[0])


def hive_mac_session(insects: Sequence[InsectNode], det: DetectorConfig,
                     rng: np.random.Generator) -> MacTranscript:
    """Round-robin query/dump cycle over the hive's tagged insects.

    The reader addresses one insect at a time; an insect replies only when
    its envelope detector det decodes its own address, so out-of-range
    insects time out and are skipped after the retry budget. Replies carry
    the insect's full log behind a sync header.
    """
    transcript = MacTranscript()
    query_s = (len(SYNC_PATTERN) + QUERY_ADDRESS_BITS) / UPLINK_BITRATE_HZ
    sync = np.asarray(SYNC_PATTERN, dtype=np.uint8)
    for insect in insects:
        for attempt in range(1, MAC_RETRIES + 2):
            start_s = transcript.total_elapsed_s
            transcript.total_elapsed_s += query_s + MAC_GUARD_S
            heard = _downlink_decode(insect.address, insect.distance_m, det, rng)
            if heard != insect.address:
                last = attempt == MAC_RETRIES + 1
                transcript.events.append(MacEvent(
                    insect.address, attempt, False, False, 0, 0,
                    start_s, transcript.total_elapsed_s, skipped=last))
                continue
            payload = frame_from_records(insect.store.records)
            frame = np.concatenate((sync, payload))
            # unnamed, a reply's capture is freed before the next one is made
            decided = ap_demodulate(transmit_backscatter(
                modulate_frame(frame), insect.distance_m, rng), synced=True)
            errors = int(np.count_nonzero(decided[len(sync):] != payload))
            transcript.total_elapsed_s += len(frame) / UPLINK_BITRATE_HZ + MAC_GUARD_S
            transcript.events.append(MacEvent(
                insect.address, attempt, True, True, len(payload), errors,
                start_s, transcript.total_elapsed_s, skipped=False))
            break
    return transcript
