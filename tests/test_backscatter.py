"""Uplink frames, switch waveform, link budget, demodulation, MAC."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sweeploc.backscatter import (
    CAPTURE_RATE_HZ,
    CARRIER_HZ,
    MODULATOR_RATE_HZ,
    NOISE_FLOOR_DBM,
    SYNC_PATTERN,
    TX_POWER_DBM,
    UPLINK_BITRATE_HZ,
    InsectNode,
    MacTranscript,
    ap_demodulate,
    _bimodal_threshold,
    _downlink_decode,
    ber_point,
    bit_magnitudes,
    frame_from_records,
    hive_mac_session,
    modulate_frame,
    path_gain_db,
    synth_capture,
    transmit_backscatter,
)
from sweeploc.channel import complex_noise
from sweeploc.experiments import BER_SNR_POINTS_DB, ExperimentSpec, run_experiment
from sweeploc.receiver import LOG_CAPACITY_BYTES, LOG_RECORDS, SensorRecord
from sweeploc.scenario import (ConfigError, DetectorConfig, _normals,
                               free_space_loss_db, trial_rng)
from sweeploc.scenarios import bench_scenario

from helpers import ber_point_waveform_oracle, demod_fundamental_gain


def make_records(n):
    return [SensorRecord("light", (37 * k) % 4096, k % 256, (k * 3) % 256)
            for k in range(n)]


def random_bits(rng, n):
    return rng.integers(0, 2, n).astype(np.uint8)


def test_payload_duration_one_and_ten_records():
    """A 4-byte record is 32 bits, 32 ms at 1 kbps."""
    one = frame_from_records(make_records(1))
    ten = frame_from_records(make_records(10))
    assert one.dtype == ten.dtype == np.uint8
    assert (len(one), len(ten)) == (32, 320)
    assert len(ten) / UPLINK_BITRATE_HZ == pytest.approx(0.320)


def test_frame_record_round_trip():
    """A frame carries the packed records back to back, MSB first."""
    records = make_records(25)
    packed = np.packbits(frame_from_records(records)).tobytes()
    assert packed == b"".join(r.pack() for r in records)


def test_an_empty_log_is_an_empty_frame():
    frame = frame_from_records([])
    assert frame.dtype == np.uint8 and frame.shape == (0,)


def test_a_full_log_dumps_in_one_reply():
    """An insect holding a full log replies with all of it, its 262 144
    bits behind the sync header."""
    node = InsectNode(address=0x31, distance_m=2.0)
    for rec in make_records(LOG_RECORDS):
        node.store.append(rec)
    transcript = hive_mac_session([node], DetectorConfig(), trial_rng(13, "full"))
    (event,) = transcript.events
    assert event.replied and event.bits_sent == 8 * LOG_CAPACITY_BYTES == 262144


def rising_edges(wave):
    """0-to-1 switch events, including a leading rise from idle."""
    padded = np.concatenate(([0], wave.states.astype(np.int8)))
    return int(np.count_nonzero(np.diff(padded) == 1))


def test_rising_edges_per_one_bit():
    # a one-bit toggles the switch at 2 MHz for 1 ms: 2000 rising edges
    wave = modulate_frame(np.array([1], dtype=np.uint8))
    assert rising_edges(wave) == 2000
    assert rising_edges(modulate_frame(np.array([0], dtype=np.uint8))) == 0
    assert rising_edges(modulate_frame(np.array([1, 0, 1], dtype=np.uint8))) == 4000
    assert len(wave.states) == 8000  # 1 ms at the 8 MHz modulator rate


def test_demod_fundamental_gain_discrete_and_limit():
    # 4 samples per subcarrier cycle: |(2/4)(1 + e^{-j pi/2})| = sqrt(2)/2
    g4 = abs(demod_fundamental_gain(8e6, 2e6))
    assert g4 == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    # fine sampling approaches the square-wave fundamental 2/pi
    g_fine = abs(demod_fundamental_gain(2000e6, 1e6))
    assert g_fine == pytest.approx(2 / math.pi, rel=1e-5)


def test_link_budget_two_way_path():
    """20 dBm out, free space to the tag and back at 915 MHz, 10 dB lost
    in the tag's reflection."""
    fspl = free_space_loss_db(2.0, 915e6)
    assert path_gain_db(2.0) == pytest.approx(20.0 - 2 * fspl - 10.0)
    # 2 m is comfortably above the AP noise floor; 30 m is far below it
    assert path_gain_db(2.0) > NOISE_FLOOR_DBM + 15.0
    assert path_gain_db(30.0) < NOISE_FLOOR_DBM


def test_clean_roundtrip_identity():
    bits = random_bits(trial_rng(4, "frame-bits"), 512)
    decided = ap_demodulate(transmit_backscatter(modulate_frame(bits), 2.0))
    assert np.array_equal(decided, bits)


def test_noisy_roundtrip_at_close_range_is_clean():
    rng = trial_rng(5, "noisy-roundtrip")
    bits = random_bits(rng, 512)
    decided = ap_demodulate(transmit_backscatter(modulate_frame(bits), 2.0, rng))
    assert np.array_equal(decided, bits)


def test_transmit_decimation_counts():
    wave = modulate_frame(np.array([1, 0, 1, 1], dtype=np.uint8))
    rx = transmit_backscatter(wave, 2.0)
    assert rx.shape == (4, 16)  # one row per bit, 16 capture samples per bit


def test_transmit_noise_fills_the_capture_bit_by_bit():
    """The receiver noise is complex_noise's draws laid over the capture in
    C order: the first 16 draws are the first bit's samples. All-zero bits
    leave the noise alone."""
    wave = modulate_frame(np.zeros(5, dtype=np.uint8))
    got = transmit_backscatter(wave, 2.0, trial_rng(3, "order"))
    want = complex_noise(NOISE_FLOOR_DBM, 5 * 16, trial_rng(3, "order"))
    assert np.array_equal(got, want.reshape(5, 16))


def mix_and_decimate_per_sample(wave, distance_m, offset_hz):
    """Brute-force reference: mix every modulator-rate sample down by the
    offset with its own exp and block-average to the capture rate."""
    factor = round(MODULATOR_RATE_HZ / CAPTURE_RATE_HZ)
    gain = 10.0 ** (path_gain_db(distance_m) / 20.0)
    states = wave.states
    n = (len(states) // factor) * factor
    chunk = max(factor, (4_000_000 // factor) * factor)
    parts = []
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        t = np.arange(lo, hi) / MODULATOR_RATE_HZ
        mixed = 2.0 * gain * states[lo:hi] * np.exp(-2j * math.pi * offset_hz * t)
        parts.append(mixed.reshape(-1, factor).mean(axis=1))
    return np.concatenate(parts)


@pytest.mark.parametrize("n_bits, offset_hz", [
    (512, 2e6),
    (1608, 2e6),  # a mac_session reply: sync plus 50 records
])
def test_transmit_matches_per_sample_mixer(n_bits, offset_hz):
    """The one-bit template gives the envelope that mixing every sample
    down by the subcarrier offset gives: each bit spans whole subcarrier
    cycles, so every bit's mixer phase starts at 0. The reference's own
    phase rounding grows with frame time (about 1e-9 relative at 1.6 s),
    which sets the 1e-12 bound at 2 m."""
    rng = trial_rng(13, "mixer", n_bits)
    wave = modulate_frame(random_bits(rng, n_bits))
    got = transmit_backscatter(wave, 2.0)
    want = mix_and_decimate_per_sample(wave, 2.0, offset_hz).reshape(n_bits, 16)
    assert got.shape == want.shape == (n_bits, 16)
    assert np.max(np.abs(got - want)) < 1e-12


def test_bit_magnitudes_separate_levels():
    rng = trial_rng(6, "levels")
    bits = np.array([1, 0] * 64, dtype=np.uint8)
    capture = synth_capture(bits, 0.05, rng)
    mags = bit_magnitudes(capture)
    ones = mags[bits == 1]
    zeros = mags[bits == 0]
    assert ones.min() > zeros.max()
    decided = ap_demodulate(capture)
    assert np.array_equal(decided, bits)


def gathered_bit_magnitudes(samples, spb):
    """Reference: every bit's window mean, the windows gathered as a copy
    from a sliding-window view."""
    starts = np.arange(len(samples) // spb) * spb
    windows = np.lib.stride_tricks.sliding_window_view(samples, spb)
    return np.abs(windows[starts].sum(axis=1) / spb)


@pytest.mark.parametrize("rate_hz", [16000.0, 15000.0, 1000.0])
@pytest.mark.parametrize("sigma", [0.1, 0.7, 2.5])
def test_aligned_bit_windows_equal_gathered_windows_bitwise(rate_hz, sigma):
    """A capture's rows give the same windows, in the same sum order, as
    the gathered copy of its samples: at 16 kHz 16 samples per bit, at
    15 kHz odd 15-sample bits, and at 1 kHz (ber_point's one sample per
    bit) each bit's own mean."""
    spb = round(rate_hz / UPLINK_BITRATE_HZ)
    rng = trial_rng(21, "aligned", int(rate_hz), sigma)
    capture = rng.integers(0, 2, (2000, 1)) + sigma * (
        rng.standard_normal((2000, spb)) + 1j * rng.standard_normal((2000, spb)))
    got = bit_magnitudes(capture)
    assert got.shape == (2000,)
    assert got.tobytes() == gathered_bit_magnitudes(capture.reshape(-1),
                                                    spb).tobytes()


def test_aligned_bit_magnitudes_allocate_no_window_copy():
    """A 25 000-bit capture's windows are 6.4 MB as a gathered copy."""
    rng = trial_rng(23, "alloc")
    capture = transmit_backscatter(modulate_frame(random_bits(rng, 25_000)), 2.0, rng)
    tracemalloc.start()
    try:
        bit_magnitudes(capture)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def masked_two_means_threshold(mags):
    """Reference: the two-means split with a boolean mask on every pass."""
    t = 0.5 * (float(mags.min()) + float(mags.max()))
    for _ in range(64):
        hi = mags[mags > t]
        lo = mags[mags <= t]
        if len(hi) == 0 or len(lo) == 0:
            break
        t_new = 0.5 * (float(hi.mean()) + float(lo.mean()))
        if abs(t_new - t) <= 1e-12 * max(abs(t), 1.0):
            break
        t = t_new
    return t


@pytest.mark.parametrize("amplitude, sigma", [(1.0, 0.3), (1.0, 1.0),
                                              (1.0, 2.5), (0.0, 1.0)])
@pytest.mark.parametrize("seed", range(3))
def test_blind_decisions_equal_masked_two_means(amplitude, sigma, seed):
    """Bimodal populations at high to low SNR, and noise alone (amplitude
    0: all-zero bits)."""
    rng = trial_rng(17, "two-means", seed)
    bits = (rng.integers(0, 2, 5000) * amplitude).astype(np.uint8)
    capture = synth_capture(bits, sigma, rng)
    mags = bit_magnitudes(capture)
    want = (mags > masked_two_means_threshold(mags)).astype(np.uint8)
    assert np.array_equal(ap_demodulate(capture), want)


@pytest.mark.parametrize("levels, decided", [
    ([0.5 + 0.5j], [0]),  # one magnitude: no split exists
    ([1.0] * 40, [0] * 40),  # all equal: every bit sits at the threshold
    ([0.0, 1.0, 2.0], [0, 0, 1]),  # a magnitude on the split counts as below
])
def test_blind_decisions_on_degenerate_magnitudes(levels, decided):
    capture = np.repeat(np.asarray(levels, dtype=complex)[:, None], 16, axis=1)
    mags = bit_magnitudes(capture)
    want = (mags > masked_two_means_threshold(mags)).astype(np.uint8)
    assert np.array_equal(want, decided)
    assert np.array_equal(ap_demodulate(capture), decided)


def test_an_empty_capture_is_a_config_error():
    """No bit, at 16 and at 1 samples per bit, and bits of no sample."""
    for shape in ((0, 16), (0, 1), (4, 0)):
        capture = np.ones(shape, dtype=complex)
        with pytest.raises(ConfigError, match="empty"):
            bit_magnitudes(capture)
        with pytest.raises(ConfigError, match="empty"):
            ap_demodulate(capture)


@pytest.mark.parametrize("rate_hz", [
    400.0,  # a bit is 0.4 samples
    12500.0,  # a bit is 12.5 samples
])
def test_downlink_rate_must_be_a_whole_multiple_of_the_bitrate(rate_hz):
    det = DetectorConfig(sample_rate_hz=rate_hz)
    with pytest.raises(ConfigError, match="whole multiple"):
        _downlink_decode(0x10, 2.0, det, trial_rng(0, "rate"))


def test_ber_point_captures_at_the_demod_rate():
    """At the 16 kHz capture rate a bit's boxcar output is the mean of 16
    capture samples, one complex Gaussian with sigma / sqrt(16): ber_point
    draws it at one sample per bit, bits then real parts then imaginary
    parts, and decides as ap_demodulate does."""
    got = ber_point(-4.0, 4000, trial_rng(18, "rate"))
    rng = trial_rng(18, "rate")
    bits = rng.integers(0, 2, 4000).astype(np.uint8)
    capture = synth_capture(bits, 10.0 ** (4.0 / 20.0) / math.sqrt(16.0), rng)
    assert capture.shape == (4000, 1)
    errors = int(np.count_nonzero(ap_demodulate(capture) != bits))
    assert got == (errors / 4000, errors)
    assert 0 < errors < 4000 * 0.5


def test_ber_point_reuses_its_per_bit_buffers():
    """After one warm call, a 25 000-bit ber_point allocates only the
    integer draw of its bits and their uint8 copy (225 KB) and its
    decisions: the capture, its noise, the magnitudes, their sorted copy
    and prefix sums are this thread's scratch buffers. Drawn afresh they
    were 1.2 MB, handed back to the OS and faulted in again on every BER
    chunk."""
    ber_point(0.0, 25_000, trial_rng(31, "warm"))
    rng = trial_rng(31, "scratch")
    tracemalloc.start()
    try:
        ber_point(0.0, 25_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300_000


def fresh_two_means_threshold(mags):
    """Reference: _bimodal_threshold's iteration on np.sort's copy and a
    concatenated prefix sum, both fresh arrays."""
    ordered = np.sort(mags)
    prefix = np.concatenate(([0.0], np.cumsum(ordered)))
    n = len(ordered)
    t = 0.5 * (float(ordered[0]) + float(ordered[-1]))
    for _ in range(64):
        k = int(np.searchsorted(ordered, t, side="right"))
        if k == 0 or k == n:
            break
        t_new = 0.5 * ((prefix[n] - prefix[k]) / (n - k) + prefix[k] / k)
        if abs(t_new - t) <= 1e-12 * max(abs(t), 1.0):
            break
        t = t_new
    return t


@pytest.mark.parametrize("p_idx", range(len(BER_SNR_POINTS_DB)))
def test_two_means_threshold_in_scratch_keeps_its_bits(p_idx):
    """The sort in place of a scratch copy and the cumsum into a scratch
    prefix give the fresh arrays' threshold to the last bit, on ber_point's
    magnitudes at every SNR point of ber_vs_snr."""
    rng = trial_rng(32, "threshold", p_idx)
    bits = random_bits(rng, 25_000)
    sigma = 10.0 ** (-BER_SNR_POINTS_DB[p_idx] / 20.0) / math.sqrt(16.0)
    mags = bit_magnitudes(synth_capture(bits, sigma, rng))
    assert _bimodal_threshold(mags).hex() == fresh_two_means_threshold(mags).hex()


def test_blind_decisions_take_float64_magnitudes():
    """ap_demodulate takes its magnitudes as float64 whatever the capture's
    dtype: a float32 capture is decided as its float64 copy is."""
    rng = trial_rng(35, "float32")
    capture = synth_capture(random_bits(rng, 2_000), 0.5, rng).real.astype(np.float32)
    assert np.array_equal(ap_demodulate(capture), ap_demodulate(capture.astype(float)))


def test_ber_point_after_a_longer_call_reads_no_stale_bits():
    """A buffer kept from a 25 000-bit call is sliced to a later 5 000-bit
    call's length: the short call gives the same result before and after
    the long one, and the result of fresh arrays through the public
    synth_capture and ap_demodulate."""
    got = ber_point(-2.0, 5_000, trial_rng(33, "short"))
    ber_point(-2.0, 25_000, trial_rng(33, "long"))
    assert ber_point(-2.0, 5_000, trial_rng(33, "short")) == got
    rng = trial_rng(33, "short")
    bits = rng.integers(0, 2, 5_000).astype(np.uint8)
    capture = synth_capture(bits, 10.0 ** (2.0 / 20.0) / math.sqrt(16.0), rng)
    errors = int(np.count_nonzero(ap_demodulate(capture) != bits))
    assert got == (errors / 5_000, errors)
    assert errors > 0


def test_public_uplink_functions_return_fresh_arrays():
    """synth_capture, bit_magnitudes, ap_demodulate and
    transmit_backscatter keep no scratch buffer in what they return: a
    second call's result shares no memory with the first's, which keeps
    its values."""
    rng = trial_rng(34, "fresh")
    bits = random_bits(rng, 1_000)
    first = synth_capture(bits, 0.5, rng)
    kept = first.copy()
    second = synth_capture(bits, 0.5, rng)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept) and not np.array_equal(first, second)
    mags = bit_magnitudes(first), bit_magnitudes(second)
    assert not np.shares_memory(*mags)
    assert not np.shares_memory(ap_demodulate(first), ap_demodulate(second))
    wave = modulate_frame(bits)
    assert not np.shares_memory(transmit_backscatter(wave, 2.0, rng),
                                transmit_backscatter(wave, 2.0, rng))


def test_sync_calibrated_demodulation_handles_skewed_payload():
    rng = trial_rng(7, "sync")
    payload = np.ones(64, dtype=np.uint8)  # all ones would break blind split
    bits = np.concatenate([np.asarray(SYNC_PATTERN, dtype=np.uint8), payload])
    decided = ap_demodulate(synth_capture(bits, 0.05, rng), synced=True)
    assert np.array_equal(decided[len(SYNC_PATTERN):], payload)


def test_sync_calibration_reads_the_whole_header():
    """A synced frame calibrates from the whole SYNC_PATTERN, which holds
    both levels: a clean 2 m frame behind it decodes. A frame shorter than
    the header is refused."""
    payload = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1], dtype=np.uint8)
    frame = np.concatenate((np.asarray(SYNC_PATTERN, dtype=np.uint8), payload))
    capture = transmit_backscatter(modulate_frame(frame), 2.0)
    assert np.array_equal(ap_demodulate(capture, synced=True), frame)
    with pytest.raises(ConfigError, match="shorter than its sync header"):
        ap_demodulate(capture[:len(SYNC_PATTERN) - 1], synced=True)


def test_downlink_query_decides_on_the_sync_calibrated_threshold():
    """The MAC's downlink query decides its bits on the threshold that the
    sync pattern calibrates, not on the blind two-means split. This query
    (an all-ones address near the insect's floor) is one the two decide
    differently, and only the sync-calibrated decision hears the address."""
    det, distance_m, address = DetectorConfig(), 24.0, 0xFF
    heard = _downlink_decode(address, distance_m, det, trial_rng(0, "downlink"))
    # the same capture, rebuilt: the query's levels plus the detector noise
    bits = np.repeat(list(SYNC_PATTERN) + [1] * 8,
                     round(det.sample_rate_hz / UPLINK_BITRATE_HZ))
    dbm = TX_POWER_DBM - free_space_loss_db(distance_m, CARRIER_HZ)
    levels = np.where(bits > 0, float(det.response_volts(dbm)), det.floor_volts)
    volts = levels + _normals(trial_rng(0, "downlink"), det.noise_sigma_volts,
                              np.empty(len(levels)))
    capture = volts.reshape(len(SYNC_PATTERN) + 8, -1)
    synced = ap_demodulate(capture, synced=True)[len(SYNC_PATTERN):]
    blind = ap_demodulate(capture)[len(SYNC_PATTERN):]
    assert heard == address
    assert synced.tolist() == [1] * 8
    assert blind.tolist() != [1] * 8


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
def test_ber_point_rejects_a_non_finite_noise_level(snr_db):
    for ber in (ber_point, ber_point_waveform_oracle):
        with pytest.raises(ConfigError, match="sigma"):
            ber(snr_db, 100, trial_rng(24, "snr"))


def test_ber_point_high_snr_is_error_free():
    ber, errors = ber_point(10.0, 20000, trial_rng(8, "snr10"))
    assert errors == 0
    assert ber == 0.0


def test_ber_decreases_with_snr():
    rng_key = 9
    bers = [ber_point(snr, 40000, trial_rng(rng_key, "curve", int(snr)))[0]
            for snr in (-8.0, -2.0, 2.0, 6.0)]
    assert all(a > b for a, b in zip(bers, bers[1:]))
    assert bers[0] > 0.1
    assert bers[-1] < 1e-3


def test_fast_ber_matches_waveform_oracle():
    snr = -4.0
    n_fast, n_oracle = 60000, 4000
    bf, ef = ber_point(snr, n_fast, trial_rng(10, "fast"))
    bo, eo = ber_point_waveform_oracle(snr, n_oracle, trial_rng(10, "oracle"))
    pooled = (ef + eo) / (n_fast + n_oracle)
    margin = 1.96 * math.sqrt(pooled * (1 - pooled) * (1 / n_fast + 1 / n_oracle))
    assert abs(bf - bo) <= margin


def rician_ook_ber(snr_db):
    """Closed-form BER of ber_point's decision: noncoherent OOK (Rice,
    Mathematical analysis of random noise, BSTJ 1944; Proakis, Digital
    Communications). The mean of a bit's 16 capture samples has
    per-dimension noise variance s2; zero-bits read a Rayleigh magnitude,
    one-bits a Rician one with A = 1. The threshold is the two-means fixed
    point of the equiprobable mixture, which _bimodal_threshold converges
    to as the capture grows."""
    s2 = 10.0 ** (-snr_db / 10.0) / (2.0 * 16)
    r_max = 1.0 + 12.0 * math.sqrt(s2)

    def rayleigh_and_rice(r):
        return (r / s2 * np.exp(-r * r / (2.0 * s2)),
                r / s2 * np.exp(-(r * r + 1.0) / (2.0 * s2)) * np.i0(r / s2))

    def mass_and_mean(lo, hi):
        r = np.linspace(lo, hi, 20001)
        pdf = sum(rayleigh_and_rice(r))
        mass = np.trapezoid(pdf, r)
        return mass, np.trapezoid(r * pdf, r) / mass

    t = 0.5
    for _ in range(200):
        t_new = 0.5 * (mass_and_mean(0.0, t)[1] + mass_and_mean(t, r_max)[1])
        if abs(t_new - t) <= 1e-12:
            break
        t = t_new
    r = np.linspace(0.0, t, 20001)
    missed_one = np.trapezoid(rayleigh_and_rice(r)[1], r)
    return 0.5 * (math.exp(-t * t / (2.0 * s2)) + missed_one)


def test_rician_closed_form_values():
    """Spot values of the closed form, independent of the simulator."""
    got = [rician_ook_ber(snr) for snr in (-12.0, -4.0, 0.0, 4.0)]
    assert got == pytest.approx([0.35317, 0.081597, 0.0071866, 2.4881e-5],
                                rel=1e-4)


def test_ber_vs_snr_matches_rician_closed_form():
    """10^6 bits per point, seed 1: every point with at least 20 expected
    errors (-12 to 4 dB) sits within 3 binomial standard deviations of the
    closed form; at 6 dB, where 0.11 errors are expected, at most 2."""
    table = run_experiment(ExperimentSpec(
        "ber_vs_snr", bench_scenario(seed=1), trials=10**6, workers=1))
    for snr, n, errors, _, _ in table.rows:
        p = rician_ook_ber(snr)
        expected = n * p
        if expected >= 20:
            assert abs(errors - expected) <= 3.0 * math.sqrt(expected * (1 - p)), \
                f"snr={snr}: {errors} errors, closed form {expected:.1f}"
        else:
            assert errors <= 2, f"snr={snr}: {errors} errors"


def test_mac_session_round_robin_and_skip():
    insects = []
    for k in range(3):
        node = InsectNode(address=0x20 + k, distance_m=2.0 + 0.5 * k)
        for rec in make_records(10):
            node.store.append(rec)
        insects.append(node)
    # out of range: two-way loss at 30 m sits under the AP noise floor
    insects.append(InsectNode(address=0x2F, distance_m=30.0))
    transcript = hive_mac_session(insects, DetectorConfig(), trial_rng(11, "mac"))
    delivered = transcript.delivered_bits()
    assert set(delivered) == {0x20, 0x21, 0x22}
    assert all(v == 320 for v in delivered.values())
    assert transcript.fairness_index() == pytest.approx(1.0)
    skipped = [e for e in transcript.events if e.skipped]
    assert len(skipped) == 1
    assert skipped[0].insect_address == 0x2F
    assert skipped[0].attempt == 3  # two retries then give up
    # intervals never overlap and strictly advance
    for prev, cur in zip(transcript.events, transcript.events[1:]):
        assert cur.start_s >= prev.end_s - 1e-12
        assert cur.end_s > cur.start_s
    assert transcript.events[-1].end_s == pytest.approx(
        transcript.total_elapsed_s)


def test_the_hive_counts_errors_over_the_payload_only():
    """A noisy reply at 14 m, rebuilt from the same rng: the query's
    detector noise is drawn first, then the reply's capture noise. The
    event counts the payload bits behind the sync header, and the errors
    among them only; here the sync header itself is decided with errors."""
    det, records = DetectorConfig(), make_records(40)
    node = InsectNode(address=0x22, distance_m=14.0)
    for rec in records:
        node.store.append(rec)
    (event,) = hive_mac_session([node], det, trial_rng(2, "payload")).events
    rng = trial_rng(2, "payload")
    assert _downlink_decode(0x22, 14.0, det, rng) == 0x22
    payload = frame_from_records(records)
    frame = np.concatenate((np.asarray(SYNC_PATTERN, dtype=np.uint8), payload))
    decided = ap_demodulate(transmit_backscatter(modulate_frame(frame), 14.0, rng),
                            synced=True)
    assert np.count_nonzero(decided[:len(SYNC_PATTERN)] != SYNC_PATTERN) > 0
    assert event.bits_sent == len(payload) == 1280
    assert event.bit_errors == np.count_nonzero(decided[len(SYNC_PATTERN):] != payload)
    assert event.end_s - event.start_s == pytest.approx(
        0.016 + 0.005 + len(frame) / UPLINK_BITRATE_HZ + 0.005)


def test_mac_session_hears_through_the_scenario_detector():
    """mac_session decodes each query through its scenario's detector:
    with the floor raised to -20 dBm, the insects at 3.5 m and 5 m (about
    -22.5 and -25.7 dBm one way) hear nothing and are skipped, as is the
    one at 30 m; the one at 2 m (about -17.7 dBm) still replies."""
    scn = bench_scenario(seed=1)
    scn = replace(scn, detector=replace(scn.detector, sensitivity_floor_dbm=-20.0))
    for d, dbm in ((2.0, -17.7), (3.5, -22.5), (5.0, -25.7)):
        assert TX_POWER_DBM - free_space_loss_db(d, CARRIER_HZ) == pytest.approx(
            dbm, abs=0.1)
    rows = run_experiment(ExperimentSpec("mac_session", scn)).rows
    assert {row[0] for row in rows if row[3]} == {0x10}  # replied
    assert {row[0] for row in rows if row[8]} == {0x11, 0x12, 0x13}  # skipped


def test_mac_session_holds_one_reply_capture_at_a_time():
    """After one warm call, a mac_session call's traced peak stays under
    800 KB: one 1608-bit reply's 411 KB capture at a time, its noise drawn
    in this thread's scratch. Holding the last reply's capture while the
    next one is made, with the noise drawn afresh, peaked at 1.48 MB, and
    the heap's growth was faulted in again on every call."""
    spec = ExperimentSpec("mac_session", bench_scenario(seed=1))
    run_experiment(spec)
    tracemalloc.start()
    try:
        run_experiment(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800_000


def test_fairness_is_zero_when_no_payload_bit_is_delivered():
    """An insect with an empty log replies with the sync header alone, so
    it is delivered 0 payload bits: the index reads 0.0, as when no insect
    replied, instead of dividing 0 by 0."""
    node = InsectNode(address=0x31, distance_m=2.0)
    transcript = hive_mac_session([node], DetectorConfig(), trial_rng(1, "x"))
    assert transcript.delivered_bits() == {0x31: 0}
    assert transcript.fairness_index() == 0.0
    assert MacTranscript().fairness_index() == 0.0


def test_only_replies_that_arrived_intact_are_delivered():
    """Insects at 2 m and at 14 m both reply, but the 14 m reply is decided
    with 274 of its 640 payload bits wrong: it is heard, and it delivers
    nothing, so only the 2 m insect's 320 bits count and the index is 1."""
    insects = []
    for address, distance_m, count in ((0x40, 2.0, 10), (0x41, 14.0, 20)):
        node = InsectNode(address=address, distance_m=distance_m)
        for rec in make_records(count):
            node.store.append(rec)
        insects.append(node)
    transcript = hive_mac_session(insects, DetectorConfig(), trial_rng(3, "found327"))
    near, far = transcript.events
    assert near.replied and far.replied
    assert (near.bit_errors, far.bits_sent, far.bit_errors) == (0, 640, 274)
    assert transcript.delivered_bits() == {0x40: 320}
    assert transcript.fairness_index() == 1.0


def test_mac_session_deterministic():
    def run():
        insects = [InsectNode(address=5, distance_m=3.0)]
        for rec in make_records(4):
            insects[0].store.append(rec)
        return hive_mac_session(insects, DetectorConfig(),
                                trial_rng(12, "mac-det")).to_rows()

    assert run() == run()
