"""Envelope detection, angle estimation, 2D fix, record packing, store."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sweeploc.channel import FieldTrace, PathSet, propagate
from sweeploc.receiver import (
    MIN_CROSSING_SINE,
    EnvelopeTrace,
    PREAMBLE_CORRELATION_THRESHOLD,
    LogStore,
    LookupTable,
    LowConfidenceFixError,
    Receiver,
    SensorRecord,
    StoreFullError,
    angle_code,
    angle_from_code,
    angle_from_sample,
    centered_template,
    correlate_pattern,
    envelope_detect,
    estimate_angle,
    find_preamble,
    fix_2d,
    intersect_bearings,
    period_samples,
    search_preambles,
    smooth_angle,
    step_estimate_angles,
    sweep_peaks,
    sweep_window_samples,
)
from sweeploc.scenario import (
    ApConfig,
    DetectorConfig,
    Position,
    trial_rng,
    true_bearing,
)
from sweeploc.scenarios import bench_scenario, farm_scenario
from sweeploc.transmitter import PREAMBLE_PATTERNS, build_sweep_schedule

AP1 = ApConfig(position=Position(0.0, 0.0), boresight_rad=0.0, preamble_id=1)
AP2 = ApConfig(position=Position(100.0, 0.0), boresight_rad=math.pi,
               preamble_id=2)
DET = DetectorConfig()
FS = DET.sample_rate_hz


def joined(*slots):
    """One buffer of back-to-back field samples (numbers of zeros for
    silence), starting at t = 0."""
    parts = [np.zeros(s, dtype=complex) if isinstance(s, int) else s.samples
             for s in slots]
    return FieldTrace(np.concatenate(parts), FS, 0.0)


def los_trace(ap, phi, dist=10.0, mode="alg1", t0=0.0):
    pos = Position(ap.position.x + dist * math.cos(phi + ap.boresight_rad),
                   ap.position.y + dist * math.sin(phi + ap.boresight_rad))
    sched = build_sweep_schedule(ap, mode)
    return propagate(sched, PathSet([1.0], [phi], [0.0]), pos, FS, t0_s=t0)


def test_window_and_period_sample_counts():
    assert sweep_window_samples(AP1, FS) == (32, 200)
    assert period_samples(AP1, FS) == 200


def test_envelope_detect_response_and_clip():
    trace = los_trace(AP1, 0.0, dist=10.0)
    env = envelope_detect(trace, DET)
    assert len(env.volts) == 200
    assert not env.floor_clipped.all()
    # power at 10 m is far above the floor; silence clips to the floor
    assert env.volts[32:].max() > DET.floor_volts
    quiet = envelope_detect(joined(200), DET)
    assert np.all(quiet.volts == DET.floor_volts)
    assert quiet.floor_clipped.all()


def test_envelope_detect_decimates_by_block_mean():
    trace = los_trace(AP1, 0.0)
    fast = propagate(build_sweep_schedule(AP1),
                     PathSet([1.0], [0.0], [0.0]), Position(10.0, 0.0),
                     2 * FS)
    env = envelope_detect(fast, DET)
    assert len(env.volts) == 200
    direct = envelope_detect(trace, DET)
    # preamble bits are constant within each decimation block, so both
    # rates must land on identical volts there (sweep dwells straddle
    # 8 kHz blocks, so only the preamble is rate-invariant)
    assert np.allclose(env.volts[:32], direct.volts[:32], rtol=1e-9)
    one_bit_dbm = 28.0 - 20 * math.log10(4 * math.pi * 10.0 * 915e6 / 299792458.0)
    assert direct.volts[0] == pytest.approx(10 ** (one_bit_dbm / 10))


def test_angle_from_sample_endpoints():
    assert angle_from_sample(AP1, "alg1", 32, FS) == pytest.approx(-math.pi / 2)
    mid = angle_from_sample(AP1, "alg1", 116, FS)
    assert abs(mid) < math.radians(1.0)
    assert angle_from_sample(AP1, "uniform-theta", 32, FS) == pytest.approx(
        -math.pi / 2)
    # clamped outside the sweep window
    assert angle_from_sample(AP1, "alg1", 0, FS) == pytest.approx(-math.pi / 2)


def test_step_estimate_angles_monotone():
    for mode in ("alg1", "uniform-theta"):
        angles = step_estimate_angles(AP1, mode, FS)
        assert len(angles) == 128
        assert angles[0] == pytest.approx(-math.pi / 2)
        assert np.all(np.diff(angles) >= 0)
        assert not angles.flags.writeable  # cached and shared


@pytest.mark.parametrize("mode", ["alg1", "uniform-theta"])
@pytest.mark.parametrize("deg", [-60, -25, 0, 10, 45, 70])
def test_estimate_angle_noiseless(mode, deg):
    phi = math.radians(deg)
    env = envelope_detect(los_trace(AP1, phi, mode=mode), DET)
    est = estimate_angle(env, 0, AP1, mode)
    tol = 2.0 if mode == "alg1" else 2.0 / max(math.cos(phi), 0.35)
    assert abs(math.degrees(est.raw_rad) - deg) < tol


@pytest.mark.parametrize("deg", [-40, -10, 20, 50])
def test_uniform_theta_inverts_with_the_array_spacing(deg):
    """At quarter-wavelength spacing the sweep increment is
    2*pi*0.25*sin(bearing), so the inversion must divide by that scale,
    not by pi."""
    ap = ApConfig(position=Position(0.0, 0.0), boresight_rad=0.0,
                  spacing_wavelengths=0.25)
    phi = math.radians(deg)
    env = envelope_detect(los_trace(ap, phi, mode="uniform-theta"), DET)
    est = estimate_angle(env, 0, ap, "uniform-theta")
    # half an increment step plus one sample of sweep time, mapped
    # through arcsin at this spacing
    span = ap.sweep_period_s - ap.preamble_duration_s
    q = math.pi / ap.sweep_step_count + 2 * math.pi / FS / span
    scale = 2 * math.pi * ap.spacing_wavelengths
    tol = math.asin(min(1.0, (scale * abs(math.sin(phi)) + q) / scale)) - abs(phi)
    assert abs(est.raw_rad - phi) <= tol


def test_smooth_angle_formula():
    assert smooth_angle(None, math.radians(10.0), 0.8) == pytest.approx(
        math.radians(10.0))
    out = smooth_angle(0.0, math.radians(10.0), smoothing=0.8)
    assert math.degrees(out) == pytest.approx(2.0, abs=1e-12)


def test_correlate_pattern_orthogonal_preambles():
    spb = 4
    tpl1 = np.repeat([1, 0, 1, 0, 1, 0, 1, 0], spb).astype(float)
    tpl2 = np.repeat([1, 1, 0, 0, 1, 1, 0, 0], spb).astype(float)
    c11 = correlate_pattern(tpl1, (1, 0, 1, 0, 1, 0, 1, 0), spb)
    c12 = correlate_pattern(tpl1, (1, 1, 0, 0, 1, 1, 0, 0), spb)
    assert c11[0] == pytest.approx(1.0)
    assert abs(c12[0]) < PREAMBLE_CORRELATION_THRESHOLD
    flat = correlate_pattern(np.ones(64), (1, 0, 1, 0, 1, 0, 1, 0), spb)
    assert np.all(flat == 0.0)  # zero variance never divides


def test_find_preamble_locates_slot_start():
    t_lead = 0.025
    slot = los_trace(AP1, math.radians(10.0), t0=t_lead)
    env = envelope_detect(joined(round(t_lead * FS), slot), DET)
    det = find_preamble(env, AP1)
    assert det is not None
    assert det.start_sample == round(t_lead * FS)
    assert det.correlation > 0.999
    # the start bound is honored (the pattern self-correlates at later
    # bit-aligned offsets, so a weaker echo may still appear)
    later = find_preamble(env, AP1, start=det.start_sample + 1)
    assert later is None or later.start_sample > det.start_sample


def test_find_preamble_rejects_other_ap_pattern():
    slot = los_trace(AP1, 0.0)
    env = envelope_detect(slot, DET)
    assert find_preamble(env, AP1).start_sample == 0
    assert find_preamble(env, AP2) is None


def test_find_preamble_below_floor_returns_none():
    env = envelope_detect(joined(400), DET)
    assert find_preamble(env, AP1) is None


@pytest.mark.parametrize("start,stop", [(0, None), (0, 40), (37, 120),
                                        (150, 400), (163, 165), (90, 90)])
def test_find_preamble_equals_whole_buffer_search(start, stop):
    """Correlating only the searched window gives the same offset and the
    same correlation, bit for bit, as correlating the whole buffer."""
    pattern = PREAMBLE_PATTERNS[AP1.preamble_id]
    rng = trial_rng(11, "preamble-window", start)
    volts = rng.normal(0.0, 0.05, 200)
    volts[100:132] += np.repeat(pattern, 4)
    env = EnvelopeTrace(volts, FS, 0.0, np.zeros(200, dtype=bool))
    corr = correlate_pattern(volts, pattern, 4)
    end = len(corr) if stop is None else min(stop, len(corr))
    got = find_preamble(env, AP1, start, stop, threshold=-1.0)
    if start >= end:
        assert got is None
        return
    best = start + int(np.argmax(corr[start:end]))
    assert got.start_sample == best
    assert got.correlation == corr[best]


def test_find_preamble_equals_whole_buffer_search_in_rows():
    """Rows of buffers searched at once, each in its own [start, stop)
    window, give bit for bit what the whole-buffer correlation of each row
    gives, and what find_preamble gives on the row alone."""
    pattern = PREAMBLE_PATTERNS[AP1.preamble_id]
    windows = [(0, 200), (0, 40), (37, 120), (150, 400), (163, 165), (90, 90),
               (100, 101), (2, 169)]
    volts = trial_rng(11, "preamble-rows").normal(0.0, 0.05, (len(windows), 200))
    for r in range(len(windows)):
        volts[r, 60 + 10 * r:92 + 10 * r] += np.repeat(pattern, 4)
    start, stop = (np.array(w) for w in zip(*windows))
    best, corr, found = search_preambles(volts, AP1, FS, start, stop,
                                         threshold=-1.0)
    assert found.tolist() == [lo < min(hi, 169) for lo, hi in windows]
    for r, (lo, hi) in enumerate(windows):
        whole = correlate_pattern(volts[r], pattern, 4)
        env = EnvelopeTrace(volts[r], FS, 0.0, np.zeros(200, dtype=bool))
        one = find_preamble(env, AP1, lo, hi, threshold=-1.0)
        if not found[r]:
            assert one is None
            continue
        want = lo + int(np.argmax(whole[lo:min(hi, len(whole))]))
        assert best[r] == one.start_sample == want
        assert corr[r] == one.correlation == whole[want]
    # a row's window reaching the threshold is a detection, the rest not
    _, _, strict = search_preambles(volts, AP1, FS, start, stop)
    assert strict.tolist() == (found & (corr >= 0.75)).tolist()


def test_sweep_peaks_rows_with_their_own_periods():
    """Each row's peak is the earliest maximum of its own sweep window,
    the same as estimate_angle on the row alone."""
    first, stop = sweep_window_samples(AP1, FS)
    starts = np.array([0, 37, 200, 5, 199, 120])
    volts = trial_rng(12, "peak-rows").normal(0.0, 1.0, (len(starts), 400))
    volts[1, 37 + first:37 + stop] = 0.0  # a flat sweep: the first sample wins
    peaks = sweep_peaks(volts, starts, AP1, FS)
    for r, p in enumerate(starts):
        assert peaks[r] == p + first + int(np.argmax(volts[r, p + first:p + stop]))
        env = EnvelopeTrace(volts[r], FS, 0.25, np.zeros(400, dtype=bool))
        est = estimate_angle(env, int(p), AP1, "alg1")
        assert est.peak_sample == peaks[r]
        assert est.raw_rad == angle_from_sample(AP1, "alg1", peaks[r] - p, FS)
        assert est.timestamp_s == 0.25 + peaks[r] / FS


def test_centered_template_is_cached_read_only_and_exact():
    """The template the correlator uses is built once per (pattern,
    samples per bit), cannot be written, and equals the per-call formula
    bit for bit."""
    for pattern in PREAMBLE_PATTERNS.values():
        for spb in (1, 4, 7):
            tc, tnorm = centered_template(pattern, spb)
            again, _ = centered_template(tuple(list(pattern)), spb)
            assert again is tc
            assert not tc.flags.writeable
            with pytest.raises(ValueError):
                tc[0] = 0.0
            template = np.repeat(np.asarray(list(pattern), dtype=float), spb)
            want = template - template.mean()
            assert tc.tobytes() == want.tobytes()
            assert tnorm == math.sqrt(float(want @ want))


def test_intersect_bearings_exact_geometry():
    target = Position(30.0, 40.0)
    b1 = true_bearing(AP1, target)
    b2 = true_bearing(AP2, target)
    hit = intersect_bearings(AP1, b1, AP2, b2)
    assert hit is not None
    assert hit.x == pytest.approx(30.0, abs=1e-9)
    assert hit.y == pytest.approx(40.0, abs=1e-9)


def test_intersect_bearings_degenerate_cases():
    # parallel rays: both point straight up from an east-west baseline
    assert intersect_bearings(AP1, math.pi / 2, AP2, math.pi / 2) is None
    # crossing behind the arrays
    target = Position(30.0, -40.0)
    b1 = true_bearing(AP1, Position(30.0, 40.0))
    b2 = true_bearing(AP2, target)
    assert intersect_bearings(AP1, b1, AP2, b2) is None


def test_lookup_table_exact_at_cell_centers():
    table = LookupTable(AP1, AP2)
    assert table.resolution_deg == 1.0
    assert 0.0 < np.isfinite(table.xs).mean() < 1.0
    target = Position(30.5, 44.2)
    b1 = true_bearing(AP1, target)
    b2 = true_bearing(AP2, target)
    i = table.cell_index(b1)
    j = table.cell_index(b2)
    c1 = math.radians(-90.0 + (i + 0.5) * table.resolution_deg)
    c2 = math.radians(-90.0 + (j + 0.5) * table.resolution_deg)
    exact = intersect_bearings(AP1, c1, AP2, c2)
    fix = fix_2d(b1, b2, table)
    assert fix.position.x == pytest.approx(exact.x, abs=1e-9)
    assert fix.position.y == pytest.approx(exact.y, abs=1e-9)


@pytest.mark.parametrize("resolution", [1.0, 0.5, 30.0])
@pytest.mark.parametrize("pair", ["farm", "bench"])
def test_lookup_table_equals_intersect_bearings_loop(pair, resolution):
    """The array-valued table build gives, bit for bit, what one
    intersect_bearings call per cell gives, with NaN in the same cells."""
    ap1, ap2 = {"farm": farm_scenario, "bench": bench_scenario}[pair](seed=0).aps[:2]
    table = LookupTable(ap1, ap2, resolution_deg=resolution)
    n = table.cell_count
    xs = np.full((n, n), np.nan)
    ys = np.full((n, n), np.nan)
    for i, b1 in enumerate(table.centers_rad):
        for j, b2 in enumerate(table.centers_rad):
            pt = intersect_bearings(ap1, float(b1), ap2, float(b2))
            if pt is not None:
                xs[i, j], ys[i, j] = pt.x, pt.y
    assert 0.0 < np.isfinite(table.xs).mean() < 1.0
    assert np.array_equal(np.isnan(table.xs), np.isnan(xs))
    assert table.xs.tobytes() == xs.tobytes()
    assert table.ys.tobytes() == ys.tobytes()


def test_fix_2d_low_confidence_raises():
    table = LookupTable(AP1, AP2)
    with pytest.raises(LowConfidenceFixError):
        fix_2d(math.pi / 2 - 0.001, math.pi / 2 - 0.001, table)


def test_cell_index_edges():
    table = LookupTable(AP1, AP2)
    assert table.cell_index(math.radians(-90.0)) == 0
    assert table.cell_index(math.radians(-89.4)) == 0
    assert table.cell_index(0.0) == 90
    assert table.cell_index(math.radians(90.0)) == 179  # top edge folds in


def test_angle_code_endpoints_and_quantization():
    assert angle_code(math.radians(-90.0)) == 0
    assert angle_code(math.radians(90.0)) == 255
    step = 180.0 / 255.0
    for deg in np.linspace(-90, 90, 181):
        code = angle_code(math.radians(deg))
        assert 0 <= code <= 255
        back = math.degrees(angle_from_code(code))
        assert abs(back - deg) <= step / 2 + 1e-9


@given(st.one_of(
    st.tuples(st.just("humidity"), st.integers(0, 2047)),
    st.tuples(st.just("temperature"), st.integers(0, 2047)),
    st.tuples(st.just("light"), st.integers(0, 4095))),
    st.integers(0, 255), st.integers(0, 255))
def test_sensor_record_pack_round_trip(kind_value, a1, a2):
    kind, value = kind_value
    rec = SensorRecord(kind, value, a1, a2)
    blob = rec.pack()
    assert len(blob) == 4
    assert SensorRecord.unpack(blob) == rec


def test_sensor_record_rejects_bad_fields():
    with pytest.raises(ValueError):
        SensorRecord("humidity", 4096, 0, 0)
    with pytest.raises(ValueError):
        SensorRecord("pressure", 0, 0, 0)
    with pytest.raises(ValueError):
        SensorRecord("humidity", 0, 256, 0)
    # reserved bits must be zero on unpack
    blob = bytes([0x00, 0x00, 0x00, 0x01])
    with pytest.raises(ValueError):
        SensorRecord.unpack(blob)


def test_log_store_capacity_and_round_trip():
    store = LogStore()
    assert store.max_records == 8192
    rec = SensorRecord("light", 100, 10, 20)
    for _ in range(100):
        store.append(rec)
    assert store.used_bytes == 400
    blob = store.dump()
    assert len(blob) == 400
    again = LogStore.restore(blob)
    assert again.records == store.records


def test_log_store_overflow_raises():
    store = LogStore(capacity_bytes=8)
    rec = SensorRecord("humidity", 1, 2, 3)
    store.append(rec)
    store.append(rec)
    with pytest.raises(StoreFullError):
        store.append(rec)


def test_receiver_two_slot_buffer_produces_fix():
    table = LookupTable(AP1, AP2)
    rx = Receiver((AP1, AP2), "alg1", smoothing=0.8, table=table)
    # keep both links inside detector range (the floor clips past ~60 m)
    target = Position(50.0, 10.0)
    b1 = true_bearing(AP1, target)
    b2 = true_bearing(AP2, target)
    s1 = propagate(build_sweep_schedule(AP1), PathSet([1.0], [b1], [0.0]),
                   target, FS, t0_s=0.0)
    s2 = propagate(build_sweep_schedule(AP2), PathSet([1.0], [b2], [0.0]),
                   target, FS, t0_s=0.05)
    env = envelope_detect(joined(s1, s2), DET)
    result = rx.process_buffer(env)
    assert result.ok
    err = math.hypot(result.fix.position.x - 50.0,
                     result.fix.position.y - 10.0)
    assert err < 3.0
    # the smoothed track seeds from the first raw angles
    assert rx.smoothed[0] == pytest.approx(result.angles[0].raw_rad)


def test_receiver_log_measurement_uses_tracked_angles():
    rx = Receiver((AP1, AP2), "alg1", smoothing=0.8)
    rx.smoothed = [math.radians(10.0), math.radians(-20.0)]
    rec = rx.log_measurement("temperature", 300)
    assert rec.kind == "temperature"
    assert rec.value == 300
    assert rec.angle1_code == angle_code(math.radians(10.0))
    assert rec.angle2_code == angle_code(math.radians(-20.0))
    assert rx.store.records[-1] == rec


def test_min_crossing_sine_guards_parallel_rays():
    assert MIN_CROSSING_SINE == pytest.approx(0.05)
