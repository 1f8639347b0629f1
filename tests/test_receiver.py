"""Envelope detection, angle estimation, 2D fix, record packing, store."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sweeploc import receiver
from sweeploc.channel import FieldTrace, PathSet, propagate
from sweeploc.receiver import (
    MIN_CROSSING_SINE,
    EnvelopeTrace,
    PREAMBLE_CORRELATION_THRESHOLD,
    LOG_RECORDS,
    SENSOR_KINDS,
    TABLE_CELLS,
    TABLE_RESOLUTION_DEG,
    LogStore,
    LookupTable,
    Receiver,
    SensorRecord,
    StoreFullError,
    angle_from_sample,
    centered_template,
    correlate_pattern,
    envelope_detect,
    estimate_angle,
    find_preamble,
    fix_2d,
    sample_angles,
    search_preambles,
    smooth_angle,
    step_estimate_angles,
    sweep_peaks,
    sweep_window_samples,
)
from sweeploc.scenario import (
    ApConfig,
    ConfigError,
    DetectorConfig,
    Position,
    Scenario,
    Trajectory,
    trial_rng,
    true_bearing_xy,
)
from sweeploc.scenarios import bench_scenario, farm_scenario
from sweeploc.transmitter import PREAMBLE_PATTERNS, period_samples

from helpers import intersect_bearings

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
    return FieldTrace(np.concatenate(parts), FS)


def los_trace(ap, phi, dist=10.0, mode="alg1", t0=0.0):
    """One slot of a LOS-only field at bearing phi, dist from the AP."""
    pos = Position(ap.position.x + dist * math.cos(phi + ap.boresight_rad),
                   ap.position.y + dist * math.sin(phi + ap.boresight_rad))
    return still_slot(ap, mode, pos, t0)


def still_slot(ap, mode, pos, t0):
    """One slot of a LOS-only field at pos, starting at t0."""
    trace = propagate(ap, mode, PathSet([], [], []), [Trajectory.stationary(pos)],
                      FS, np.array([t0]))
    return FieldTrace(trace.samples[0], FS)


def test_window_and_period_sample_counts():
    assert sweep_window_samples(AP1, FS) == (32, 200)
    assert period_samples(AP1, FS) == 200


def test_envelope_detect_response_and_clip():
    trace = los_trace(AP1, 0.0, dist=10.0)
    env = envelope_detect(trace, DET)
    assert len(env.volts) == 200
    # power at 10 m is far above the floor; silence clips to the floor
    assert env.volts[32:].max() > DET.floor_volts
    quiet = envelope_detect(joined(200), DET)
    assert np.all(quiet.volts == DET.floor_volts)


def test_envelope_detect_takes_the_field_at_the_detector_rate():
    trace = los_trace(AP1, 0.0)
    one_bit_dbm = 28.0 - 20 * math.log10(4 * math.pi * 10.0 * 915e6 / 299792458.0)
    assert envelope_detect(trace, DET).volts[0] == pytest.approx(
        10 ** (one_bit_dbm / 10))
    for rate_hz in (2 * FS, FS / 2, math.nan):
        with pytest.raises(ConfigError, match="detector rate"):
            envelope_detect(FieldTrace(trace.samples, rate_hz), DET)


def test_angle_from_sample_endpoints():
    assert angle_from_sample(AP1, "alg1", 32, FS) == pytest.approx(-math.pi / 2)
    mid = angle_from_sample(AP1, "alg1", 116, FS)
    assert abs(mid) < math.radians(1.0)
    assert angle_from_sample(AP1, "uniform-theta", 32, FS) == pytest.approx(
        -math.pi / 2)
    # clamped outside the sweep window
    assert angle_from_sample(AP1, "alg1", 0, FS) == pytest.approx(-math.pi / 2)


def test_step_estimate_angles_monotone():
    # step m starts 32 + m * 168/128 samples into the period, exactly
    first = [math.ceil(32 + m * Fraction(168, 128)) for m in range(128)]
    for mode in ("alg1", "uniform-theta"):
        angles = step_estimate_angles(AP1, mode, FS)
        assert len(angles) == 128
        assert angles[0] == pytest.approx(-math.pi / 2)
        assert np.all(np.diff(angles) >= 0)
        assert angles.tolist() == sample_angles(AP1, mode, FS)[first].tolist()
        assert not angles.flags.writeable  # cached and shared


def test_sample_angles_is_angle_from_sample_at_every_sample():
    """The table Receiver.scan reads raw bearings from holds exactly
    angle_from_sample of each sample index of a period, read-only."""
    for mode in ("alg1", "uniform-theta"):
        table = sample_angles(AP1, mode, FS)
        assert table.tolist() == [angle_from_sample(AP1, mode, s, FS)
                                  for s in range(period_samples(AP1, FS))]
        assert not table.flags.writeable  # cached and shared


@pytest.mark.parametrize("mode", ["alg1", "uniform-theta"])
@pytest.mark.parametrize("deg", [-60, -25, 0, 10, 45, 70])
def test_estimate_angle_noiseless(mode, deg):
    phi = math.radians(deg)
    env = envelope_detect(los_trace(AP1, phi, mode=mode), DET)
    est = estimate_angle(env, 0, AP1, mode)
    tol = 2.0 if mode == "alg1" else 2.0 / max(math.cos(phi), 0.35)
    assert abs(math.degrees(est) - deg) < tol


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
    assert abs(est - phi) <= tol


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
    start = find_preamble(env, AP1)
    assert start == round(t_lead * FS)
    best, peak, _ = search_preambles(env.volts[None], AP1, FS, np.array([0]),
                                     np.array([len(env.volts)]))
    assert best[0] == start and peak[0] >= 0.999
    # the start bound is honored (the pattern self-correlates at later
    # bit-aligned offsets, so a weaker echo may still appear)
    later = find_preamble(env, AP1, start=start + 1)
    assert later is None or later > start


def test_find_preamble_rejects_other_ap_pattern():
    slot = los_trace(AP1, 0.0)
    env = envelope_detect(slot, DET)
    assert find_preamble(env, AP1) == 0
    assert find_preamble(env, AP2) is None


def test_find_preamble_below_floor_returns_none():
    env = envelope_detect(joined(400), DET)
    assert find_preamble(env, AP1) is None


@pytest.mark.parametrize("start,stop", [(0, None), (0, 40), (37, 120),
                                        (150, 400), (163, 165), (90, 90)])
def test_find_preamble_equals_whole_buffer_search(start, stop, monkeypatch):
    """Correlating only the searched window gives the same offset and the
    same correlation, bit for bit, as correlating the whole buffer."""
    pattern = PREAMBLE_PATTERNS[AP1.preamble_id]
    rng = trial_rng(11, "preamble-window", start)
    volts = rng.normal(0.0, 0.05, 200)
    volts[100:132] += np.repeat(pattern, 4)
    env = EnvelopeTrace(volts, FS, 0.0)
    corr = correlate_pattern(volts, pattern, 4)
    end = len(corr) if stop is None else min(stop, len(corr))
    got, peak, found = search_preambles(
        volts[None], AP1, FS, np.array([start]),
        np.array([len(volts) if stop is None else stop]))
    if start >= end:
        assert not found[0] and find_preamble(env, AP1, start, stop) is None
        return
    best = start + int(np.argmax(corr[start:end]))
    assert got[0] == best and peak[0].tobytes() == corr[best].tobytes()
    # found at a threshold of its own correlation, not just above it
    monkeypatch.setattr(receiver, "PREAMBLE_CORRELATION_THRESHOLD", corr[best])
    assert find_preamble(env, AP1, start, stop) == best
    monkeypatch.setattr(receiver, "PREAMBLE_CORRELATION_THRESHOLD",
                        np.nextafter(corr[best], 2.0))
    assert find_preamble(env, AP1, start, stop) is None


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
    best, corr, found = search_preambles(volts, AP1, FS, start, stop)
    searched = np.array([lo < min(hi, 169) for lo, hi in windows])
    for r, (lo, hi) in enumerate(windows):
        whole = correlate_pattern(volts[r], pattern, 4)
        env = EnvelopeTrace(volts[r], FS, 0.0)
        one = find_preamble(env, AP1, lo, hi)
        if not searched[r]:
            assert one is None
            continue
        want = lo + int(np.argmax(whole[lo:min(hi, len(whole))]))
        assert best[r] == want and one == (want if found[r] else None)
        assert corr[r] == whole[want]
    # a row's window reaching the threshold is a detection, the rest not
    assert found.tolist() == (searched & (corr >= 0.75)).tolist()


def test_sweep_peaks_rows_with_their_own_periods():
    """Each row's peak is the earliest maximum of its own sweep window,
    and its bearing the one estimate_angle gives on the row alone."""
    first, stop = sweep_window_samples(AP1, FS)
    starts = np.array([0, 37, 200, 5, 199, 120])
    volts = trial_rng(12, "peak-rows").normal(0.0, 1.0, (len(starts), 400))
    volts[1, 37 + first:37 + stop] = 0.0  # a flat sweep: the first sample wins
    peaks = sweep_peaks(volts, starts, AP1, FS)
    for r, p in enumerate(starts):
        assert peaks[r] == p + first + int(np.argmax(volts[r, p + first:p + stop]))
        env = EnvelopeTrace(volts[r], FS, 0.25)
        est = estimate_angle(env, int(p), AP1, "alg1")
        assert est == angle_from_sample(AP1, "alg1", peaks[r] - p, FS)


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
    b1 = true_bearing_xy(AP1, target.x, target.y)
    b2 = true_bearing_xy(AP2, target.x, target.y)
    hit = intersect_bearings(AP1, b1, AP2, b2)
    assert hit is not None
    assert hit.x == pytest.approx(30.0, abs=1e-9)
    assert hit.y == pytest.approx(40.0, abs=1e-9)


def test_intersect_bearings_degenerate_cases():
    # parallel rays: both point straight up from an east-west baseline
    assert intersect_bearings(AP1, math.pi / 2, AP2, math.pi / 2) is None
    # crossing behind the arrays
    target = Position(30.0, -40.0)
    b1 = true_bearing_xy(AP1, 30.0, 40.0)
    b2 = true_bearing_xy(AP2, target.x, target.y)
    assert intersect_bearings(AP1, b1, AP2, b2) is None


def test_lookup_table_exact_at_cell_centers():
    table = LookupTable(AP1, AP2)
    assert (TABLE_RESOLUTION_DEG, TABLE_CELLS) == (1.0, 180)
    assert 0.0 < np.isfinite(table.xs).mean() < 1.0
    target = Position(30.5, 44.2)
    b1 = true_bearing_xy(AP1, target.x, target.y)
    b2 = true_bearing_xy(AP2, target.x, target.y)
    i = table.cell_index(b1)
    j = table.cell_index(b2)
    c1 = math.radians(-90.0 + (i + 0.5) * TABLE_RESOLUTION_DEG)
    c2 = math.radians(-90.0 + (j + 0.5) * TABLE_RESOLUTION_DEG)
    exact = intersect_bearings(AP1, c1, AP2, c2)
    x, y = fix_2d(b1, b2, table)
    assert x == pytest.approx(exact.x, abs=1e-9)
    assert y == pytest.approx(exact.y, abs=1e-9)


@pytest.mark.parametrize("resolution", [1.0])  # the table's cells
@pytest.mark.parametrize("pair", ["farm", "bench"])
def test_lookup_table_equals_intersect_bearings_loop(pair, resolution):
    """The array-valued table build gives, bit for bit, what one
    intersect_bearings call per cell center gives, with NaN in the same
    cells."""
    ap1, ap2 = {"farm": farm_scenario, "bench": bench_scenario}[pair](seed=0).aps[:2]
    table = LookupTable(ap1, ap2)
    n = round(180.0 / resolution)
    centers = np.deg2rad(-90.0 + (np.arange(n) + 0.5) * resolution)
    xs = np.full((n, n), np.nan)
    ys = np.full((n, n), np.nan)
    for i, b1 in enumerate(centers):
        for j, b2 in enumerate(centers):
            pt = intersect_bearings(ap1, float(b1), ap2, float(b2))
            if pt is not None:
                xs[i, j], ys[i, j] = pt.x, pt.y
    assert 0.0 < np.isfinite(table.xs).mean() < 1.0
    assert np.array_equal(np.isnan(table.xs), np.isnan(xs))
    assert table.xs.tobytes() == xs.tobytes()
    assert table.ys.tobytes() == ys.tobytes()


def test_fix_2d_low_confidence_is_nan():
    table = LookupTable(AP1, AP2)
    x, y = fix_2d(math.pi / 2 - 0.001, math.pi / 2 - 0.001, table)
    assert np.isnan(x) and np.isnan(y)


def test_cell_index_edges():
    table = LookupTable(AP1, AP2)
    assert table.cell_index(math.radians(-90.0)) == 0
    assert table.cell_index(math.radians(-89.4)) == 0
    assert table.cell_index(0.0) == 90
    assert table.cell_index(math.radians(90.0)) == 179  # top edge folds in
    # outside the table: -1, not an error
    assert table.cell_index(math.radians(90.0) + 1e-9) == -1
    assert table.cell_index(math.radians(-90.0) - 1e-9) == -1
    assert table.cell_index(math.nan) == -1


@pytest.mark.parametrize("resolution", [1.0])  # the table's cells
def test_cell_index_of_rows_is_the_scalar_floor_rule(resolution):
    """Over an array, each cell is the scalar rule's: math.floor of
    (degrees + 90) / resolution, +90 degrees folded into the top cell, and
    -1 where the scalar rule finds no cell."""
    table = LookupTable(AP1, AP2)
    n = round(180.0 / resolution)
    rng = trial_rng(5, "cell-index")
    edges = np.radians(-90.0 + np.arange(n + 1) * resolution)
    bearings = np.concatenate([rng.uniform(-1.7, 1.7, 2000), edges,
                               np.nextafter(edges, 3.0),
                               np.nextafter(edges, -3.0)])

    def scalar(b):
        deg = math.degrees(b)
        idx = math.floor((deg + 90.0) / resolution)
        if idx == n and deg <= 90.0:
            idx -= 1
        return idx if 0 <= idx < n else -1
    got = table.cell_index(bearings)
    assert got.tolist() == [scalar(b) for b in bearings.tolist()]
    assert table.cell_index(bearings[:2000].reshape(-1, 4)).tolist() == \
        got[:2000].reshape(-1, 4).tolist()


def test_fix_2d_over_rows_equals_one_pair_at_a_time():
    """Rows of bearing pairs give, bit for bit, the fix of each pair on its
    own: the table cell's, or NaN for a NaN bearing, a bearing outside the
    table or a degenerate cell pair. NaN bearings raise no warning (the
    suite turns a RuntimeWarning into an error)."""
    table = LookupTable(AP1, AP2)
    rng = trial_rng(6, "fix-rows")
    b1, b2 = rng.uniform(-1.7, 1.7, (2, 500))
    b1[::7] = np.nan
    b2[3::11] = np.nan
    xs, ys = fix_2d(b1, b2, table)
    assert xs.shape == ys.shape == (500,)
    for k in range(500):
        i, j = table.cell_index(b1[k]), table.cell_index(b2[k])
        if i < 0 or j < 0:
            want = (math.nan, math.nan)
        else:
            want = (table.xs[i, j], table.ys[i, j])
        assert np.array_equal((xs[k], ys[k]), want, equal_nan=True)
        assert np.array_equal(fix_2d(b1[k], b2[k], table), want, equal_nan=True)
    nan = np.isnan(b1) | np.isnan(b2)
    assert np.isnan(xs[nan]).all() and np.isnan(ys[nan]).all()
    # every way of giving no fix occurs
    outside = (np.abs(b1) > math.pi / 2) | (np.abs(b2) > math.pi / 2)
    assert nan.any() and outside.any()
    assert np.isnan(xs[~nan & ~outside]).any()
    assert np.isfinite(xs).sum() > 100


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
    word = int.from_bytes(blob, "big")
    # 2-bit tag, 12-bit value, two 8-bit angle codes, 2 zero reserved bits
    assert (word >> 30, (word >> 18) & 0xFFF) == (SENSOR_KINDS[kind][0], value)
    assert ((word >> 10) & 0xFF, (word >> 2) & 0xFF, word & 0x3) == (a1, a2, 0)


def test_sensor_record_rejects_bad_fields():
    with pytest.raises(ValueError):
        SensorRecord("humidity", 4096, 0, 0)
    with pytest.raises(ValueError):
        SensorRecord("pressure", 0, 0, 0)
    with pytest.raises(ValueError):
        SensorRecord("humidity", 0, 256, 0)


def test_log_store_capacity_and_round_trip():
    store = LogStore()
    assert LOG_RECORDS == 8192
    records = [SensorRecord("light", k, 10, 20) for k in range(100)]
    for rec in records:
        store.append(rec)
    assert store.records == records


def test_log_store_overflow_raises():
    store = LogStore()
    rec = SensorRecord("humidity", 1, 2, 3)
    for _ in range(LOG_RECORDS):
        store.append(rec)
    with pytest.raises(StoreFullError, match="8192 records"):
        store.append(rec)
    assert len(store.records) == LOG_RECORDS


def test_receiver_two_slot_buffer_produces_fix():
    rx = Receiver(Scenario(aps=(AP1, AP2), smoothing=0.8))
    # keep both links inside detector range (the floor clips past ~60 m)
    target = Position(50.0, 10.0)
    env = envelope_detect(joined(still_slot(AP1, "alg1", target, 0.0),
                                 still_slot(AP2, "alg1", target, 0.05)), DET)
    fix = rx.process_buffer(env).fix
    assert math.hypot(fix.x - 50.0, fix.y - 10.0) < 3.0
    # one row: each smoothed track is seeded with its raw angle
    scan = rx.scan(env)
    assert scan.found.tolist() == [[True, True]]
    assert scan.smoothed_rad.tolist() == scan.raw_rad.tolist()
    assert (scan.x_m[0], scan.y_m[0]) == (fix.x, fix.y)


def test_receiver_takes_its_settings_from_the_scenario():
    scn = Scenario(aps=(AP1, AP2), sweep_mode="uniform-theta", smoothing=0.3)
    rx = Receiver(scn)
    assert (rx.aps, rx.sweep_mode, rx.smoothing) == ((AP1, AP2), "uniform-theta", 0.3)
    # the APs' shared table, the same for every receiver of that AP pair
    assert rx.table is receiver.cached_table(AP1, AP2)
    assert Receiver(Scenario(aps=(AP1, AP2), smoothing=0.8)).table is rx.table
    # one AP is refused before any table is looked up
    looked_up = receiver.cached_table.cache_info()
    with pytest.raises(ConfigError, match="two APs"):
        Receiver(Scenario(aps=(AP1,)))
    assert receiver.cached_table.cache_info() == looked_up


def test_cached_table_is_shared_and_read_only():
    farm = farm_scenario(seed=5)
    table = receiver.cached_table(farm.aps[0], farm.aps[1])
    # the table depends on the APs alone, not on the rest of the scenario
    assert receiver.cached_table(*farm_scenario(seed=6).aps[:2]) is table
    assert receiver.cached_table(farm.aps[1], farm.aps[0]) is not table
    fresh = LookupTable(farm.aps[0], farm.aps[1])
    for name in ("xs", "ys"):
        assert getattr(table, name).tobytes() == getattr(fresh, name).tobytes()
        with pytest.raises(ValueError):
            getattr(table, name)[0, 0] = 0.0


def test_min_crossing_sine_guards_parallel_rays():
    assert MIN_CROSSING_SINE == pytest.approx(0.05)
