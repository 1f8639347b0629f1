"""Acceptance suite: the quantitative contracts the package ships under.

One test per contract, each checking the stated bound end to end. These
run the real pipelines (no mocks) and take a couple of minutes total.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from sweeploc.backscatter import (
    UPLINK_BITRATE_HZ,
    InsectNode,
    ap_demodulate,
    ber_point,
    frame_from_records,
    hive_mac_session,
    modulate_frame,
    transmit_backscatter,
)
from sweeploc.channel import FieldTrace, PathSet, propagate
from sweeploc.experiments import (
    BER_SNR_POINTS_DB,
    ExperimentSpec,
    render_csv,
    run_experiment,
)
from sweeploc.power import (
    RF_PATH_LOSS_DB,
    RF_TX_POWER_DBM,
    average_current_ma,
    battery_life_h,
    rf_charge_time_h,
    solar_power_uw,
)
from sweeploc.receiver import (
    LOG_CAPACITY_BYTES,
    RECORD_SIZE_BYTES,
    TABLE_RESOLUTION_DEG,
    LogStore,
    LookupTable,
    SensorRecord,
    envelope_detect,
    estimate_angle,
    fix_2d,
    smooth_angle,
)
from sweeploc.scenario import (
    ApConfig,
    DetectorConfig,
    Position,
    Trajectory,
    trial_rng,
    true_bearing_xy,
)
from sweeploc.scenarios import bench_scenario, farm_scenario
from sweeploc.transmitter import drive_increments

from helpers import (ber_point_waveform_oracle, grid_cell_errors,
                     intersect_bearings, row_starts)


def test_criterion_1_multipath_error_and_antenna_monotonicity():
    """Mean bearing error under multipath stays below 10 degrees at the
    published operating points and never degrades when antennas are
    added, on a 10^4-trial seeded ensemble inside the runtime budget."""
    scn = bench_scenario(seed=42)
    t0 = time.perf_counter()
    table = run_experiment(ExperimentSpec("multipath_grid", scn,
                                          trials=10000, workers=4))
    elapsed = time.perf_counter() - t0
    mean_abs = {(n, r): e for n, r, _, e, _ in table.rows}

    assert mean_abs[(4, 0.6)] < 10.0
    # off-grid operating point: five antennas, reflections nearly as
    # strong as the direct path
    errs = np.concatenate([grid_cell_errors(scn, 5, 0.95, "r095", c, 1024)
                           for c in range(10)])
    assert errs.size >= 10000
    assert float(np.abs(errs).mean()) < 10.0

    for ratio in (0.2, 0.4, 0.6, 0.8):
        seq = [mean_abs[(n, ratio)] for n in (2, 3, 4, 5)]
        assert all(a >= b - 1e-12 for a, b in zip(seq, seq[1:])), \
            f"error not monotone in antenna count at R={ratio}: {seq}"
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"


def test_criterion_2_noiseless_estimates_within_quantization():
    """A static line-of-sight receiver is located to within half a sweep
    step plus the time-sampling quantum, at every whole-degree bearing
    inside (-80, 80), for 2..5 antennas and both sweep modes."""
    det = DetectorConfig()
    fs = det.sample_rate_hz
    base = ApConfig(position=Position(0.0, 0.0), boresight_rad=0.0)
    span = base.sweep_period_s - base.preamble_duration_s
    failures = []
    for mode in ("alg1", "uniform-theta"):
        for n_ant in (2, 3, 4, 5):
            ap = replace(base, antenna_count=n_ant)
            for deg in range(-79, 80):
                phi = math.radians(deg)
                pos = Position(10.0 * math.cos(phi), 10.0 * math.sin(phi))
                trace = propagate(ap, mode, PathSet([], [], []),
                                  [Trajectory.stationary(pos)], fs, np.zeros(1))
                env = envelope_detect(FieldTrace(trace.samples[0], fs), det)
                est = estimate_angle(env, 0, ap, mode)
                err = abs(est - phi)
                if mode == "alg1":
                    # half a steering step plus the sample-grid quantum
                    tol = ap.sweep_step_rad / 2 + math.pi / fs / span
                else:
                    # theta quantization mapped through arcsin: the image
                    # of the quantization interval around the true bearing
                    q = math.pi / ap.sweep_step_count + 2 * math.pi / fs / span
                    theta = math.pi * abs(math.sin(phi))
                    tol = math.asin(min(1.0, (theta + q) / math.pi)) - abs(phi)
                if err > tol:
                    failures.append((mode, n_ant, deg, err, tol))
    assert failures == []


def test_criterion_3_sweep_magnitude_matches_array_factor():
    """Synthesized sweep samples equal the analytic array response: the
    two-antenna closed form g*A*sqrt(2+2cos(x)) and the direct complex
    sum for 2..5 antennas, to 1e-9 relative at every sample. A reflection
    of weight a*exp(j*psi) arrives from the LOS bearing, so the two paths
    add to one of gain g = |1 + a*exp(j*psi)|."""
    det = DetectorConfig()
    fs = det.sample_rate_hz
    from sweeploc.scenario import free_space_loss_db
    for n_ant in (2, 3, 4, 5):
        ap = ApConfig(position=Position(0.0, 0.0), boresight_rad=0.0,
                      antenna_count=n_ant)
        phi, d = math.radians(23.0), 12.0
        a_path, excess = 0.8, 0.4
        pos = Position(d * math.cos(phi), d * math.sin(phi))
        samples = propagate(ap, "alg1", PathSet([a_path], [phi], [excess]),
                            [Trajectory.stationary(pos)], fs, np.zeros(1)).samples[0]
        gain = abs(1.0 + a_path * complex(math.cos(excess), math.sin(excess)))

        # the sweep steps are the schedule's last sweep_step_count rows
        starts = row_starts(ap)
        n_pre = len(starts) - ap.sweep_step_count
        t = np.arange(len(samples)) / fs
        entry = np.clip(np.searchsorted(starts, t + 1e-12) - 1, 0,
                        len(starts) - 1)
        sweep = entry >= n_pre
        x = (2.0 * math.pi * ap.spacing_wavelengths * math.sin(phi)
             - drive_increments(ap, "alg1")[entry[sweep] - n_pre])
        link = 10.0 ** ((ap.tx_power_dbm
                         - free_space_loss_db(d, ap.carrier_hz)) / 20.0)
        # independent oracle: raw complex sum, no shared helper
        oracle = gain * link * np.abs(
            np.exp(1j * np.outer(x, np.arange(n_ant))).sum(axis=1))
        sim = np.abs(samples[sweep])
        assert np.all(np.abs(sim - oracle) <= 1e-9 * oracle + 1e-15)
        if n_ant == 2:
            closed = gain * link * np.sqrt(np.maximum(0.0, 2 + 2 * np.cos(x)))
            assert np.all(np.abs(sim - closed) <= 1e-9 * closed + 1e-15)


def test_criterion_4_smoothing_arithmetic_and_variance_reduction():
    """One smoothing step with weight 0.8 moves a 0-degree history toward
    a 10-degree reading by exactly one fifth; over long noisy sequences
    the smoothed track has far less variance than the raw one."""
    s = smooth_angle(0.0, math.radians(10.0), 0.8)
    assert s == 0.8 * 0.0 + (1.0 - 0.8) * math.radians(10.0)
    assert math.degrees(s) == pytest.approx(2.000, abs=1e-12)

    rng = trial_rng(11, "smooth-var")
    raw = rng.normal(0.0, math.radians(5.0), 10000)
    smoothed = np.empty_like(raw)
    prev = None
    for k, r in enumerate(raw):
        prev = smooth_angle(prev, float(r), 0.8)
        smoothed[k] = prev
    # steady-state variance ratio for weight 0.8 is (1-w)/(1+w) = 1/9
    assert np.var(smoothed[100:]) < 0.2 * np.var(raw[100:])


def test_criterion_5_table_fix_matches_exact_intersection():
    """The quantized lookup-table fix lands within one table cell's
    ground footprint of the closed-form ray intersection on 10^3 random
    field points; parallel-ray cells give NaN instead of returning junk.
    The end-to-end field median (multipath up to R=0.6) stays <= 5 m."""
    scn = farm_scenario(seed=21)
    ap1, ap2 = scn.aps
    table = LookupTable(ap1, ap2)
    res = math.radians(TABLE_RESOLUTION_DEG)
    rng = trial_rng(21, "fix-points")
    checked = skipped = 0
    # points near the AP-to-AP segment see almost anti-parallel rays and
    # trip the dilution guard in the closed form or at a cell corner;
    # they are excluded from the comparison but must stay rare
    while checked < 1000:
        p = Position(float(rng.uniform(5.0, 115.0)),
                     float(rng.uniform(5.0, 85.0)))
        b1 = true_bearing_xy(ap1, p.x, p.y)
        b2 = true_bearing_xy(ap2, p.x, p.y)
        exact = intersect_bearings(ap1, b1, ap2, b2)
        if exact is None:
            skipped += 1
            continue
        # whenever the closed form accepts the pair, the table must too
        x, y = fix_2d(b1, b2, table)
        assert np.isfinite(x) and np.isfinite(y)
        lo1 = math.radians(-90.0 + table.cell_index(b1) * TABLE_RESOLUTION_DEG)
        lo2 = math.radians(-90.0 + table.cell_index(b2) * TABLE_RESOLUTION_DEG)
        corners = [intersect_bearings(ap1, e1, ap2, e2)
                   for e1 in (lo1, lo1 + res) for e2 in (lo2, lo2 + res)]
        if any(c is None for c in corners):
            skipped += 1
            continue
        diag = max(math.hypot(a.x - b.x, a.y - b.y)
                   for a in corners for b in corners)
        err = math.hypot(x - exact.x, y - exact.y)
        assert err <= diag + 1e-9
        checked += 1
    assert skipped < 0.05 * checked

    # same-direction rays never intersect; the table must refuse the cell
    bench = bench_scenario()
    bench_table = LookupTable(bench.aps[0], bench.aps[1])
    assert np.isnan(fix_2d(math.radians(30.4), math.radians(30.4),
                           bench_table)).all()

    farm = run_experiment(ExperimentSpec("farm_cdf", scn, trials=1000,
                                         workers=4))
    median = farm.meta["median_error_m"]
    print(f"field median 2D error: {median:.3f} m (<= 5 m required)")
    assert median <= 5.0


def test_criterion_6_backscatter_identity_and_ber_band():
    """Modulate -> clean channel -> demodulate returns the exact payload
    for a 10^4-bit frame; the decimated-capture BER simulator agrees with
    a brute-force waveform simulation within the pooled 95% band at every
    SNR point; payload airtime scales as 1 ms per bit. The points run on
    two threads: each draws from its own trial_rng, and ber_point's scratch
    buffers are per thread; they are checked in SNR order."""
    rng = trial_rng(6, "identity-bits")
    bits = rng.integers(0, 2, 10000).astype(np.uint8)
    decided = ap_demodulate(transmit_backscatter(modulate_frame(bits), 2.0))
    assert np.array_equal(decided, bits)

    n_fast, n_oracle = 200000, 8000

    def point(snr):
        return (ber_point(snr, n_fast, trial_rng(1, "fast", int(snr))),
                ber_point_waveform_oracle(snr, n_oracle, trial_rng(1, "oracle", int(snr))))

    with ThreadPoolExecutor(max_workers=2) as pool:
        points = list(pool.map(point, BER_SNR_POINTS_DB))
    for snr, ((bf, ef), (bo, eo)) in zip(BER_SNR_POINTS_DB, points, strict=True):
        pooled = (ef + eo) / (n_fast + n_oracle)
        margin = 1.96 * math.sqrt(max(pooled * (1 - pooled), 1e-12)
                                  * (1 / n_fast + 1 / n_oracle))
        assert abs(bf - bo) <= margin, \
            f"snr={snr}: fast={bf:.5f} oracle={bo:.5f} margin={margin:.5f}"

    records = [SensorRecord("light", k, k, k) for k in range(10)]
    assert len(frame_from_records(records[:1])) / UPLINK_BITRATE_HZ == \
        pytest.approx(0.032)
    assert len(frame_from_records(records)) / UPLINK_BITRATE_HZ == \
        pytest.approx(0.320)
    # the experiment output must carry the airtime discrepancy note
    mac = run_experiment(ExperimentSpec("mac_session", bench_scenario(seed=3)))
    assert mac.meta["payload_s_one_record"] == pytest.approx(0.032)
    assert mac.meta["payload_s_ten_records"] == pytest.approx(0.32)
    assert "payload_note" in mac.meta


def test_criterion_7_power_and_memory_budget():
    """Duty-cycled current, battery life, log capacity, RF recharge time,
    and the solar output anchors all hit their published values, at the
    4 s wake period."""
    ua = 1000.0 * average_current_ma(4.0)
    assert ua == pytest.approx(137.5, abs=1e-9)
    assert abs(ua - 138.0) <= 0.5

    hours = battery_life_h(4.0)
    assert hours == pytest.approx(1.0 / 0.1375, rel=1e-12)
    assert round(hours, 2) == 7.27

    assert 7200 * RECORD_SIZE_BYTES == 28800 <= LOG_CAPACITY_BYTES == 32768

    assert (RF_TX_POWER_DBM, RF_PATH_LOSS_DB) == (20.0, 15.0)
    assert 5.5 <= rf_charge_time_h() <= 6.5

    assert solar_power_uw(1000.0) == 1.0
    assert solar_power_uw(20000.0) == 50.0


def test_criterion_8_csv_determinism_across_workers():
    """Identical (scenario, seed, trials) produce byte-identical CSV text
    for any worker count; changing the seed changes the output."""
    for experiment, scn, trials in (
            ("multipath_grid", bench_scenario(seed=42), 256),
            ("ber_vs_snr", bench_scenario(seed=42), 50000),
            ("farm_cdf", farm_scenario(seed=42), 64),
            ("mac_session", bench_scenario(seed=42), None)):
        texts = [render_csv(run_experiment(
            ExperimentSpec(experiment, scn, trials=trials, workers=w)))
            for w in (1, 2, 4)]
        assert texts[0] == texts[1] == texts[2], experiment

    a = render_csv(run_experiment(ExperimentSpec(
        "multipath_grid", bench_scenario(seed=42), trials=128)))
    b = render_csv(run_experiment(ExperimentSpec(
        "multipath_grid", bench_scenario(seed=43), trials=128)))
    assert a != b


def test_criterion_9_tdma_latency_and_mac_transcript():
    """Two alternating 50 ms sweep slots give a fresh fix every 100 ms;
    a polling session reaches every reachable insect exactly once with
    strictly sequential uplink intervals."""
    # one round delivers one angle per AP, hence one fix
    assert bench_scenario().round_s == pytest.approx(0.1, abs=1e-15)

    def loaded_store():
        store = LogStore()
        for k in range(10):
            store.append(SensorRecord("light", k % 4096, k % 256, k % 256))
        return store

    insects = [InsectNode(address=0x10 + k, distance_m=d,
                          store=loaded_store())
               for k, d in enumerate((2.0, 3.5, 5.0, 30.0))]
    transcript = hive_mac_session(insects, DetectorConfig(), trial_rng(9, "mac"))
    events = transcript.events

    replied = [e for e in events if e.replied]
    in_range = {0x10, 0x11, 0x12}
    assert {e.insect_address for e in replied} == in_range
    assert len(replied) == len(in_range)

    for e in events:
        assert e.end_s > e.start_s
    for prev, nxt in zip(events, events[1:]):
        assert nxt.start_s >= prev.end_s - 1e-12
    assert events[-1].end_s == pytest.approx(transcript.total_elapsed_s)
