"""Named experiments producing deterministic CSV result tables.

Every experiment derives all randomness from (scenario seed, experiment
name, cell/trial indices), so reruns and any worker count produce
byte-identical output. Trials are grouped into fixed-size chunks that are
the unit of parallel dispatch; chunk boundaries never depend on the worker
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .backscatter import (CAPTURE_SAMPLES_PER_BIT, UPLINK_BITRATE_HZ,
                          InsectNode, ber_point, frame_from_records,
                          hive_mac_session)
from .channel import FieldTrace, PathSet, draw_multipath, propagate
from .pipeline import (capture_track, detect_with_noise, draw_noise, draw_pathsets,
                       fast_estimate_bearings, noise_pair, synthesize_rounds)
from .power import (average_current_ma, average_power_uw, battery_life_h,
                    logging_endurance_h, rf_charge_time_h, solar_power_uw)
from .receiver import (SENSOR_KINDS, Receiver, SensorRecord, estimate_angle,
                       find_preamble)
from .scenario import (ConfigError, Position, Scenario, Trajectory,
                       scenario_digest, trial_rng, true_bearing_xy)
from .transmitter import period_samples

GRID_CHUNK = 1024
BER_CHUNK = 25000


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment invocation: what to run, on what, how hard."""

    experiment: str
    scenario: Scenario
    trials: int | None = None
    out_path: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {sorted(EXPERIMENTS)}")
        if self.trials is not None and EXPERIMENTS[self.experiment].trials is None:
            raise ConfigError(f"{self.experiment} has no trial count to set")
        if self.trials is not None and self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


@dataclass
class ResultTable:
    """Columns, rows, and '#'-prefixed metadata for one experiment run."""

    columns: tuple[str, ...]
    rows: list[tuple]
    meta: dict[str, object] = field(default_factory=dict)

    def column(self, name: str) -> list:
        k = self.columns.index(name)
        return [row[k] for row in self.rows]


def _format_cell(value) -> str:
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, (np.integer,)):
        value = int(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(table: ResultTable) -> str:
    lines = [f"# {key}={_format_cell(val)}" for key, val in table.meta.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_csv(table: ResultTable, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_csv(table))


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def read_csv(path: str) -> ResultTable:
    meta: dict[str, object] = {}
    columns: tuple[str, ...] | None = None
    rows: list[tuple] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                meta[key] = _parse_scalar(val)
            elif columns is None:
                columns = tuple(line.split(","))
            else:
                rows.append(tuple(_parse_scalar(v) for v in line.split(",")))
    if columns is None:
        raise ConfigError(f"no header found in {path}")
    return ResultTable(columns=columns, rows=rows, meta=meta)


def _base_meta(spec: ExperimentSpec, trials) -> dict[str, object]:
    return {
        "experiment": spec.experiment,
        "scenario_sha256": scenario_digest(spec.scenario),
        "seed": spec.scenario.seed,
        "sweep_mode": spec.scenario.sweep_mode,
        "trials": trials,
        "tool_version": __version__,
    }


def _map_ordered(fn: Callable, tasks: Sequence, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # only when a run asks for workers
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _chunks(total: int, size: int) -> list[tuple[int, int, int]]:
    return [(idx, lo, min(lo + size, total))
            for idx, lo in enumerate(range(0, total, size))]


def _sum_by_key(fn: Callable, tasks: Sequence, workers: int) -> dict:
    """Run chunk tasks and sum their (key, *values) tuples per key.

    fn returns a list of such tuples. Values are summed element by element
    in chunk order, so the float sums do not depend on the worker count.
    """
    sums: dict = {}
    for chunk_out in _map_ordered(fn, tasks, workers):
        for key, *values in chunk_out:
            acc = sums.setdefault(key, [0] * len(values))
            for i, value in enumerate(values):
                acc[i] += value
    return sums


# --- multipath grid ---------------------------------------------------------

GRID_ANTENNA_COUNTS = (2, 3, 4, 5)
GRID_RATIOS = tuple(round(0.1 * k, 1) for k in range(11))
GRID_BEARING_LIMIT_DEG = 60.0


def _grid_chunk_errors(scn: Scenario, ratio: float, r_key, chunk_idx: int,
                       n: int) -> list[np.ndarray]:
    """Signed bearing errors (degrees) of one chunk, per GRID_ANTENNA_COUNTS.

    The rng stream is keyed by the ratio and chunk only, never the antenna
    count, so all antenna counts share one channel draw (common random
    numbers) and the trend across N is not washed out by draw noise; one
    call at the largest count gives every count's estimates.
    """
    channel = replace(scn.channel, multipath_ratio=ratio)
    rng = trial_rng(scn.seed, "multipath_grid", r_key, chunk_idx)
    limit = math.radians(GRID_BEARING_LIMIT_DEG)
    los = rng.uniform(-limit, limit, n)
    paths = draw_multipath(channel, rng, los.shape)
    estimates = fast_estimate_bearings(
        replace(scn.aps[0], antenna_count=max(GRID_ANTENNA_COUNTS)), scn.sweep_mode,
        scn.detector.sample_rate_hz, paths, los)
    return [np.degrees(estimates[n_ant - 2] - los) for n_ant in GRID_ANTENNA_COUNTS]


def _grid_ratio_chunk(task) -> list[tuple[tuple[int, int], float, float, int]]:
    scn, r_idx, chunk_idx, lo, hi = task
    errors = _grid_chunk_errors(scn, GRID_RATIOS[r_idx], r_idx, chunk_idx, hi - lo)
    return [((n_ant, r_idx), float(np.abs(err).sum()), float(err.sum()), hi - lo)
            for n_ant, err in zip(GRID_ANTENNA_COUNTS, errors)]


def multipath_grid(spec: ExperimentSpec) -> ResultTable:
    """Mean bearing error over an (antenna count x multipath ratio) grid.

    LOS bearings are drawn uniformly inside GRID_BEARING_LIMIT_DEG so the
    sweep's usable sector, not its endfire compression, is what the grid
    measures. All antenna counts see the same channel draws per trial.
    """
    scn = spec.scenario
    tasks = [(scn, r_idx, chunk_idx, lo, hi)
             for r_idx in range(len(GRID_RATIOS))
             for chunk_idx, lo, hi in _chunks(spec.trials, GRID_CHUNK)]
    sums = _sum_by_key(_grid_ratio_chunk, tasks, spec.workers)
    rows = []
    for n_ant in GRID_ANTENNA_COUNTS:
        for r_idx, ratio in enumerate(GRID_RATIOS):
            abs_sum, signed_sum, count = sums[(n_ant, r_idx)]
            rows.append((n_ant, ratio, count, abs_sum / count, signed_sum / count))
    meta = _base_meta(spec, spec.trials)
    meta["bearing_limit_deg"] = GRID_BEARING_LIMIT_DEG
    meta["nlos_path_count"] = scn.channel.nlos_path_count
    return ResultTable(
        columns=("antenna_count", "multipath_ratio", "trials",
                 "mean_abs_error_deg", "mean_signed_error_deg"),
        rows=rows, meta=meta)


# --- range sweep -------------------------------------------------------------

RANGE_DISTANCES_M = tuple(float(d) for d in range(10, 121, 10))
RANGE_BEARING_LIMIT_DEG = 30.0


def _range_chunk(task) -> list[tuple[int, int, int, float]]:
    scn, d_idx, lo, hi = task
    ap = scn.aps[0]
    fs = scn.detector.sample_rate_hz
    period = ap.sweep_period_s
    distance = RANGE_DISTANCES_M[d_idx]
    limit = math.radians(RANGE_BEARING_LIMIT_DEG)
    # the slot sits between half a period of silence and a whole one
    lead, slot_n = round(period / 2.0 * fs), period_samples(ap, fs)
    n = lead + 2 * slot_n
    capture = np.zeros(n, complex)  # each trial writes its slot in place
    slot = capture[None, lead:lead + slot_n]
    noise = noise_pair(scn, (n,))  # and draws its noise in place
    detected, abs_err_sum = 0, 0.0
    for t in range(lo, hi):
        rng = trial_rng(scn.seed, "range_sweep", d_idx, t)
        bearing = rng.uniform(-limit, limit)
        heading = ap.boresight_rad + bearing
        pos = Position(ap.position.x + distance * math.cos(heading),
                       ap.position.y + distance * math.sin(heading))
        paths = draw_multipath(scn.channel, rng)
        draw_noise(scn, noise, ..., rng)
        propagate(ap, scn.sweep_mode, paths, [Trajectory.stationary(pos)], fs,
                  np.array([period / 2.0]), out=slot)
        env = detect_with_noise(FieldTrace(capture, fs), scn.detector, noise)
        start = find_preamble(env, ap, 0, lead + 1)  # two periods must follow
        if start is None:
            continue
        detected += 1
        raw = estimate_angle(env, start, ap, scn.sweep_mode)
        abs_err_sum += abs(math.degrees(raw - bearing))
    return [(d_idx, hi - lo, detected, abs_err_sum)]


def range_sweep(spec: ExperimentSpec) -> ResultTable:
    """Detection rate and bearing error as the receiver walks away from
    one AP, until the preamble drops below the detector floor."""
    scn = spec.scenario
    tasks = [(scn, d_idx, lo, hi)
             for d_idx in range(len(RANGE_DISTANCES_M))
             for _, lo, hi in _chunks(spec.trials, GRID_CHUNK)]
    acc = _sum_by_key(_range_chunk, tasks, spec.workers)
    rows = []
    for d_idx, distance in enumerate(RANGE_DISTANCES_M):
        count, detected, abs_err = acc[d_idx]
        mean_err = abs_err / detected if detected else float("nan")
        rows.append((distance, count, detected, detected / count, mean_err))
    meta = _base_meta(spec, spec.trials)
    meta["bearing_limit_deg"] = RANGE_BEARING_LIMIT_DEG
    return ResultTable(
        columns=("distance_m", "trials", "detected", "detect_rate",
                 "mean_abs_error_deg"),
        rows=rows, meta=meta)


# --- farm fix CDF ------------------------------------------------------------

FARM_MARGIN_M = 5.0
FARM_RATIO_MAX = 0.6


def _check_field(scn: Scenario, margin_m: float, what: str) -> None:
    """Refuse, before any trial, a scenario with fewer than two APs or a
    field without room for a receiver margin_m inside every edge."""
    if len(scn.aps) < 2:
        raise ConfigError(f"{what} needs two APs, not {len(scn.aps)}")
    if scn.field_extent_m is None or min(scn.field_extent_m) < 2.0 * margin_m:
        raise ConfigError(f"{what} needs a field extent of at least "
                          f"{2.0 * margin_m:g} m on each side")


def _farm_chunk(task) -> tuple[list[tuple], int]:
    """Trials lo..hi-1, each drawn from its own rng (position, ratio, paths,
    two rounds' noise into its row of the chunk's noise_pair), synthesized
    and detected in one batch, scanned one by one. Returns rows, no-fix
    count."""
    scn, lo, hi = task
    width, height = scn.field_extent_m
    rx = Receiver(scn)
    n = 2 * len(scn.aps) * period_samples(scn.aps[0], scn.detector.sample_rate_hz)
    trials, draws, noise = [], [], noise_pair(scn, (hi - lo, n))
    for j, t in enumerate(range(lo, hi)):
        rng = trial_rng(scn.seed, "farm_cdf", t)
        pos = Position(rng.uniform(FARM_MARGIN_M, width - FARM_MARGIN_M),
                       rng.uniform(FARM_MARGIN_M, height - FARM_MARGIN_M))
        ratio = rng.uniform(0.0, FARM_RATIO_MAX)
        scn_t = replace(scn, channel=replace(scn.channel, multipath_ratio=ratio))
        trials.append((pos, ratio))
        draws.append([(p.amplitudes, p.bearings_rad, p.excess_phases_rad)
                      for p in draw_pathsets(scn_t, rng)])
        draw_noise(scn, noise, j, rng)
    # each AP's draws on trials x 1 x reflections axes: one for both rounds
    per_ap = [PathSet(*(np.stack(a)[:, None] for a in zip(*ap))) for ap in zip(*draws)]
    field = synthesize_rounds(scn, per_ap, [Trajectory.stationary(p) for p, _ in trials])
    env = detect_with_noise(field, scn.detector, noise)
    rows = []
    for (pos, ratio), volts in zip(trials, env.volts.reshape(hi - lo, n)):
        fix = rx.process_buffer(replace(env, volts=volts)).fix
        if fix is not None:
            rows.append((pos.x, pos.y, ratio, fix.distance_to(pos)))
    return rows, hi - lo - len(rows)


def farm_cdf(spec: ExperimentSpec) -> ResultTable:
    """Full-pipeline 2D fix error over random field positions; rows come
    out sorted by error with an empirical CDF column."""
    scn = spec.scenario
    _check_field(scn, FARM_MARGIN_M, "farm experiment")
    tasks = [(scn, lo, hi)  # one synthesis batch each, as many rounds as a speed batch
             for _, lo, hi in _chunks(spec.trials, SPEED_BATCH * SPEED_ROUNDS // 2)]
    results = _map_ordered(_farm_chunk, tasks, spec.workers)
    rows: list[tuple] = []
    skipped = 0
    for chunk_rows, chunk_skipped in results:
        rows.extend(chunk_rows)
        skipped += chunk_skipped
    rows.sort(key=lambda r: (r[3], r[0], r[1]))
    n = len(rows)
    rows = [row + ((k + 1) / n,) for k, row in enumerate(rows)]
    errors = [row[3] for row in rows]
    meta = _base_meta(spec, spec.trials)
    meta["skipped"] = skipped
    meta["median_error_m"] = float(np.median(errors)) if errors else float("nan")
    meta["ratio_max"] = FARM_RATIO_MAX
    meta["margin_m"] = FARM_MARGIN_M
    return ResultTable(
        columns=("x_m", "y_m", "multipath_ratio", "error_m", "cdf"),
        rows=rows, meta=meta)


# --- speed sweep -------------------------------------------------------------

SPEED_POINTS_MPS = (0.0, 1.0, 3.0, 5.0, 7.0, 9.1)
SPEED_ROUNDS = 40
SPEED_MARGIN_M = 30.0
SPEED_RATIO = 0.4
SPEED_BATCH = 4  # trials per capture_track and scan: each adds ~1 MB of buffers


def _speed_chunk(task) -> list[tuple[int, int, int, float, float]]:
    scn, s_idx, lo, hi = task
    width, height = scn.field_extent_m
    speed = SPEED_POINTS_MPS[s_idx]
    scn_t = replace(scn, channel=replace(scn.channel, doppler_enabled=True,
                                         multipath_ratio=SPEED_RATIO))
    rx = Receiver(scn_t)
    tracked, raw_sum, smooth_sum = 0, 0.0, 0.0
    for first in range(lo, hi, SPEED_BATCH):
        rngs, trajs = [], []
        for t in range(first, min(first + SPEED_BATCH, hi)):
            rng = trial_rng(scn.seed, "speed_sweep", s_idx, t)
            start = Position(rng.uniform(SPEED_MARGIN_M, width - SPEED_MARGIN_M),
                             rng.uniform(SPEED_MARGIN_M, height - SPEED_MARGIN_M))
            center_dir = math.atan2(height / 2.0 - start.y, width / 2.0 - start.x)
            heading = center_dir + rng.uniform(-math.pi / 6, math.pi / 6)
            rngs.append(rng)
            trajs.append(Trajectory.line(start, heading, speed,
                                         SPEED_ROUNDS * scn.round_s)
                         if speed > 0 else Trajectory.stationary(start))
        scan = rx.scan(capture_track(scn_t, trajs, rngs, SPEED_ROUNDS))
        # boolean indexing is row-major: the sums add trial by trial, round
        # by round, AP 1 before AP 2, as the CSV bytes require
        for traj, found, stamp, raw, smoothed in zip(
                trajs, scan.found, scan.timestamp_s, scan.raw_rad, scan.smoothed_rad):
            xs, ys = traj.positions_at(stamp[found])
            for which, x, y, r, s in zip(
                    np.nonzero(found)[1].tolist(), xs.tolist(), ys.tolist(),
                    raw[found].tolist(), smoothed[found].tolist()):
                truth = true_bearing_xy(scn_t.aps[which], x, y)
                raw_sum += abs(math.degrees(r - truth))
                smooth_sum += abs(math.degrees(s - truth))
                tracked += 1
    return [(s_idx, hi - lo, tracked, raw_sum, smooth_sum)]


def speed_sweep(spec: ExperimentSpec) -> ResultTable:
    """Tracking error while the receiver moves, with Doppler and periodic
    path redraws, across platform speeds."""
    scn = spec.scenario
    _check_field(scn, SPEED_MARGIN_M, "speed experiment")
    tasks = [(scn, s_idx, lo, hi)
             for s_idx in range(len(SPEED_POINTS_MPS))
             for _, lo, hi in _chunks(spec.trials, GRID_CHUNK)]
    acc = _sum_by_key(_speed_chunk, tasks, spec.workers)
    rows = []
    for s_idx, speed in enumerate(SPEED_POINTS_MPS):
        count, tracked, raw_sum, smooth_sum = acc[s_idx]
        if tracked:
            rows.append((speed, count, tracked, raw_sum / tracked,
                         smooth_sum / tracked))
        else:
            rows.append((speed, count, 0, float("nan"), float("nan")))
    meta = _base_meta(spec, spec.trials)
    meta["rounds_per_trial"] = SPEED_ROUNDS
    meta["multipath_ratio"] = SPEED_RATIO
    return ResultTable(
        columns=("speed_mps", "trials", "angles_tracked",
                 "mean_raw_error_deg", "mean_smoothed_error_deg"),
        rows=rows, meta=meta)


# --- backscatter BER ---------------------------------------------------------

BER_SNR_POINTS_DB = tuple(float(s) for s in range(-12, 7, 2))


def _ber_chunk(task) -> list[tuple[int, int, int]]:
    scn, p_idx, chunk_idx, n_bits = task
    rng = trial_rng(scn.seed, "ber_vs_snr", p_idx, chunk_idx)
    _, errors = ber_point(BER_SNR_POINTS_DB[p_idx], n_bits, rng)
    return [(p_idx, n_bits, errors)]


def ber_vs_snr(spec: ExperimentSpec) -> ResultTable:
    """Uplink bit error rate against per-sample SNR at the capture."""
    scn = spec.scenario
    tasks = [(scn, p_idx, chunk_idx, hi - lo)
             for p_idx in range(len(BER_SNR_POINTS_DB))
             for chunk_idx, lo, hi in _chunks(spec.trials, BER_CHUNK)]
    acc = _sum_by_key(_ber_chunk, tasks, spec.workers)
    rows = []
    for p_idx, snr in enumerate(BER_SNR_POINTS_DB):
        count, errors = acc[p_idx]
        ber = errors / count
        half_ci = 1.96 * math.sqrt(max(ber * (1.0 - ber), 1e-12) / count)
        rows.append((snr, count, errors, ber, half_ci))
    meta = _base_meta(spec, spec.trials)
    meta["samples_per_bit"] = CAPTURE_SAMPLES_PER_BIT
    return ResultTable(
        columns=("snr_db", "bits", "errors", "ber", "ci95_half_width"),
        rows=rows, meta=meta)


# --- hive MAC session --------------------------------------------------------

MAC_DISTANCES_M = (2.0, 3.5, 5.0, 30.0)
MAC_RECORDS_PER_INSECT = 50


def _demo_records(address: int) -> list[SensorRecord]:
    kinds = list(SENSOR_KINDS)
    records = []
    for k in range(MAC_RECORDS_PER_INSECT):
        kind = kinds[k % len(kinds)]
        value = (address * 37 + k * 101) % (1 << SENSOR_KINDS[kind][1])
        records.append(SensorRecord(kind=kind, value=value,
                                    angle1_code=(address + k) % 256,
                                    angle2_code=(address * 3 + k) % 256))
    return records


def mac_session(spec: ExperimentSpec) -> ResultTable:
    """One reader polling round over a small hive, including one insect
    parked beyond the downlink decode range."""
    scn = spec.scenario
    rng = trial_rng(scn.seed, "mac_session")
    insects = []
    for k, dist in enumerate(MAC_DISTANCES_M):
        node = InsectNode(address=0x10 + k, distance_m=dist)
        for record in _demo_records(node.address):
            node.store.append(record)
        insects.append(node)
    transcript = hive_mac_session(insects, scn.detector, rng)
    one = len(frame_from_records(_demo_records(0x10)[:1])) / UPLINK_BITRATE_HZ
    ten = len(frame_from_records(_demo_records(0x10)[:10])) / UPLINK_BITRATE_HZ
    meta = _base_meta(spec, len(insects))
    meta["fairness_index"] = transcript.fairness_index()
    meta["total_elapsed_s"] = transcript.total_elapsed_s
    meta["payload_s_one_record"] = one
    meta["payload_s_ten_records"] = ten
    meta["payload_note"] = ("a 32 ms uplink at 1 kbps carries one 4-byte "
                            "record; ten records need 320 ms")
    return ResultTable(
        columns=("address", "attempt", "address_decoded", "replied",
                 "bits_sent", "bit_errors", "start_s", "end_s", "skipped"),
        rows=transcript.to_rows(), meta=meta)


# --- power report ------------------------------------------------------------

POWER_PERIODS_S = (1.0, 2.0, 4.0, 5.0, 8.0, 10.0)


def power_report(spec: ExperimentSpec) -> ResultTable:
    """Duty-cycle current/power/lifetime table plus harvest anchors."""
    rows = [(period, average_current_ma(period) * 1000.0,
             average_power_uw(period), battery_life_h(period),
             logging_endurance_h(interval_s=period))
            for period in POWER_PERIODS_S]
    meta = _base_meta(spec, len(rows))
    meta["rf_charge_time_h"] = rf_charge_time_h()
    meta["solar_1klux_uw"] = solar_power_uw(1000.0)
    meta["solar_20klux_uw"] = solar_power_uw(20000.0)
    return ResultTable(
        columns=("period_s", "average_current_ua", "average_power_uw",
                 "battery_life_h", "log_endurance_h"),
        rows=rows, meta=meta)


class Experiment(NamedTuple):
    """An experiment's run function, the builtin scenario it runs on by
    default, and its default trial count (bits for ber_vs_snr), or None
    where it takes none (mac_session's fixed hive, power_report's table)."""

    run: Callable[[ExperimentSpec], ResultTable]
    scenario: str
    trials: int | None


EXPERIMENTS: dict[str, Experiment] = {
    "multipath_grid": Experiment(multipath_grid, "bench", 10000),
    "range_sweep": Experiment(range_sweep, "range", 200),
    "farm_cdf": Experiment(farm_cdf, "farm", 1000),
    "speed_sweep": Experiment(speed_sweep, "farm", 30),
    "ber_vs_snr": Experiment(ber_vs_snr, "bench", 100000),
    "mac_session": Experiment(mac_session, "bench", None),
    "power_report": Experiment(power_report, "bench", None),
}


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    experiment = EXPERIMENTS[spec.experiment]
    if spec.trials is None:
        spec = replace(spec, trials=experiment.trials)
    table = experiment.run(spec)
    if spec.out_path:
        emit_csv(table, spec.out_path)
    return table
