"""Workloads of the sweeploc benchmark and the check on every CSV they write.

One call of a workload runs each of its experiments once through
``sweeploc.cli.main`` with ``--workers 1``, writing each CSV to disk. The
check reads every CSV back with ``sweeploc.experiments.read_csv`` and
returns the units of work the CSV itself reports, so throughput is counted
as the program counts it.

This module imports nothing from ``sweeploc`` at import time: the set-up
probe imports it first so that the probe's clock also covers importing the
simulator.
"""

from __future__ import annotations

import hashlib
import io
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# Shapes fixed by the experiments' definitions (ROADMAP and PAPER.md):
# a 4 antenna-count x 11 multipath-ratio grid, 6 platform speeds of
# 40 TDMA rounds each, 10 SNR points, and a 4-insect hive with up to
# 3 query attempts per insect.
GRID_CELLS = 4 * 11
SPEED_POINTS = 6
SPEED_ROUNDS = 40
SNR_POINTS = 10
HIVE_INSECTS = 4
MAC_ATTEMPTS = 3


class CheckError(Exception):
    """A CSV the workload wrote is not what the experiment defines."""


@dataclass(frozen=True)
class Step:
    """One experiment of a workload; ``sized`` steps take ``--trials``."""

    experiment: str
    scenario: str
    sized: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    size: int        # --trials of every sized step in a measured call
    smoke_size: int  # the same, for the benchmark's own smoke test


# Sizes put one measured call near one second (grid, track) or three
# seconds (uplink, whose MAC session alone takes two) on a 2-core x86 host,
# so a 25 s run holds enough calls for a steady median.
WORKLOADS = {
    "grid": Workload("grid", (Step("multipath_grid", "bench"),),
                     size=256, smoke_size=4),
    "track": Workload("track", (Step("speed_sweep", "farm"),),
                      size=2, smoke_size=1),
    "uplink": Workload("uplink", (Step("ber_vs_snr", "bench"),
                                  Step("mac_session", "bench", sized=False)),
                       size=100000, smoke_size=1000),
}


@dataclass
class CallResult:
    """One call of a workload: its time, and after check(), its work."""

    seconds: float
    paths: list[Path]
    error: str | None = None
    work: int = 0
    digest: str = ""


def step_argv(step: Step, size: int, seed: int, out: Path) -> list[str]:
    argv = ["run", step.experiment, "--scenario", step.scenario,
            "--seed", str(seed), "--workers", "1", "--out", str(out)]
    if step.sized:
        argv += ["--trials", str(size)]
    return argv


def run_steps(wl: Workload, size: int, seed: int, out_dir: Path) -> list[Path]:
    """Run every step of one call; returns the CSV paths in step order."""
    from sweeploc.cli import main

    paths = []
    for k, step in enumerate(wl.steps):
        out = out_dir / f"{wl.name}-{k}-{step.experiment}.csv"
        with redirect_stdout(io.StringIO()):
            code = main(step_argv(step, size, seed, out))
        if code != 0:
            raise CheckError(f"{step.experiment}: cli exit code {code}")
        paths.append(out)
    return paths


def _wall(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def call(wl: Workload, size: int, seed: int, out_dir: Path,
         timed=_wall) -> CallResult:
    """Run one call; ``timed(fn)`` runs fn and returns (result, seconds).

    A call that raises is returned as failed, not raised: the benchmark
    counts it against the calls attempted.
    """
    try:
        paths, seconds = timed(lambda: run_steps(wl, size, seed, out_dir))
    except Exception as exc:
        return CallResult(0.0, [], f"{type(exc).__name__}: {exc}")
    return CallResult(seconds, paths)


def check(wl: Workload, res: CallResult, size: int, seed: int) -> None:
    """Check a call's CSVs; sets its work and digest, or its error."""
    if res.error is not None:
        return
    try:
        res.work = sum(check_csv(step, path, size, seed)
                       for step, path in zip(wl.steps, res.paths))
    except CheckError as exc:
        res.error = str(exc)
        return
    res.digest = hashlib.sha256(
        b"".join(p.read_bytes() for p in res.paths)).hexdigest()


# --- output check -----------------------------------------------------------

def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _finite(table, allow_nan: set[str] = frozenset()) -> None:
    for row in table.rows:
        for name, value in zip(table.columns, row):
            _require(isinstance(value, (int, float)),
                     f"non-numeric cell {name}={value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                _require(name in allow_nan and math.isnan(value),
                         f"non-finite cell {name}={value!r}")


def check_csv(step: Step, path: Path, size: int, seed: int) -> int:
    """Check one CSV and return the work it reports."""
    from sweeploc.experiments import read_csv

    table = read_csv(str(path))
    _require(table.meta.get("experiment") == step.experiment,
             f"{path.name}: wrong experiment in metadata")
    _require(table.meta.get("seed") == seed, f"{path.name}: wrong seed")
    return _CHECKS[step.experiment](table, size)


def _check_grid(table, size: int) -> int:
    _require(table.columns == ("antenna_count", "multipath_ratio", "trials",
                               "mean_abs_error_deg", "mean_signed_error_deg"),
             f"grid columns {table.columns}")
    _require(len(table.rows) == GRID_CELLS, f"grid rows {len(table.rows)}")
    cells = {(r[0], r[1]) for r in table.rows}
    _require(len(cells) == GRID_CELLS, "grid cells repeat")
    _finite(table)
    trials = table.column("trials")
    _require(all(t == size for t in trials), "grid cell trial count")
    _require(all(e >= 0 for e in table.column("mean_abs_error_deg")),
             "negative absolute error")
    return sum(trials)


def _check_speed(table, size: int) -> int:
    _require(table.columns == ("speed_mps", "trials", "angles_tracked",
                               "mean_raw_error_deg", "mean_smoothed_error_deg"),
             f"speed columns {table.columns}")
    _require(len(table.rows) == SPEED_POINTS, f"speed rows {len(table.rows)}")
    _finite(table, {"mean_raw_error_deg", "mean_smoothed_error_deg"})
    for speed, trials, tracked, raw, smooth in table.rows:
        _require(trials == size, "speed trial count")
        _require(0 <= tracked <= 2 * SPEED_ROUNDS * size, "angles_tracked range")
        # The mean errors are NaN exactly when no angle was tracked.
        _require(math.isnan(raw) == (tracked == 0)
                 and math.isnan(smooth) == (tracked == 0),
                 f"speed {speed}: NaN error with {tracked} angles tracked")
    return sum(table.column("trials"))


def _check_ber(table, size: int) -> int:
    _require(table.columns == ("snr_db", "bits", "errors", "ber",
                               "ci95_half_width"),
             f"ber columns {table.columns}")
    _require(len(table.rows) == SNR_POINTS, f"ber rows {len(table.rows)}")
    _finite(table)
    for snr, bits, errors, ber, _ in table.rows:
        _require(bits == size, "ber bit count")
        _require(0 <= errors <= bits and ber == errors / bits,
                 f"snr {snr}: errors {errors} of {bits}, ber {ber}")
    return sum(table.column("bits"))


def _check_mac(table, size: int) -> int:
    _require(table.columns == ("address", "attempt", "address_decoded",
                               "replied", "bits_sent", "bit_errors", "start_s",
                               "end_s", "skipped"),
             f"mac columns {table.columns}")
    _require(table.meta.get("trials") == HIVE_INSECTS, "mac insect count")
    _finite(table)
    by_address: dict[int, list[dict]] = {}
    for row in table.rows:
        by_address.setdefault(row[0], []).append(dict(zip(table.columns, row)))
    _require(len(by_address) == HIVE_INSECTS, "mac addresses")
    for address, rows in by_address.items():
        _require([r["attempt"] for r in rows] == list(range(1, len(rows) + 1))
                 and len(rows) <= MAC_ATTEMPTS, f"mac {address}: attempts")
        # Every attempt but the last fails; the last replies or gives up.
        for r in rows[:-1]:
            _require(not r["replied"] and not r["skipped"] and r["bits_sent"] == 0,
                     f"mac {address}: early terminal attempt")
        last = rows[-1]
        _require(last["replied"] + last["skipped"] == 1,
                 f"mac {address}: no terminal attempt")
        _require((last["bits_sent"] > 0) == bool(last["replied"])
                 and 0 <= last["bit_errors"] <= last["bits_sent"],
                 f"mac {address}: bits_sent {last['bits_sent']}, "
                 f"bit_errors {last['bit_errors']}")
    return sum(table.column("bits_sent"))


_CHECKS = {
    "multipath_grid": _check_grid,
    "speed_sweep": _check_speed,
    "ber_vs_snr": _check_ber,
    "mac_session": _check_mac,
}
