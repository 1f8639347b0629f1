"""Experiment harness: CSV plumbing, dispatch, determinism, CLI."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sweeploc
from sweeploc.cli import DEFAULT_SCENARIO, main
from sweeploc.experiments import (
    EXPERIMENTS,
    SPEED_BATCH,
    SPEED_ROUNDS,
    ExperimentSpec,
    ResultTable,
    _farm_chunk,
    cached_table,
    emit_csv,
    read_csv,
    render_csv,
    run_experiment,
)
from sweeploc.receiver import LookupTable
from sweeploc.scenario import ConfigError, free_space_loss_db, scenario_to_yaml
from sweeploc.scenarios import (BUILTIN_SCENARIOS, bench_scenario, farm_scenario,
                                range_scenario)

from helpers import farm_chunk_reference


def _table():
    return ResultTable(
        columns=("name", "count", "value"),
        rows=[("a", 1, 0.1), ("b", 2, np.float64(0.25)),
              ("c", np.int64(3), float("nan"))],
        meta={"experiment": "demo", "seed": 7, "ratio": 0.3})


def test_render_csv_layout():
    text = render_csv(_table())
    lines = text.split("\n")
    assert lines[0] == "# experiment=demo"
    assert lines[1] == "# seed=7"
    assert lines[2] == "# ratio=0.3"
    assert lines[3] == "name,count,value"
    assert lines[4] == "a,1,0.1"
    assert text.endswith("\n")
    # numpy scalars must not leak their repr into the file
    assert "np.float64" not in text and "np.int64" not in text
    assert lines[5] == "b,2,0.25"


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    emit_csv(_table(), path)
    back = read_csv(path)
    assert back.columns == ("name", "count", "value")
    assert back.meta == {"experiment": "demo", "seed": 7, "ratio": 0.3}
    assert back.rows[0] == ("a", 1, 0.1)
    assert back.rows[1] == ("b", 2, 0.25)
    assert np.isnan(back.rows[2][2])
    assert back.column("count")[:2] == [1, 2]


def test_read_csv_requires_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# experiment=none\n")
    with pytest.raises(ConfigError):
        read_csv(str(path))


def test_spec_validation():
    scn = bench_scenario()
    with pytest.raises(ConfigError):
        ExperimentSpec("multipath_grid", scn, trials=0)
    with pytest.raises(ConfigError):
        ExperimentSpec("multipath_grid", scn, workers=0)
    with pytest.raises(ConfigError):
        run_experiment(ExperimentSpec("no_such_experiment", scn))


def test_registry_names_match_cli_defaults():
    assert set(DEFAULT_SCENARIO) == set(EXPERIMENTS)
    assert set(DEFAULT_SCENARIO.values()) <= set(BUILTIN_SCENARIOS)


def test_grid_deterministic_across_workers_and_seeds():
    spec1 = ExperimentSpec("multipath_grid", bench_scenario(seed=42),
                           trials=128, workers=1)
    spec2 = ExperimentSpec("multipath_grid", bench_scenario(seed=42),
                           trials=128, workers=2)
    text1 = render_csv(run_experiment(spec1))
    text2 = render_csv(run_experiment(spec2))
    assert text1 == text2
    other = ExperimentSpec("multipath_grid", bench_scenario(seed=43),
                           trials=128, workers=1)
    assert render_csv(run_experiment(other)) != text1


def test_grid_columns_and_rows():
    spec = ExperimentSpec("multipath_grid", bench_scenario(seed=1),
                          trials=64)
    table = run_experiment(spec)
    assert table.columns == ("antenna_count", "multipath_ratio", "trials",
                             "mean_abs_error_deg", "mean_signed_error_deg")
    ratios = sorted(set(table.column("multipath_ratio")))
    counts = sorted(set(table.column("antenna_count")))
    assert len(table.rows) == len(ratios) * len(counts)
    assert all(t == 64 for t in table.column("trials"))
    assert all(e >= 0 for e in table.column("mean_abs_error_deg"))


def test_farm_cdf_shape():
    spec = ExperimentSpec("farm_cdf", farm_scenario(seed=5), trials=48)
    table = run_experiment(spec)
    assert table.columns == ("x_m", "y_m", "multipath_ratio", "error_m",
                             "cdf")
    errs = table.column("error_m")
    cdf = table.column("cdf")
    assert errs == sorted(errs)
    assert cdf == sorted(cdf)
    assert cdf[-1] == pytest.approx(1.0)
    assert "median_error_m" in table.meta
    assert table.meta["margin_m"] == 5.0


@pytest.mark.parametrize("noise_power_dbm", [None, -60.0])
@pytest.mark.parametrize("mode", ["alg1", "uniform-theta"])
def test_farm_chunk_equals_the_per_trial_reference(mode, noise_power_dbm):
    """81 trials are one whole batch of SPEED_BATCH * SPEED_ROUNDS // 2
    synthesized together and one trial past it: the rows and the skip count
    are exactly those of capturing and scanning each trial alone."""
    farm = farm_scenario(seed=1)
    scn = replace(farm, sweep_mode=mode, channel=replace(
        farm.channel, noise_power_dbm=noise_power_dbm))
    assert SPEED_BATCH * SPEED_ROUNDS // 2 + 1 == 81
    rows, skipped = _farm_chunk((scn, 0, 81))
    assert (rows, skipped) == farm_chunk_reference(scn, 0, 81)
    assert len(rows) > 70 and skipped > 0


def test_cached_table_is_shared_and_read_only():
    farm = farm_scenario(seed=5)
    table = cached_table(farm.aps[0], farm.aps[1])
    # the table depends on the APs alone, not on the rest of the scenario
    assert cached_table(*farm_scenario(seed=6).aps[:2]) is table
    assert cached_table(farm.aps[1], farm.aps[0]) is not table
    fresh = LookupTable(farm.aps[0], farm.aps[1])
    for name in ("xs", "ys"):
        assert getattr(table, name).tobytes() == getattr(fresh, name).tobytes()
        with pytest.raises(ValueError):
            getattr(table, name)[0, 0] = 0.0


def test_ber_experiment_columns():
    spec = ExperimentSpec("ber_vs_snr", bench_scenario(seed=2), trials=2000)
    table = run_experiment(spec)
    assert table.columns == ("snr_db", "bits", "errors", "ber",
                             "ci95_half_width")
    assert all(b == 2000 for b in table.column("bits"))
    bers = table.column("ber")
    snrs = table.column("snr_db")
    assert snrs == sorted(snrs)
    # high SNR end is clean, low end is not
    assert bers[-1] == 0.0
    assert bers[0] > 0.1


def test_power_report_values():
    spec = ExperimentSpec("power_report", bench_scenario(seed=0))
    table = run_experiment(spec)
    row = {r[0]: r for r in table.rows}
    assert 4.0 in row
    assert row[4.0][1] == pytest.approx(137.5)
    assert row[4.0][3] == pytest.approx(1000.0 / 137.5, rel=1e-6)
    assert "rf_charge_time_h" in table.meta
    assert table.meta["solar_1klux_uw"] == pytest.approx(1.0)
    assert table.meta["solar_20klux_uw"] == pytest.approx(50.0)


def test_emit_via_run_experiment(tmp_path):
    path = str(tmp_path / "out.csv")
    spec = ExperimentSpec("power_report", bench_scenario(seed=0),
                          out_path=path)
    table = run_experiment(spec)
    assert read_csv(path).rows == read_csv(path).rows
    assert render_csv(read_csv(path)) == render_csv(table)


def test_cli_run_and_scenario(tmp_path, capsys):
    out = str(tmp_path / "p.csv")
    assert main(["run", "power-report", "--out", out]) == 0
    table = read_csv(out)
    assert table.meta["experiment"] == "power_report"
    assert main(["scenario", "bench"]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith(scenario_to_yaml(bench_scenario()))


def test_cli_seed_and_trials(tmp_path):
    out = str(tmp_path / "g.csv")
    code = main(["run", "multipath_grid", "--trials", "32", "--seed", "9",
                 "--workers", "2", "--out", out])
    assert code == 0
    table = read_csv(out)
    assert table.meta["seed"] == 9
    assert table.meta["trials"] == 32


def test_a_one_worker_run_loads_no_process_pool(tmp_path):
    """The process pool's module is imported only when a run asks for
    workers: after importing the CLI and a one-worker run it is not
    loaded. A fresh interpreter, as the test session may have loaded it."""
    out = str(tmp_path / "g.csv")
    code = ("import sys; from sweeploc.cli import main; "
            f"main(['run', 'multipath_grid', '--trials', '8', '--out', {out!r}]); "
            "print('concurrent.futures.process' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(sweeploc.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.split()[-1] == "False"
    assert read_csv(out).meta["trials"] == 8


def test_cli_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    # missing scenario file -> io error
    assert main(["run", "farm_cdf", "--scenario", "/no/such.yaml",
                 "--out", out]) in (1, 2)
    # invalid trials -> config error
    assert main(["run", "farm_cdf", "--trials", "0", "--out", out]) == 2


@pytest.mark.parametrize("experiment", ["power_report", "mac_session"])
def test_trials_are_refused_where_the_experiment_has_no_trial_count(
        experiment, tmp_path, capsys):
    """The power table has one row per wake period and the MAC session one
    fixed hive. A trial count used to be taken and ignored: the CSV said
    trials=6 or trials=4 whatever was asked."""
    out = tmp_path / "x.csv"
    assert main(["run", experiment, "--trials", "7", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: {experiment} has no trial count to set\n"
    assert not out.exists()
    with pytest.raises(ConfigError, match="no trial count"):
        ExperimentSpec(experiment, bench_scenario(), trials=1)
    assert main(["run", experiment, "--out", str(out)]) == 0


@pytest.mark.parametrize("experiment,edit", [
    pytest.param("speed_sweep", {"field_extent_m": [40.0, 40.0]}, id="speed-narrow"),
    pytest.param("farm_cdf", {"field_extent_m": [8.0, 90.0]}, id="farm-narrow"),
    pytest.param("speed_sweep", {"aps": 1}, id="speed-one-ap"),
    pytest.param("farm_cdf", {"aps": 1}, id="farm-one-ap"),
])
def test_cli_refuses_fields_the_trials_cannot_use(experiment, edit, tmp_path,
                                                   capsys):
    """A field narrower than twice the experiment's margin (30 m for the
    speed sweep, 5 m for the farm) or a single AP is refused with `error:
    ...` and exit code 2 before the first trial; both used to end in a
    traceback from inside a trial."""
    scn = farm_scenario(seed=1)
    if edit.get("aps"):
        scn = replace(scn, aps=scn.aps[:edit["aps"]])
    else:
        scn = replace(scn, field_extent_m=tuple(edit["field_extent_m"]))
    path = tmp_path / "scn.yaml"
    path.write_text(scenario_to_yaml(scn), encoding="utf-8")
    code = main(["run", experiment, "--scenario", str(path), "--trials", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_range_sweep_half_detection_lies_in_its_link_budget_band():
    """The range scenario's floor-limited range d0, where tx_power_dbm -
    FSPL(d0) meets the detector floor, is 65.5 m at 915 MHz. The
    reflections' amplitudes sum to multipath_ratio (0.2) of the LOS one, so
    the field amplitude stays within 0.8-1.2 of it, and free-space
    amplitude falls as 1/d: the field meets the floor between 0.8 d0 and
    1.2 d0 (52.4-78.6 m). The detection rate, linearly interpolated, crosses
    50% inside that band (at about 59 m at seed 1)."""
    scn = range_scenario(seed=1)
    ap, ratio = scn.aps[0], scn.channel.multipath_ratio
    margin_db = ap.tx_power_dbm - scn.detector.sensitivity_floor_dbm
    d0 = ap.wavelength_m / (4.0 * math.pi) * 10.0 ** (margin_db / 20.0)
    assert free_space_loss_db(d0, ap.carrier_hz) == pytest.approx(margin_db)
    assert d0 == pytest.approx(65.5, abs=0.05)
    rows = run_experiment(ExperimentSpec("range_sweep", scn, trials=200)).rows
    distances = [row[0] for row in rows]
    rates = [row[3] for row in rows]
    below = [i for i, rate in enumerate(rates) if rate < 0.5]
    assert below and below[0] > 0, f"no 50% crossing in {rates}"
    k = below[0]
    crossing = distances[k - 1] + (rates[k - 1] - 0.5) / (
        rates[k - 1] - rates[k]) * (distances[k] - distances[k - 1])
    assert (1.0 - ratio) * d0 <= crossing <= (1.0 + ratio) * d0


def test_speed_sweep_deterministic_across_workers():
    """The track path keeps per-thread synthesis buffers; each worker
    process has its own, and the CSV bytes do not depend on the count."""
    texts = [render_csv(run_experiment(ExperimentSpec(
        "speed_sweep", farm_scenario(seed=5), trials=2, workers=w)))
        for w in (1, 2)]
    assert texts[0] == texts[1]
