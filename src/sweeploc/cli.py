"""Command line entry point: run a named experiment to a CSV file."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiments import EXPERIMENTS, ExperimentSpec, run_experiment
from .scenario import (ConfigError, Scenario, load_scenario_file,
                       scenario_to_yaml, with_seed)
from .scenarios import BUILTIN_SCENARIOS

DEFAULT_SCENARIO = {
    "multipath_grid": "bench",
    "range_sweep": "range",
    "farm_cdf": "farm",
    "speed_sweep": "farm",
    "ber_vs_snr": "bench",
    "mac_session": "bench",
    "power_report": "bench",
}


def _resolve_scenario(name_or_path: str, seed: int | None) -> Scenario:
    if name_or_path in BUILTIN_SCENARIOS:
        scn = BUILTIN_SCENARIOS[name_or_path]()
    else:
        scn = load_scenario_file(name_or_path)
    return scn if seed is None else with_seed(scn, seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweeploc",
        description="Run sweep-localization experiments to CSV.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    # Hyphen and underscore spellings are interchangeable.
    run.add_argument("experiment", type=lambda s: s.replace("-", "_"),
                     choices=sorted(EXPERIMENTS),
                     metavar="{%s}" % ",".join(sorted(EXPERIMENTS)))
    run.add_argument("--scenario", default=None,
                     help="scenario YAML path or builtin name "
                          f"({', '.join(sorted(BUILTIN_SCENARIOS))})")
    run.add_argument("--trials", type=int, default=None,
                     help="trial count (or bits for ber_vs_snr)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    run.add_argument("--mode", choices=("alg1", "uniform-theta"), default=None,
                     help="override the sweep mode")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel worker processes (results identical "
                          "for any value)")
    run.add_argument("--out", required=True, help="output CSV path")

    show = sub.add_parser("scenario", help="print a builtin scenario as YAML")
    show.add_argument("name", choices=sorted(BUILTIN_SCENARIOS))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "scenario":
            sys.stdout.write(scenario_to_yaml(BUILTIN_SCENARIOS[args.name]()))
            return 0
        scenario_name = args.scenario or DEFAULT_SCENARIO[args.experiment]
        scn = _resolve_scenario(scenario_name, args.seed)
        if args.mode is not None:
            scn = replace(scn, sweep_mode=args.mode)
        spec = ExperimentSpec(experiment=args.experiment, scenario=scn,
                              trials=args.trials, out_path=args.out,
                              workers=args.workers)
        table = run_experiment(spec)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.experiment}: {len(table.rows)} rows -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
