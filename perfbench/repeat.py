"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 perfbench/repeat.py --workload track --seeds 1 2 3 4 5 \
        [--seconds 20] [--json out.json]

Runs are sequential, one process at a time, with tracing off. For each
end-to-end metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json. Use it to check that the
benchmark is steady and to record a baseline; compare two commits by
running it on each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((ln.split()[2] for ln in lines if "csv_sha256" in ln), "")
    result["csv_sha256"] = digest
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", help="also write the runs and summary here")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        res = run_once(args.workload, seed, args.seconds)
        res["seed"] = seed
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)
    summary = {}
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} bound {bounds.get(name)}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "runs": runs, "summary": summary},
            indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
