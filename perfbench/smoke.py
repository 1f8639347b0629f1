"""Smoke test of the benchmark itself, kept out of the tier-1 suite.

    python3 perfbench/smoke.py

Runs every workload at its tiny smoke size, with tracing off and on, and
checks that the result line is well formed, that every metric named in
BENCHMARK.json is present with its unit, and that the output check passed.
It also checks that the benchmark refuses to run, without printing a
result, where the simulator's source is missing, and that the tracer's
nesting checks refuse spans that would count time twice. Takes about a
minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def check_result(proc: subprocess.CompletedProcess, specs: list[dict],
                 where: str) -> list[str]:
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"{where}: output check failed\n{proc.stdout}")
    if set(result["metrics"]) != {m["name"] for m in specs}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in specs:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} = {got}")
    return problems


def accounting_problems() -> list[str]:
    """Spans that nest are accepted and their self times add up to the
    wall time; each way of counting time twice is refused."""
    from tracer import ROOT as ROOT_SPAN, AccountingError, Tracer

    def traced(*children: tuple[str, int, int]) -> Tracer:
        # One root span over [0, 100) ns with the given child spans.
        t = Tracer()
        t.spans.append([t._fid(ROOT_SPAN), 0, 100, -1])
        t.spans += [[t._fid(name), a, b, 0] for name, a, b in children]
        return t

    problems = []
    good = traced(("case.f", 10, 40), ("case.g", 50, 90)).metrics()
    if (good["case.f.self_s"], good["case.g.self_s"],
            good["bench.untraced_remainder_s"]) != (30e-9, 40e-9, 30e-9):
        problems.append(f"accounting of nested spans: {good}")
    double = Tracer()
    once = double.wrap("case.f", lambda: None)
    double.root(double.wrap("case.f", once))
    bad = {"a function wrapped twice": double,
           "overlapping siblings": traced(("case.f", 10, 60), ("case.g", 50, 90)),
           "a child starting before its parent": traced(("case.f", -5, 20)),
           "a child ending after its parent": traced(("case.f", 10, 120))}
    for what, t in bad.items():
        try:
            t.metrics()
            problems.append(f"accounting accepted {what}")
        except AccountingError:
            pass
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = accounting_problems()
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{wl['name']} --trace {trace}"
            problems += check_result(run(ROOT, wl["name"], trace), bench[key],
                                     where)
            print(f"{where}: done", flush=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(bare), bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("ran without the simulator's source")
    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
