"""sweeploc benchmark: trial throughput, set-up time and memory per workload.

Run from the repository root:

    python3 perfbench/run.py --workload {grid,track,uplink} --seed N \
        --seconds S --trace {0,1} [--smoke]

The benchmark drives the real ``sweeploc.cli.main`` in this process with
``--workers 1``, as a closed loop: each call of the workload starts after
the previous one has finished and been checked. Every CSV is read back and
checked (see workloads.py); a call that raises or fails the check counts as
failed. Inputs come from ``--seed`` alone, passed to the simulator as the
scenario seed.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json:
  trials_per_s  median over calls of (work the CSVs report) / (call time)
  setup_s       median of 5 fresh interpreters importing sweeploc and
                finishing a one-trial warm-up (setup_probe.py)
  peak_rss_mb   peak resident memory of this process (getrusage)
Calls repeat until ``--seconds`` have passed (at least 3 calls).

``--trace 1`` wraps the simulator's public functions (tracer.py), runs a
traced one-trial warm-up and TRACED_CALLS traced calls, each followed by
the same call untraced, and reports the per-layer metrics of BENCHMARK.json over the
traced calls, warm-up included. Its work is fixed, not timed, so its counts
repeat exactly for a seed. Spans are written to
``.perfbench_out/<workload>-seed<N>-trace1/spans.csv``.

``--smoke`` runs a tiny size; smoke.py uses it to test the benchmark.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, CallResult, call, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_CALLS = 3
TRACED_CALLS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_simulator() -> None:
    """Import sweeploc from this checkout's src/, never from elsewhere."""
    if not (SRC / "sweeploc" / "cli.py").is_file():
        raise SystemExit(f"error: no simulator source at {SRC / 'sweeploc'}")
    sys.path.insert(0, str(SRC))
    import sweeploc.cli  # noqa: F401

    found = Path(sys.modules["sweeploc"].__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise SystemExit(f"error: imported sweeploc from {found}, not {SRC}")


def setup_seconds(workload: str, seed: int, out_dir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
         "--seed", str(seed), "--src", str(SRC), "--out-dir", str(out_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def mark_failures(calls: list[CallResult]) -> None:
    """A call whose CSV bytes differ from the first good call's fails."""
    digests = [c.digest for c in calls if c.error is None]
    for c in calls:
        if c.error is None and c.digest != digests[0]:
            c.error = "CSV bytes differ between calls of one seed"


def throughput(calls: list[CallResult]) -> list[float]:
    # A failed call completed no work: it counts as zero throughput.
    return [c.work / c.seconds if c.error is None else 0.0 for c in calls]


def timed_run(args, size: int, out_dir: Path) -> tuple[dict, list[CallResult]]:
    wl = WORKLOADS[args.workload]
    setup = [setup_seconds(wl.name, args.seed, out_dir)
             for _ in range(SETUP_REPEATS)]
    warm = call(wl, 1, args.seed, out_dir)
    check(wl, warm, 1, args.seed)
    calls: list[CallResult] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(calls) < MIN_CALLS:
        res = call(wl, size, args.seed, out_dir)
        check(wl, res, size, args.seed)
        calls.append(res)
    mark_failures(calls)
    tps = throughput(calls)
    q1, _, q3 = statistics.quantiles(tps, n=4)
    med = statistics.median(tps)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{wl.name}: {len(calls)} calls of size {size}; trials_per_s "
          f"median {med:.6g} (q1 {q1:.6g}, q3 {q3:.6g}); setup_s samples "
          f"{[round(s, 4) for s in setup]}")
    values = {
        "trials_per_s": med,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    return values, [warm] + calls


def traced_run(args, size: int, out_dir: Path) -> tuple[dict, list[CallResult]]:
    from tracer import AccountingError, Tracer

    wl = WORKLOADS[args.workload]
    for sub in ["traced-warm"] + [f"traced-{k}" for k in range(TRACED_CALLS)]:
        (out_dir / sub).mkdir(exist_ok=True)
    tracer = Tracer()

    def timed(fn):
        result, ns = tracer.root(fn)
        return result, ns / 1e9
    # Traced and untraced calls alternate, so that a change in the machine's
    # load during the run biases the overhead estimate less.
    tracer.install()
    try:
        traced = [call(wl, 1, args.seed, out_dir / "traced-warm", timed)]
        untraced = []
        for k in range(TRACED_CALLS):
            tracer.enable()
            traced.append(call(wl, size, args.seed, out_dir / f"traced-{k}",
                               timed))
            tracer.disable()
            untraced.append(call(wl, size, args.seed, out_dir))
    finally:
        tracer.disable()
    tracer.write(out_dir / "spans.csv")
    check(wl, traced[0], 1, args.seed)
    for res in traced[1:] + untraced:
        check(wl, res, size, args.seed)
    # Traced and untraced calls must write the same bytes.
    mark_failures(traced[1:] + untraced)

    try:
        values = tracer.metrics()
    except AccountingError as exc:
        traced[0].error = f"self-time accounting: {exc}"
        return {}, traced + untraced
    traced_tps = statistics.median(throughput(traced[1:]))
    plain_tps = statistics.median(throughput(untraced))
    values["bench.trace_overhead_frac"] = \
        1.0 - traced_tps / plain_tps if plain_tps else 0.0
    print(f"{wl.name}: traced {len(tracer.spans)} spans over "
          f"{values['bench.traced_wall_s']:.4f} s, of which "
          f"{values['bench.untraced_remainder_s']:.4f} s in no wrapped "
          f"function; trials_per_s traced {traced_tps:.6g}, untraced "
          f"{plain_tps:.6g}")
    return values, traced + untraced


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]
    size = wl.smoke_size if args.smoke else wl.size
    import_simulator()
    out_dir = ROOT / ".perfbench_out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    run = traced_run if args.trace else timed_run
    values, calls = run(args, size, out_dir)
    failed = [c for c in calls if c.error is not None]
    for c in failed:
        print(f"failed call: {c.error}")
    good = [c for c in calls if c.error is None]
    if good:
        print(f"{wl.name}: csv_sha256 {good[-1].digest} (seed {args.seed}, "
              f"size {size})")
    print(f"{wl.name}: failed_frac {len(failed) / len(calls):.6g} "
          f"({len(failed)} of {len(calls)} calls)")
    specs = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    if values:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in specs}
    print(json.dumps({"correct": not failed, "attempted": len(calls),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
