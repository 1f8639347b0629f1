"""Set-up probe: import sweeploc and finish a one-trial warm-up of a workload.

run.py starts this script in a fresh interpreter for each set-up sample.
It prints, as its last line, the seconds from just before ``import
sweeploc`` to the end of the warm-up. The warm-up fills the simulator's
in-process caches (the ``LookupTable`` cache in ``experiments``), so work
moved from the timed calls into set-up shows in this number.

    python3 perfbench/setup_probe.py --workload track --seed 1 \
        --src src --out-dir .perfbench_out/probe
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, run_steps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    t0 = time.perf_counter()
    import sweeploc.cli  # noqa: F401  (the import is part of set-up)
    run_steps(WORKLOADS[args.workload], 1, args.seed, Path(args.out_dir))
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
