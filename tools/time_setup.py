"""Time the set-up of a benchmark workload: the work its ``setup_s`` times.

    python tools/time_setup.py --workload greedy-chain --seed 0 [--repeats 20]

Run it from the repository root. It runs ``perfbench.workloads.setup``
(train the family, carve each prompt group's view of it, derive the
prompts) ``--repeats`` times in this interpreter, after one untimed run
that imports and warms what set-up uses, and prints the fastest and the
median run in milliseconds. The benchmark code under ``perfbench/`` is
imported, never changed.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import profile_pass  # next to this script, so on its path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=20, help="timed set-ups (default 20)")
    args = profile_pass.parse_args(argv, parser)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    workload = profile_pass.workload_of(args)
    if isinstance(workload, int):
        return workload
    from perfbench import workloads

    workloads.setup(workload, args.seed)
    seconds = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        workloads.setup(workload, args.seed)
        seconds.append(time.perf_counter() - start)
    print(f"{args.workload} seed {args.seed}: {args.repeats} set-ups, fastest"
          f" {min(seconds) * 1e3:.2f} ms, median {statistics.median(seconds) * 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
