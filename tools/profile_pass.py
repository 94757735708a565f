"""Profile one pass of a benchmark workload under cProfile, warm or cold.

    python tools/profile_pass.py --workload greedy-chain --seed 1 [--sort cumtime] [--cold]

Run it from the repository root. It sets the workload up as the benchmark
does, which builds the oracles' states, runs one untimed pass to fill the
drafter's memo of greedy chains and trees and the target's round table of
greedy ternary rounds, then profiles one more pass of
every request (``run_experiment`` plus writing ``report.json`` and
``trace.csv``) and prints the top functions. With ``--cold`` each request
is profiled instead on its own family, set up afresh just before it and
outside the profile, so everything the states keep from one decode for the
next (the drafter's memo, the round table, the CDFs of draws and of
rejection residuals)
starts empty: a gain that only a warm pass sees shows up as the difference
between the two profiles. C builtins such as
``dict.get`` are not profiled on their own: their time is charged to the
Python function that calls them, which keeps the profiler's per-call cost
from swamping the cheap calls. The benchmark code under ``perfbench/`` is
imported, never changed, and every file a request writes goes to a
temporary directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SORTS = ("tottime", "cumtime", "ncalls")
ROWS = 30  # rows of the profile table to print


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sort", choices=SORTS, default="tottime")
    parser.add_argument("--cold", action="store_true",
                        help="profile each request on its own freshly set-up family")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import Run
    from perfbench.workloads import WORKLOADS, setup

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="profile-pass-") as tmp:
        bench = Run(workload, args.seed, Path(tmp), tracer=None)
        bench.set_up(keep=True)
        if workload.base_config().temperature != 0.0:
            bench.sentinel_references()
        bench.run_pass(timed=False)  # fills the draft memo, checks every request
        if bench.problems:
            for problem in bench.problems[:20]:
                print(problem, file=sys.stderr)
            return 1

        profiler = cProfile.Profile(builtins=False)
        elapsed = 0.0
        for req in bench.requests:
            if args.cold:
                bench.groups = setup(workload, args.seed)
            start = time.perf_counter()
            profiler.enable()
            bench.do_request(req)
            profiler.disable()
            elapsed += time.perf_counter() - start

    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats(args.sort).print_stats(ROWS)
    print(f"{args.workload} seed {args.seed}: {len(bench.requests)} requests"
          f"{', cold' if args.cold else ''}, {elapsed:.2f} s profiled")
    print(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
