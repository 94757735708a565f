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


def arguments(doc: str) -> argparse.ArgumentParser:
    """The options every pass tool takes: ``--workload``, ``--seed`` and
    ``--cold``."""
    parser = argparse.ArgumentParser(description=doc.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cold", action="store_true",
                        help="run each request on its own freshly set-up family")
    return parser


def parse_args(
    argv: list[str] | None, parser: argparse.ArgumentParser | None = None
) -> argparse.Namespace:
    """``argv`` parsed by ``parser``, this tool's when None."""
    if parser is None:
        parser = arguments(__doc__)
        parser.add_argument("--sort", choices=SORTS, default="tottime")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def workload_of(args: argparse.Namespace):
    """The benchmark workload ``args.workload`` names, with ``perfbench``
    importable; or 2, the exit code, when there is no such workload."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return WORKLOADS[args.workload]


def warmed(args: argparse.Namespace, workdir: Path):
    """The workload's benchmark ``Run`` in ``workdir``, set up and past one
    untimed, checked pass; or the exit code when it cannot be (2 for an
    unknown workload, 1 when the pass fails a check)."""
    workload = workload_of(args)
    if isinstance(workload, int):
        return workload
    from perfbench.bench import Run

    bench = Run(workload, args.seed, workdir, tracer=None)
    bench.set_up(keep=True)
    if workload.base_config().temperature != 0.0:
        bench.sentinel_references()
    bench.run_pass(timed=False)  # fills the draft memo, checks every request
    if bench.problems:
        for problem in bench.problems[:20]:
            print(problem, file=sys.stderr)
        return 1
    return bench


def requests(bench, cold: bool):
    """Each request of one more pass; with ``cold``, each on a family set
    up afresh just before it is yielded."""
    from perfbench.workloads import setup

    for req in bench.requests:
        if cold:
            bench.groups = setup(bench.workload, bench.seed)
        yield req


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="profile-pass-") as tmp:
        bench = warmed(args, Path(tmp))
        if isinstance(bench, int):
            return bench
        profiler = cProfile.Profile(builtins=False)
        elapsed = 0.0
        for req in requests(bench, args.cold):
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
