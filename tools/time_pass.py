"""Time passes of a benchmark workload, unprofiled, warm or cold.

    python tools/time_pass.py --workload greedy-tree --seed 3 [--cold] [--passes 5]

Run it from the repository root. It sets the workload up as
``tools/profile_pass.py`` does, untimed warm pass included, then times
``--passes`` more passes of every request (``run_experiment`` plus writing
``report.json`` and ``trace.csv``) and prints the fastest and the median
pass in milliseconds. With ``--cold`` each request runs on its own family,
set up afresh just before it and outside the timing. A pass's time is the
sum of its requests' times. The benchmark code under ``perfbench/`` is
imported, never changed, and every file a request writes goes to a
temporary directory that is removed afterwards.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

import profile_pass  # next to this script, so on its path


def main(argv: list[str] | None = None) -> int:
    parser = profile_pass.arguments(__doc__)
    parser.add_argument("--passes", type=int, default=5, help="timed passes (default 5)")
    args = profile_pass.parse_args(argv, parser)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    seconds = []
    with tempfile.TemporaryDirectory(prefix="time-pass-") as tmp:
        bench = profile_pass.warmed(args, Path(tmp))
        if isinstance(bench, int):
            return bench
        for _ in range(args.passes):
            elapsed = 0.0
            for req in profile_pass.requests(bench, args.cold):
                start = time.perf_counter()
                bench.do_request(req)
                elapsed += time.perf_counter() - start
            seconds.append(elapsed)
    print(f"{args.workload} seed {args.seed}: {len(bench.requests)} requests"
          f"{', cold' if args.cold else ''}, {args.passes} passes, fastest"
          f" {min(seconds) * 1e3:.1f} ms, median {statistics.median(seconds) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
