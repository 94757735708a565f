"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload greedy-chain --seed 1 --seconds 30 --trace 0

Run it from the repository root: it imports trispec from ``src/`` next to
this directory and writes its scratch files under ``perfbench/_work/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "trispec" / "__init__.py").is_file():
        print(f"error: no trispec sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:1] = [str(SRC), str(ROOT)]

    from perfbench.bench import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), HERE / "_work")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
