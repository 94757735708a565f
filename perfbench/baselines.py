"""Reference throughput of the two-model and one-model decodes.

    python3 perfbench/baselines.py [--seed 1] [--passes 5]

For each workload, decodes its first prompt group with ``method=target_only``
and with ``method=sd`` (target verifier; tree SD on the tree workload) at
the workload's settings and decode seeds, and prints tokens/s with each
request at its median of ``--passes`` passes, as the benchmark takes
``tokens_per_s``, next to the same figure for the workload's
own trispec requests on that group. These figures are for the README; the
benchmark itself never times sd.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

from trispec import harness  # noqa: E402

from perfbench import stats  # noqa: E402
from perfbench.workloads import WORKLOADS, setup  # noqa: E402


def tokens_per_s(configs, family, passes: int) -> float:
    tokens = [0] * len(configs)
    times: list[list[float]] = [[] for _ in configs]
    for p in range(passes + 1):  # the first pass only warms the memo tables
        for i, cfg in enumerate(configs):
            start = time.perf_counter()
            result = harness.run_experiment(cfg, family)
            elapsed = time.perf_counter() - start
            if p:
                times[i].append(elapsed)
            else:
                tokens[i] = result.report.N
    return stats.throughput(tokens, times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    for workload in WORKLOADS.values():
        family, _ = setup(workload, args.seed)[0]
        trispec = [cfg for group, cfg in workload.requests(args.seed) if group == 0]
        seeds = sorted({cfg.seed for cfg in trispec})
        base = trispec[0]
        rows = {
            "target_only": [replace(base, method="target_only", seed=s) for s in seeds],
            "sd": [replace(base, method="sd", sd_verifier="target", seed=s) for s in seeds],
            "trispec": trispec,
        }
        figures = ", ".join(
            f"{name} {tokens_per_s(cfgs, family, args.passes):.0f}" for name, cfgs in rows.items()
        )
        print(f"{workload.name}: tokens/s {figures}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
