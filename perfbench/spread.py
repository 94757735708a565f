"""Measure the run-to-run spread of every end-to-end metric.

    python3 perfbench/spread.py --runs 10 [--workloads a,b] [--trace-runs 3]

Runs ``run.py`` once per seed (1..runs) on each workload, one process at a
time, and prints each metric's median, quartiles and inter-quartile spread
as a share of the median, next to its bound in BENCHMARK.json. With
``--trace-runs`` it also runs the traced variant and reports the tracing
overhead. The raw results go to ``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:1] = [str(ROOT)]

from perfbench import stats  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def summarise(results: list[dict], bounds: dict) -> list[str]:
    lines = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = stats.quartiles(values)
        spread = stats.relative_spread(values)
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else ("  WIDE" if spread <= bound else "  OVER")
        lines.append(
            f"  {name:18s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
            f"spread {spread:7.4f}  bound {bound if bound is not None else '-'}{flag}  "
            f"(3x spread: {stats.bound_for([spread])})"
        )
    shares = {r["failed"] / r["attempted"] for r in results}
    walls = [r["wall_s"] for r in results]
    lines.append(f"  failed shares {sorted(shares)}; correct {all(r['correct'] for r in results)}; "
                 f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"seconds": seconds, "runs": {}, "traced": {}}
    for workload in workloads:
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)
        out["runs"][workload] = results
        print(f"{workload}, {len(results)} runs of {seconds:g} s:")
        print("\n".join(summarise(results, bounds)), flush=True)
        if args.trace_runs:
            traced = [run_once(workload, seed, seconds, 1) for seed in range(1, args.trace_runs + 1)]
            out["traced"][workload] = traced
            plain = stats.median([r["metrics"]["tokens_per_ref"]["value"] for r in results[: args.trace_runs]])
            slow = stats.median([r["metrics"]["traced.tokens_per_ref"]["value"] for r in traced])
            print(f"  tracing overhead in tokens_per_ref: {plain:.4g} untraced, {slow:.4g} traced, "
                  f"x{plain / slow:.3f}", flush=True)

    results_dir = HERE / "_results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
