"""Split the time of a benchmark workload's requests into their last steps.

    python tools/time_request.py --workload greedy-chain --seed 3 [--cold] [--passes 25]

Run it from the repository root. It sets the workload up as
``tools/time_pass.py`` does, untimed warm pass included, then times
``--passes`` more passes of every request (``run_experiment`` plus writing
``report.json`` and ``trace.csv``). Four steps of a request are wrapped by
name from outside, as the benchmark's tracer wraps its spans: the fold of
the rounds into the report (``metrics.accumulate``), the perplexity probe
(``harness._ppl_under_target``) and the two writers. Each figure is in
milliseconds per pass: the sum, over the requests, of the request's
fastest pass. ``rest`` is what a request spends outside the four steps:
its rounds, the decode loop and the trace records. With ``--cold`` each
request runs on its own family, set up afresh just before it and outside
the timing. The benchmark code under ``perfbench/`` is imported, never
changed, and every file a request writes goes to a temporary directory
that is removed afterwards.
"""

from __future__ import annotations

import functools
import sys
import tempfile
import time
from pathlib import Path

import profile_pass  # next to this script, so on its path

# The wrapped steps: (module, name), each patched wherever a trispec module holds it.
STEPS = (
    ("metrics", "accumulate"),
    ("harness", "_ppl_under_target"),
    ("harness", "write_report_json"),
    ("harness", "write_trace_csv"),
)


def _wrapped(spent: dict[str, float], name: str, fn):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - start

    return timed


def install(spent: dict[str, float]) -> None:
    """Wrap every step in ``STEPS``, adding its seconds to ``spent[name]``."""
    modules = [m for n, m in sys.modules.items() if n == "trispec" or n.startswith("trispec.")]
    for module, name in STEPS:
        original = getattr(sys.modules[f"trispec.{module}"], name)
        timed = _wrapped(spent, name, original)
        for owner in modules:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, timed)


def main(argv: list[str] | None = None) -> int:
    parser = profile_pass.arguments(__doc__)
    parser.add_argument("--passes", type=int, default=25, help="timed passes (default 25)")
    args = profile_pass.parse_args(argv, parser)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    names = [name for _, name in STEPS]
    with tempfile.TemporaryDirectory(prefix="time-request-") as tmp:
        bench = profile_pass.warmed(args, Path(tmp))
        if isinstance(bench, int):
            return bench
        spent = dict.fromkeys(names, 0.0)
        install(spent)
        # the fastest pass of each request, by part
        fastest = [dict.fromkeys(["request", *names, "rest"], float("inf")) for _ in bench.requests]
        for _ in range(args.passes):
            for req, best in zip(profile_pass.requests(bench, args.cold), fastest):
                for name in names:
                    spent[name] = 0.0
                start = time.perf_counter()
                bench.do_request(req)
                took = {"request": time.perf_counter() - start, **spent}
                took["rest"] = took["request"] - sum(spent.values())
                for part, seconds in took.items():
                    best[part] = min(best[part], seconds)
    parts = ", ".join(f"{part} {sum(best[part] for best in fastest) * 1e3:.2f}"
                      for part in fastest[0])
    print(f"{args.workload} seed {args.seed}: {len(bench.requests)} requests"
          f"{', cold' if args.cold else ''}, {args.passes} passes, ms per pass: {parts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
