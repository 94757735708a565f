"""Print one sha256 over everything one pass of a benchmark workload writes.

    python tools/digest_outputs.py --workload greedy-chain --seed 3 [--cold]

Run it from the repository root. It sets the workload up as
``tools/profile_pass.py`` does, warm pass included, then runs one more
pass of every request (``run_experiment`` plus writing ``report.json`` and
``trace.csv``) and hashes, request by request, the bytes of both files and
the ``repr`` of the continuations. With ``--cold`` each request runs on its
own family, set up afresh just before it. Two trees whose code should
behave alike print the same digest for the same workload, seed and mode.
The benchmark code under ``perfbench/`` is imported, never changed, and
every file a request writes goes to a temporary directory that is removed
afterwards.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import profile_pass  # next to this script, so on its path


def main(argv: list[str] | None = None) -> int:
    args = profile_pass.parse_args(argv, profile_pass.arguments(__doc__))
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="digest-outputs-") as tmp:
        bench = profile_pass.warmed(args, Path(tmp))
        if isinstance(bench, int):
            return bench
        for req in profile_pass.requests(bench, args.cold):
            result = bench.do_request(req)
            parts = ((req.outdir / "report.json").read_bytes(),
                     (req.outdir / "trace.csv").read_bytes(),
                     repr(result.continuations).encode())
            for part in parts:  # each part's length first, so no two splits collide
                digest.update(len(part).to_bytes(8, "big") + part)
    print(f"{args.workload} seed {args.seed}: {len(bench.requests)} requests"
          f"{', cold' if args.cold else ''}, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
