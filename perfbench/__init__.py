"""Wall-clock benchmark of the trispec decode paths.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see README.md.
"""
