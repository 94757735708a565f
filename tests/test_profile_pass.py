"""``tools/profile_pass.py``, ``tools/digest_outputs.py`` and
``tools/time_pass.py`` drive the benchmark's ``Run`` from outside, so a change to either side can break them
while nothing else notices. These tests run each tool's ``main`` on a
shrunken workload in a fresh interpreter, as a real run would. They import
perfbench and change nothing in it."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

TOOL_SCRIPT = """
import sys
from dataclasses import replace
sys.path[:0] = [{src!r}, {root!r}, {tools!r}]
from perfbench import bench, workloads
import {tool} as tool
for name, base in list(workloads.WORKLOADS.items()):
    workloads.WORKLOADS[name] = replace(
        base, overrides={{**base.overrides, "num_prompts": 2, "max_new_tokens": 8}},
        groups=1, lams=(0.5,), decode_seeds=1,
    )
bench.SETUP_REF_SECONDS = 0.002  # time the set-up against short loops
setups = []
fresh = workloads.setup  # bench.Run binds its own name, so only the tool calls this one
workloads.setup = lambda *args: setups.append(1) or fresh(*args)
rc = tool.main({argv!r})
print(f"fresh set-ups: {{len(setups)}}")
sys.exit(rc)
"""


def _run_tool(argv, workdir, tool="profile_pass"):
    script = TOOL_SCRIPT.format(
        src=str(ROOT / "src"), root=str(ROOT), tools=str(ROOT / "tools"), argv=argv, tool=tool
    )
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=workdir, timeout=300
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_profile_pass_prints_a_profile_of_every_request(name, tmp_path):
    proc = _run_tool(["--workload", name, "--seed", "3", "--sort", "cumtime"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert f"{name} seed 3: 1 requests, " in proc.stdout
    assert "function calls" in proc.stdout and "run_experiment" in proc.stdout
    assert "fresh set-ups: 0" in proc.stdout
    assert list(tmp_path.iterdir()) == []  # every file a request wrote is gone


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_profile_pass_cold_profiles_each_request_on_a_fresh_family(name, tmp_path):
    proc = _run_tool(["--workload", name, "--seed", "3", "--cold"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert f"{name} seed 3: 1 requests, cold, " in proc.stdout
    assert "run_experiment" in proc.stdout
    assert "build_family" not in proc.stdout  # set up outside the profile
    assert "fresh set-ups: 1" in proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_profile_pass_rejects_an_unknown_workload(tmp_path):
    proc = _run_tool(["--workload", "no-such-workload", "--seed", "3"], tmp_path)
    assert proc.returncode == 2
    assert "unknown workload 'no-such-workload'" in proc.stderr


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_digest_outputs_prints_one_digest_for_a_warm_and_a_cold_pass(name, tmp_path):
    """Every request's files and continuations go into one sha256, and a
    cold pass writes what a warm one does."""
    digests = []
    for mode in ((), ("--cold",)):
        proc = _run_tool(["--workload", name, "--seed", "3", *mode], tmp_path, "digest_outputs")
        assert proc.returncode == 0, proc.stderr
        cold = ", cold" if mode else ""
        found = re.search(rf"^{name} seed 3: 1 requests{cold}, sha256 ([0-9a-f]{{64}})$",
                          proc.stdout, re.MULTILINE)
        assert found, proc.stdout
        assert f"fresh set-ups: {len(mode)}" in proc.stdout
        digests.append(found.group(1))
    assert digests[0] == digests[1]
    assert list(tmp_path.iterdir()) == []


def test_digest_outputs_tells_seeds_apart(tmp_path):
    out = [_run_tool(["--workload", "greedy-chain", "--seed", seed], tmp_path, "digest_outputs")
           for seed in ("3", "4")]
    assert [proc.returncode for proc in out] == [0, 0]
    assert len({proc.stdout.split("sha256 ")[1].split()[0] for proc in out}) == 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("cold", [False, True])
def test_time_pass_prints_the_fastest_and_median_pass(name, cold, tmp_path):
    mode = ["--cold"] if cold else []
    proc = _run_tool(["--workload", name, "--seed", "3", "--passes", "3", *mode], tmp_path,
                     "time_pass")
    assert proc.returncode == 0, proc.stderr
    found = re.search(rf"^{name} seed 3: 1 requests{', cold' if cold else ''}, 3 passes,"
                      r" fastest (\d+\.\d) ms, median (\d+\.\d) ms$", proc.stdout, re.MULTILINE)
    assert found, proc.stdout
    assert 0.0 < float(found.group(1)) <= float(found.group(2))
    assert f"fresh set-ups: {3 if cold else 0}" in proc.stdout  # one per request per pass
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["--workload", "greedy-chain", "--seed", "3", "--passes", "0"], "--passes must be >= 1"),
    (["--workload", "greedy-chain", "--seed", "-1"], "--seed must be >= 0"),
    (["--workload", "no-such-workload", "--seed", "3"], "unknown workload 'no-such-workload'"),
])
def test_time_pass_refuses_bad_arguments(argv, message, tmp_path):
    proc = _run_tool(argv, tmp_path, "time_pass")
    assert proc.returncode == 2
    assert message in proc.stderr
