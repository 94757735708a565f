"""``tools/profile_pass.py`` drives the benchmark's ``Run`` from outside, so a
change to either can break it while nothing else notices. These tests run
its ``main`` on a shrunken workload in a fresh interpreter, as a real
profile would run. They import perfbench and change nothing in it."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

PROFILE_SCRIPT = """
import sys
from dataclasses import replace
sys.path[:0] = [{src!r}, {root!r}, {tools!r}]
from perfbench import bench, workloads
import profile_pass
for name, base in list(workloads.WORKLOADS.items()):
    workloads.WORKLOADS[name] = replace(
        base, overrides={{**base.overrides, "num_prompts": 2, "max_new_tokens": 8}},
        groups=1, lams=(0.5,), decode_seeds=1,
    )
bench.SETUP_REF_SECONDS = 0.002  # time the set-up against short loops
setups = []
fresh = workloads.setup  # bench.Run binds its own name, so only profile_pass calls this one
workloads.setup = lambda *args: setups.append(1) or fresh(*args)
rc = profile_pass.main({argv!r})
print(f"fresh set-ups: {{len(setups)}}")
sys.exit(rc)
"""


def _profile(argv, workdir):
    script = PROFILE_SCRIPT.format(
        src=str(ROOT / "src"), root=str(ROOT), tools=str(ROOT / "tools"), argv=argv
    )
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=workdir, timeout=300
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_profile_pass_prints_a_profile_of_every_request(name, tmp_path):
    proc = _profile(["--workload", name, "--seed", "3", "--sort", "cumtime"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert f"{name} seed 3: 1 requests, " in proc.stdout
    assert "function calls" in proc.stdout and "run_experiment" in proc.stdout
    assert "fresh set-ups: 0" in proc.stdout
    assert list(tmp_path.iterdir()) == []  # every file a request wrote is gone


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_profile_pass_cold_profiles_each_request_on_a_fresh_family(name, tmp_path):
    proc = _profile(["--workload", name, "--seed", "3", "--cold"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert f"{name} seed 3: 1 requests, cold, " in proc.stdout
    assert "run_experiment" in proc.stdout
    assert "build_family" not in proc.stdout  # set up outside the profile
    assert "fresh set-ups: 1" in proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_profile_pass_rejects_an_unknown_workload(tmp_path):
    proc = _profile(["--workload", "no-such-workload", "--seed", "3"], tmp_path)
    assert proc.returncode == 2
    assert "unknown workload 'no-such-workload'" in proc.stderr
