"""``tools/profile_pass.py``, ``tools/digest_outputs.py``,
``tools/time_pass.py``, ``tools/time_request.py`` and
``tools/time_setup.py`` drive the benchmark
from outside, so a change to either side can break them while nothing else
notices. These tests run each tool's ``main`` on a shrunken workload in a
fresh interpreter, as a real run would; one more runs ``digest_outputs``
on the full workloads and pins what they write. They import perfbench and
change nothing in it."""

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


REQUEST_PARTS = ("request", "accumulate", "_ppl_under_target", "write_report_json",
                 "write_trace_csv", "rest")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("cold", [False, True])
def test_time_request_splits_each_request_into_its_steps(name, cold, tmp_path):
    mode = ["--cold"] if cold else []
    proc = _run_tool(["--workload", name, "--seed", "3", "--passes", "3", *mode], tmp_path,
                     "time_request")
    assert proc.returncode == 0, proc.stderr
    parts = ", ".join(rf"{part} (-?\d+\.\d\d)" for part in REQUEST_PARTS)
    found = re.search(rf"^{name} seed 3: 1 requests{', cold' if cold else ''}, 3 passes,"
                      rf" ms per pass: {parts}$", proc.stdout, re.MULTILINE)
    assert found, proc.stdout
    request, *steps, rest = map(float, found.groups())
    assert all(0.0 < ms < request for ms in steps)  # each wrapped step ran in every request
    assert rest > 0.0
    assert f"fresh set-ups: {3 if cold else 0}" in proc.stdout
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["--workload", "greedy-chain", "--seed", "3", "--passes", "0"], "--passes must be >= 1"),
    (["--workload", "greedy-chain", "--seed", "-1"], "--seed must be >= 0"),
    (["--workload", "no-such-workload", "--seed", "3"], "unknown workload 'no-such-workload'"),
])
def test_time_request_refuses_bad_arguments(argv, message, tmp_path):
    proc = _run_tool(argv, tmp_path, "time_request")
    assert proc.returncode == 2
    assert message in proc.stderr


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_time_setup_prints_the_fastest_and_median_set_up(name, tmp_path):
    proc = _run_tool(["--workload", name, "--seed", "3", "--repeats", "3"], tmp_path, "time_setup")
    assert proc.returncode == 0, proc.stderr
    found = re.search(rf"^{name} seed 3: 3 set-ups, fastest (\d+\.\d\d) ms, median (\d+\.\d\d) ms$",
                      proc.stdout, re.MULTILINE)
    assert found, proc.stdout
    assert 0.0 < float(found.group(1)) <= float(found.group(2))
    assert "fresh set-ups: 4" in proc.stdout  # one untimed, then one per repeat
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["--workload", "greedy-chain", "--seed", "3", "--repeats", "0"], "--repeats must be >= 1"),
    (["--workload", "greedy-chain", "--seed", "-1"], "--seed must be >= 0"),
    (["--workload", "no-such-workload", "--seed", "3"], "unknown workload 'no-such-workload'"),
])
def test_time_setup_refuses_bad_arguments(argv, message, tmp_path):
    proc = _run_tool(argv, tmp_path, "time_setup")
    assert proc.returncode == 2
    assert message in proc.stderr


# What one pass of each full-size workload writes, warm at seeds 0 and 3:
# the byte-identical report.json and trace.csv of the benchmark's configs.
PINNED_DIGESTS = {
    "greedy-chain": {
        0: "fd272feb20039fea3a87433b410c2bcabed425050692c269e9aae73fc1245085",
        3: "c7260bc0be897e5556a87f41f7d5d566cc426c00a95e504285eb575014be9a6c",
    },
    "sampled-perturbed": {
        0: "4d1c327f59f510bceabba3842bdac7ad2f992311f84a3b4644f4c6d12a770f1c",
        3: "527c475b910a9c0119bbb432fb530e0e14614d82b47d83d6f89fb45eca472386",
    },
    "greedy-tree": {
        0: "bf5d3afcae5140c93e3865ad0b46a12470bc0cec06f004b683ae59c8dae9cd6a",
        3: "7bfe8ac96cd2dfdef891b80082ad3afb2783bf2e089a0712b744fd624e9c6932",
    },
}

DIGEST_SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {root!r}, {tools!r}]
import digest_outputs
for argv in {argvs!r}:
    rc = digest_outputs.main(argv)
    if rc:
        sys.exit(rc)
"""


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_benchmark_workloads_write_their_pinned_outputs(name, tmp_path):
    """Warm at seeds 0 and 3 and cold at seed 0, which must write what the
    warm pass does: a change that should leave every output alone must
    leave these digests alone."""
    argvs = [["--workload", name, "--seed", "0"], ["--workload", name, "--seed", "3"],
             ["--workload", name, "--seed", "0", "--cold"]]
    script = DIGEST_SCRIPT.format(
        src=str(ROOT / "src"), root=str(ROOT), tools=str(ROOT / "tools"), argvs=argvs
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = re.findall(rf"^{name} seed (\d): \d+ requests(, cold)?, sha256 ([0-9a-f]{{64}})$",
                     proc.stdout, re.MULTILINE)
    want = PINNED_DIGESTS[name]
    assert got == [("0", "", want[0]), ("3", "", want[3]), ("0", ", cold", want[0])]
    assert list(tmp_path.iterdir()) == []
