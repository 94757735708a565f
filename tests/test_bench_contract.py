"""The benchmark under perfbench/ reads this program from outside: it wraps
names by string, meters the three oracle pass methods on ``ModelOracle``,
and takes the last line a run prints as its result. These tests fail when a
change to the program would make a run drop metrics quietly or print a
result that is not one. They import perfbench and change nothing in it."""

import importlib
import inspect
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from trispec import core, harness, models

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# One benchmark run of a shrunken workload in a fresh interpreter, so that
# whatever the program prints, at exit too, lands where a real run's would.
RUN_SCRIPT = """
import sys
from dataclasses import replace
from pathlib import Path
sys.path[:0] = [{src!r}, {root!r}]
from perfbench import bench, run, workloads
base = workloads.WORKLOADS[{name!r}]
workloads.WORKLOADS[{name!r}] = replace(
    base, overrides={{**base.overrides, "num_prompts": 2, "max_new_tokens": 8}},
    groups=1, lams=(0.5,), decode_seeds=1,
)
bench.SETUP_REF_SECONDS = 0.002  # time the set-ups against short loops
run.HERE = Path({workdir!r})
sys.exit(run.main(["--workload", {name!r}, "--seed", "3", "--seconds", "0.01", "--trace", {trace!r}]))
"""


def test_every_traced_name_resolves():
    for _, module, attr in tracing.SPANS:
        owner = importlib.import_module(f"trispec.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
    assert "uniform" in vars(core.RandomStream)
    assert "fork" in vars(harness.Family)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_pass_methods_live_only_on_model_oracle_with_metered_signatures():
    for method in tracing.PASS_METHODS:
        fn = vars(models.ModelOracle)[method]
        params = list(inspect.signature(fn).parameters)[1:]
        assert params == list(inspect.signature(tracing._POSITIONS[method]).parameters), method
        for sub in _subclasses(models.ModelOracle):
            if sub.__module__.startswith("trispec"):
                assert method not in vars(sub), f"{sub.__name__} overrides {method}"


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_run_ends_with_one_result_line_naming_every_metric(name, trace, tmp_path):
    script = RUN_SCRIPT.format(
        src=str(ROOT / "src"), root=str(ROOT), name=name, trace=trace, workdir=str(tmp_path)
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert "left out" not in proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    json.dumps(result, allow_nan=False)  # NaN or Infinity is not JSON
    assert result["correct"] and result["failed"] == 0
    key = "per_layer" if trace == "1" else "end_to_end"
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[key])


@pytest.mark.parametrize("use_tree", [False, True])
def test_a_warm_run_traces_the_passes_drafts_and_rounds_of_a_cold_one(use_tree):
    """The second run on one family hands out rounds from the round table,
    yet the tracer must see what it saw of the first: every pass and
    position by role, every drafted token and every round."""
    cfg = replace(harness.ExperimentConfig(), num_prompts=3, max_new_tokens=16, use_tree=use_tree)
    family = harness.build_family(cfg)
    tracer = tracing.Tracer()
    tracer.install()
    seen = []
    try:
        for _ in ("cold", "warm"):
            tracer.spans, tracer.enabled = tracing.Spans(), True
            result = harness.run_experiment(cfg, family)
            tracer.enabled = False
            spans = tracer.spans
            seen.append({
                **{role: (spans.calls[f"models.{role}"], spans.counts[f"models.{role}.positions"])
                   for role in tracing.ROLES},
                "drafted": spans.counts["drafting.drafted"],
                "rounds": spans.counts["router.rounds"],
            })
            report = result.report
            assert seen[-1]["rounds"] == report.rounds
            assert [seen[-1][role][0] for role in tracing.ROLES] == [
                report.drafter_passes, report.proxy_passes, report.target_passes]
    finally:
        tracer.uninstall()
    assert not tracer.missing
    assert seen[0] == seen[1]
    assert seen[0]["drafted"] > 0
    # the warm run's rounds were all repeats: none verified afresh
    assert spans.calls["router.trusted_prefix_len"] == 0
