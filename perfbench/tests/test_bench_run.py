"""The tracer leaves decoding unchanged and counts what the program counts;
a whole run reports every metric and survives a vanished name."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import trispec
from perfbench import bench, tracing
from perfbench.workloads import WORKLOADS
from trispec import harness, router
from trispec.harness import ExperimentConfig, build_family, run_experiment

TINY = dict(num_prompts=2, max_new_tokens=8)


@pytest.fixture(scope="module")
def family():
    return build_family(ExperimentConfig())


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


@pytest.mark.parametrize("use_tree", [False, True])
def test_traced_decode_is_unchanged_and_counts_match(family, tracer, use_tree):
    cfg = replace(ExperimentConfig(), lam=0.5, use_tree=use_tree, **TINY)
    tracer.enabled = False
    plain = run_experiment(cfg, family)
    tracer.enabled = True
    traced = harness.run_experiment(cfg, family)
    tracer.enabled = False
    assert traced.to_dict() == plain.to_dict()
    assert traced.continuations == plain.continuations
    report = traced.report
    for role in tracing.ROLES:
        assert tracer.spans.calls[f"models.{role}"] == getattr(report, f"{role}_passes")
    assert tracer.spans.counts["router.rounds"] == report.rounds
    assert tracer.spans.counts["router.emitted"] == report.N
    for case, n in report.case_counts.items():
        assert tracer.spans.counts[f"router.case.{case}"] == n
    assert tracer.spans.calls["harness.run_experiment"] == 1


def test_names_are_patched_where_they_are_looked_up(tracer):
    assert harness.trispec_round is router.trispec_round
    assert router.draft_chain.__wrapped__ is trispec.drafting.draft_chain.__wrapped__
    assert trispec.run_experiment is harness.run_experiment
    assert hasattr(harness.run_experiment, "__wrapped__")


def test_uninstall_restores_every_name():
    before = (harness.run_experiment, router.draft_chain, trispec.core.Distribution.__init__)
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    after = (harness.run_experiment, router.draft_chain, trispec.core.Distribution.__init__)
    assert after == before


@pytest.fixture
def tiny_workload(monkeypatch):
    base = WORKLOADS["greedy-chain"]
    tiny = replace(
        base, name="tiny", overrides={**base.overrides, **TINY}, groups=2, lams=(0.0, 1.01)
    )
    monkeypatch.setitem(WORKLOADS, "tiny", tiny)
    return tiny


def test_untraced_run_reports_every_end_to_end_metric(tiny_workload, tmp_path):
    result = bench.run("tiny", seed=3, seconds=0.01, trace=False, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    per_pass = len(tiny_workload.lams) * tiny_workload.groups
    assert result["attempted"] == per_pass * (1 + bench.MIN_TIMED_PASSES)
    assert set(result["metrics"]) == {
        "tokens_per_ref", "setup_s", "peak_rss_mb",
        "r_t", "speedup_model", "continuation_ppl",
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_runs_report_the_metrics_benchmark_json_names(tiny_workload, tmp_path):
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = bench.run("tiny", seed=3, seconds=0.01, trace=trace, workdir=tmp_path)
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }


def test_a_vanished_name_drops_its_layer_metric_only(tiny_workload, tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (("prune", "drafting", "gone_name"),))
    result = bench.run("tiny", seed=3, seconds=0.01, trace=True, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert "drafting.prune_us_per_round" not in result["metrics"]
    assert "router.proxy_only_rounds" in result["metrics"]
    assert result["metrics"]["models.target.passes_per_token"]["value"] > 0
    assert harness.run_experiment is run_experiment  # uninstalled after the run


def test_a_request_that_raises_is_counted_failed(tiny_workload, tmp_path, monkeypatch):
    real = harness.write_trace_csv

    def failing(records, path):
        if "-lambda0-" in records[0].run_id:
            raise OSError("disk full")
        real(records, path)

    monkeypatch.setattr(harness, "write_trace_csv", failing)
    result = bench.run("tiny", seed=3, seconds=0.01, trace=False, workdir=tmp_path)
    assert result["correct"]
    assert result["failed"] * 2 == result["attempted"]
