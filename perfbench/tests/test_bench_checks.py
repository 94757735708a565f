"""The output checks pass on real output and catch corrupted output."""

import copy
import json
from dataclasses import replace

import pytest

from perfbench import checks
from trispec.harness import (
    ExperimentConfig,
    build_family,
    derive_prompts,
    read_trace_csv,
    run_experiment,
    write_report_json,
    write_trace_csv,
)

SMALL = dict(num_prompts=3, max_new_tokens=12, k=6, temperature=0.0)


@pytest.fixture(scope="module")
def family():
    return build_family(ExperimentConfig())


def decode(family, tmp_path, **overrides):
    cfg = replace(ExperimentConfig(), **{**SMALL, **overrides})
    result = run_experiment(cfg, family)
    write_report_json(result, tmp_path / "report.json")
    write_trace_csv(result.records, tmp_path / "trace.csv")
    doc = json.loads((tmp_path / "report.json").read_text())
    return cfg, result, doc


def all_problems(family, cfg, result, doc, trace_path):
    records = read_trace_csv(trace_path)
    cont = result.continuations
    return checks.check_trace_and_cost(doc, records, cont, cfg.max_new_tokens) + (
        checks.check_greedy_replay(family.proxy, family.target, cont, records)
    )


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.01])
def test_real_greedy_output_passes(family, tmp_path, lam):
    cfg, result, doc = decode(family, tmp_path, lam=lam)
    assert all_problems(family, cfg, result, doc, tmp_path / "trace.csv") == []
    prompts = derive_prompts(family.held_tokens, family.vocab, "char", cfg.num_prompts, 0.5)
    assert checks.check_prompts(result.continuations, prompts) == []
    if lam > 1.0:
        assert checks.check_target_greedy(family.target, result.continuations) == []


def test_real_tree_output_passes(family, tmp_path):
    cfg, result, doc = decode(family, tmp_path, use_tree=True, lam=0.5, max_new_tokens=8)
    assert all_problems(family, cfg, result, doc, tmp_path / "trace.csv") == []


def corrupt_token(result, prompt_index, position):
    cont = copy.deepcopy(result.continuations)
    tokens = list(cont[prompt_index][1])
    tokens[position] = (tokens[position] + 1) % 10
    cont[prompt_index] = (cont[prompt_index][0], tokens)
    return cont


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.01])
def test_one_wrong_token_fails_the_greedy_replay(family, tmp_path, lam):
    cfg, result, doc = decode(family, tmp_path, lam=lam)
    records = read_trace_csv(tmp_path / "trace.csv")
    for p, position in ((0, 0), (1, 5), (2, cfg.max_new_tokens - 1)):
        bad = corrupt_token(result, p, position)
        assert checks.check_greedy_replay(family.proxy, family.target, bad, records)
        if lam > 1.0:
            assert checks.check_target_greedy(family.target, bad)


def test_one_wrong_token_fails_the_sentinel_comparison(family, tmp_path):
    _, result, _ = decode(family, tmp_path, lam=1.01)
    assert checks.check_same_continuations(result.continuations, result.continuations, "sd") == []
    bad = corrupt_token(result, 2, 3)
    assert checks.check_same_continuations(bad, result.continuations, "sd")


def rewrite_row(path, index, edit):
    lines = path.read_text().splitlines()
    header = 2  # schema line and column line
    fields = lines[header + index].split(",")
    edit(fields)
    lines[header + index] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_tampered_trace_rows_fail_the_arithmetic(family, tmp_path):
    cfg, result, doc = decode(family, tmp_path, lam=0.5)
    trace = tmp_path / "trace.csv"
    pristine = trace.read_text()
    records = read_trace_csv(trace)
    escalated = next(i for i, r in enumerate(records) if r.case == "TargetEscalated")

    def one_more_target_token(fields):  # still a well-formed escalated row
        fields[5] = str(int(fields[5]) + 1)
        fields[6] = str(int(fields[6]) + 1)

    def cheaper_round(fields):
        fields[9] = repr(float(fields[9]) - 90.0)

    def drop_row(path):
        lines = path.read_text().splitlines()
        del lines[2 + escalated]
        path.write_text("\n".join(lines) + "\n")

    for tamper in (
        lambda: rewrite_row(trace, escalated, one_more_target_token),
        lambda: rewrite_row(trace, escalated, cheaper_round),
        lambda: drop_row(trace),
    ):
        trace.write_text(pristine)
        tamper()
        assert all_problems(family, cfg, result, doc, trace)


def test_a_ledger_off_by_one_pass_fails_the_cost_check(family, tmp_path):
    cfg, result, doc = decode(family, tmp_path, lam=0.5)
    records = read_trace_csv(tmp_path / "trace.csv")
    cont = result.continuations
    assert checks.check_trace_and_cost(doc, records, cont, cfg.max_new_tokens) == []
    for key in ("drafter_passes", "proxy_passes", "target_passes"):
        bad = copy.deepcopy(doc)
        bad["report"][key] += 1
        assert checks.check_trace_and_cost(bad, records, cont, cfg.max_new_tokens)
    bad = copy.deepcopy(doc)
    bad["report"]["L"] += bad["report"]["cost_model"]["c_d"]
    assert checks.check_trace_and_cost(bad, records, cont, cfg.max_new_tokens)
    bad = copy.deepcopy(doc)
    bad["report"]["speedup"] *= 1.001
    assert checks.check_trace_and_cost(bad, records, cont, cfg.max_new_tokens)


def test_other_prompts_are_caught(family, tmp_path):
    _, result, _ = decode(family, tmp_path, lam=0.5)
    prompts = [p for p, _ in result.continuations]
    assert checks.check_prompts(result.continuations, prompts) == []
    assert checks.check_prompts(result.continuations, prompts[::-1])
