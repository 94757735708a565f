"""Acceptance gate: ten go/no-go criteria, one [PASS]/[FAIL] line each.

Each criterion prints its verdict to the real terminal (capture suspended)
so the gate is readable even inside a larger pytest run, then asserts it.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from trispec.baselines import chow_accept, confidence_filter_accept, topk_verify_accept
from trispec.core import RandomStream
from trispec.harness import (
    ExperimentConfig,
    derive_prompts,
    margin_eval_contexts,
    run_experiment,
)
from trispec.metrics import lemma_check, margin_histogram
from trispec.router import MarginRule, trispec_round
from trispec.suites import first_token_law, mc_first_token_distance, paired_equivalence
from trispec.verification import DecodeStreams, RoundCase, verify_chain


@pytest.fixture
def report(capfd):
    def _report(num: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[{status}] criterion {num:02d}: {detail}", flush=True)
        assert ok, f"criterion {num:02d}: {detail}"

    return _report


# shared headline runs: costs 1:5:90, lambda 0.5, sampled decoding
_HEADLINE = ExperimentConfig(
    method="trispec", lam=0.5, temperature=1.0, seed=3, max_new_tokens=48, num_prompts=12
)


@pytest.fixture(scope="module")
def headline_runs(ref_family):
    start = time.monotonic()
    tri = run_experiment(_HEADLINE, ref_family).report
    sd = run_experiment(replace(_HEADLINE, method="sd"), ref_family).report
    return tri, sd, time.monotonic() - start


@pytest.fixture(scope="module")
def greedy_rounds(ref_family):
    """Greedy ternary decode at lambda 0.5: every round's context and outcome."""
    fam = ref_family.fork()
    rule = MarginRule(0.5)
    prompts = derive_prompts(fam.held_tokens, fam.vocab, "char", 12, 0.5)
    rounds = []
    for idx, prompt in enumerate(prompts):
        streams = DecodeStreams.from_seed(21, scope=f"prompt{idx}")
        ctx = list(prompt)
        produced = 0
        while produced < 300:
            outcome = trispec_round(
                fam.drafter, fam.proxy, fam.target, tuple(ctx), 6, rule, 0.0, streams
            )
            rounds.append((tuple(ctx), outcome))
            ctx.extend(outcome.emitted)
            produced += len(outcome.emitted)
    return rounds


def test_criterion_01_lossless_first_token_law(report):
    start = time.monotonic()
    gen = np.random.Generator(np.random.PCG64(2026))
    worst = 0.0
    for i in range(50):
        size = 2 + i % 4
        p_d = np.array(gen.dirichlet(np.ones(size)))
        p_v = np.array(gen.dirichlet(np.ones(size)))
        worst = max(worst, first_token_law(p_d, p_v))
    # partial-overlap supports exercise the rejection-heavy corner
    worst = max(worst, first_token_law(np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.5])))
    worst = max(worst, first_token_law(np.array([0.1, 0.9, 0.0]), np.array([0.0, 0.1, 0.9])))
    mc = mc_first_token_distance(
        np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5]), rounds=100_000, seed=7
    )
    elapsed = time.monotonic() - start
    assert mc == pytest.approx(0.0039, abs=2e-4)
    ok = worst <= 1e-9 and mc <= 0.02 and elapsed <= 10.0
    report(
        1,
        ok,
        f"52 pairs analytic residual {worst:.2e} (<=1e-9), "
        f"MC L1 {mc:.4f} over 100000 rounds (<=0.02), {elapsed:.1f}s (<=10s)",
    )


def test_criterion_02_sentinel_thresholds_reduce_to_two_model_decodes(report, ref_family):
    start = time.monotonic()
    ok_hi, detail_hi = paired_equivalence(ref_family, 1.5, "target", 1.0, rounds=200, seed=3)
    ok_lo, detail_lo = paired_equivalence(ref_family, 0.0, "proxy", 1.0, rounds=200, seed=3)
    elapsed = time.monotonic() - start
    ok = ok_hi and ok_lo and elapsed <= 5.0
    report(
        2,
        ok,
        f"lambda>1 vs target-SD: {detail_hi}; lambda=0 vs proxy-SD: {detail_lo}; "
        f"{elapsed:.1f}s (<=5s)",
    )


def test_criterion_03_latency_decomposition_holds_everywhere(report, ref_family):
    small = ExperimentConfig(max_new_tokens=16, num_prompts=4, seed=1)
    matrix = []
    for temperature in (0.0, 1.0):
        matrix += [
            replace(small, method="target_only", temperature=temperature),
            replace(small, method="sd", sd_verifier="target", temperature=temperature),
            replace(small, method="sd", sd_verifier="proxy", temperature=temperature),
            replace(small, method="relax", relax_policy="chow", temperature=temperature),
            replace(small, method="trispec", lam=0.0, temperature=temperature),
            replace(small, method="trispec", lam=0.5, temperature=temperature),
            replace(small, method="trispec", lam=1.01, temperature=temperature),
        ]
    matrix += [
        replace(small, method="sd", use_tree=True),
        replace(small, method="trispec", lam=0.5, use_tree=True),
    ]
    worst = 0.0
    for cfg in matrix:
        rep = run_experiment(cfg, ref_family).report
        residual = lemma_check(rep)
        assert residual <= 1e-9 * max(rep.L, 1.0), cfg.method
        worst = max(worst, residual / max(rep.L, 1.0))
    report(3, True, f"{len(matrix)} runs, worst relative residual {worst:.2e} (<=1e-9)")


def test_criterion_04_target_calls_drop_under_the_ternary_protocol(report, headline_runs):
    tri, sd, elapsed = headline_runs
    assert tri.r_t == pytest.approx(0.2957, abs=1e-4)
    assert sd.r_t == pytest.approx(0.5383, abs=1e-4)
    ok = tri.r_t <= 0.6 * sd.r_t and elapsed <= 30.0
    report(
        4,
        ok,
        f"trispec r_t {tri.r_t:.4f} vs 0.6*sd {0.6 * sd.r_t:.4f} "
        f"(sd r_t {sd.r_t:.4f}), {elapsed:.1f}s (<=30s)",
    )


def test_criterion_05_speedup_ordering(report, headline_runs):
    tri, sd, _ = headline_runs
    assert tri.speedup == pytest.approx(2.7950, abs=1e-3)
    assert sd.speedup == pytest.approx(1.7415, abs=1e-3)
    ok = tri.speedup > sd.speedup > 1.0
    report(5, ok, f"speedup trispec {tri.speedup:.4f} > sd {sd.speedup:.4f} > 1.0")


def test_criterion_06_greedy_coins_are_argmax_agreement(report, ref_family, greedy_rounds):
    probe = ref_family.proxy.fork()
    checked = 0
    for ctx, outcome in greedy_rounds:
        dists = probe.batch_score(ctx, outcome.draft.tokens).rows
        for i, coin in enumerate(outcome.coins):
            want = 1 if outcome.draft.tokens[i] == dists[i].argmax() else 0
            assert coin == want
            checked += 1
    ok = len(greedy_rounds) >= 500
    report(
        6,
        ok,
        f"{len(greedy_rounds)} greedy rounds (>=500), {checked} coins all equal "
        f"the argmax-agreement indicator",
    )


def test_criterion_07_target_usage_rises_with_the_trust_threshold(report, ref_family):
    grid = (0.0, 0.25, 0.5, 0.75, 1.01)
    rates = []
    rounds = []
    for lam in grid:
        cfg = replace(_HEADLINE, lam=lam, max_new_tokens=96, num_prompts=16)
        rep = run_experiment(cfg, ref_family).report
        rates.append(rep.r_t)
        rounds.append(rep.rounds)
    assert min(rounds) >= 500
    expected = (0.0, 0.2136, 0.3034, 0.3965, 0.5493)
    for got, want in zip(rates, expected):
        assert got == pytest.approx(want, abs=1e-4)
    ok = all(b >= a for a, b in zip(rates, rates[1:]))
    report(
        7,
        ok,
        "r_t over lambda grid "
        + " -> ".join(f"{r:.4f}" for r in rates)
        + f" (rounds {min(rounds)}..{max(rounds)})",
    )


def test_criterion_08_low_margins_mark_proxy_target_disagreement(report, perturbed_family):
    contexts = margin_eval_contexts(perturbed_family.train_tokens, 12_000, 8)
    assert len(contexts) >= 10_000
    hist = margin_histogram(perturbed_family.proxy, perturbed_family.target, contexts, bins=20)
    mids, fracs = [], []
    for mid, match, mismatch in hist.to_rows():
        mass = match + mismatch
        if mass > 0:
            mids.append(mid)
            fracs.append(mismatch / mass)
    rho = spearmanr(mids, fracs).statistic
    assert len(mids) == 15
    assert rho == pytest.approx(-0.4330, abs=1e-3)
    assert fracs[0] == pytest.approx(0.1496, abs=1e-3)
    ok = rho < 0.0
    report(
        8,
        ok,
        f"{len(contexts)} contexts, {len(mids)} occupied bins, Spearman rho {rho:.4f} (<0), "
        f"lowest-margin mismatch fraction {fracs[0]:.4f}",
    )


def test_criterion_09_committed_tokens_survive_pruned_verification(report, ref_family, greedy_rounds):
    probe = ref_family.target.fork()
    escalated = [(c, o) for c, o in greedy_rounds if o.case is RoundCase.TARGET_ESCALATED]
    paired = 0
    for ctx, outcome in escalated:
        assert outcome.emitted[: outcome.tau_m] == outcome.draft.tokens[: outcome.tau_m]
        probe.batch_score(ctx, outcome.draft.tokens)
        trace = verify_chain(
            outcome.draft, probe.walk(), 0.0, RandomStream(0, "a"), RandomStream(0, "b")
        )
        if trace.tau >= outcome.tau_m:
            assert trace.emitted == outcome.emitted
            paired += 1
    ok = len(escalated) >= 200 and paired > 0
    report(
        9,
        ok,
        f"{len(escalated)} escalated rounds (>=200), no committed token retracted, "
        f"{paired} paired unpruned decodes agree",
    )


def test_criterion_10_relaxation_rules_match_their_exact_twins(report):
    gen = np.random.Generator(np.random.PCG64(77))
    coincide = 0
    for i in range(10_000):
        size = 2 + i % 4
        dist = np.array(gen.dirichlet(np.ones(size)))
        token = int(gen.integers(size))
        assert topk_verify_accept(dist, token, 1) == (token == dist.argmax())
        alpha = float(gen.uniform(0.01, 0.99))
        top = dist.argmax()
        if abs(dist[top] - (1.0 - alpha)) < 1e-9:
            continue  # the inclusive/strict boundary itself is out of scope
        assert chow_accept(dist, top, alpha) == confidence_filter_accept(dist, 1.0 - alpha)
        coincide += 1
    report(
        10,
        True,
        f"top-1 acceptance == greedy on 10000 draws; chow == confidence filter "
        f"at threshold 1-alpha on {coincide} off-boundary draws",
    )
