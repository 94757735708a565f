"""Built-in verification suites.

Four check groups, each reporting one pass/fail line through the CLI:

* ``lossless``   -- the emitted-token law of draft-then-verify sampling,
                    checked analytically and by Monte Carlo.
* ``equivalence``-- threshold sentinels collapse the ternary round onto
                    plain two-model rounds, token for token.
* ``lemma``      -- the latency decomposition identity on a real run.
* ``invariants`` -- greedy coin reduction, routing arithmetic, tree mask
                    closure, and bit-for-bit rerun determinism.

These run fast (a few seconds); the test suite repeats them at larger
sample sizes and tighter budgets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import Distribution, Vocabulary, apply_temperature, normalize
from .drafting import draft_chain, draft_tree
from .harness import (
    ConfigError,
    ExperimentConfig,
    Family,
    build_family,
    derive_prompts,
    run_experiment,
    validate_trace_records,
)
from .metrics import lemma_check
from .models import TableModel
from .router import MarginRule, trispec_round
from .verification import DecodeStreams, sd_round, verify_chain

__all__ = [
    "CheckResult",
    "first_token_law",
    "mc_first_token_distance",
    "paired_equivalence",
    "verify_suite",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def first_token_law(p_d: np.ndarray, p_v: np.ndarray) -> float:
    """L1 gap between the implied first-token law and the verifier.

    Accepting with probability min(1, p_v/p_d) and re-drawing rejections
    from the normalized excess norm(max(0, p_v - p_d)) makes the emitted
    token exactly verifier-distributed; the overlap and the excess split
    the verifier's mass with no remainder. Returns 0 up to float noise.
    """
    overlap = np.minimum(p_d, p_v)
    excess = np.maximum(p_v - p_d, 0.0)
    reject_mass = 1.0 - float(overlap.sum())
    if reject_mass > 0.0:
        implied = overlap + reject_mass * (excess / float(excess.sum()))
    else:
        implied = overlap
    return float(np.abs(implied - p_v).sum())


def mc_first_token_distance(p_d: np.ndarray, p_v: np.ndarray, rounds: int, seed: int) -> float:
    """Empirical L1 distance of the first emitted token from the verifier.

    Drives the production single-position verify path end to end on a
    drafter and a verifier whose only row is ``p_d`` and ``p_v``: each
    round drafts a token (``draft_chain``), scores it in one verifier pass,
    and verifies it on the verifier's walk: the acceptance coin, then the
    residual (or bonus) correction on rejection (or full acceptance).
    """
    streams = DecodeStreams.from_seed(seed, scope="mc")
    vocab = Vocabulary(len(p_d))
    drafter = TableModel(vocab, {}, default=Distribution(p_d))
    verifier = TableModel(vocab, {}, default=Distribution(p_v))
    counts = np.zeros(len(p_d), dtype=np.int64)
    for _ in range(rounds):
        draft = draft_chain(drafter, (), 1, 1.0, streams.draft)
        walk = verifier.batch_score((), draft.tokens)
        verdict = verify_chain(draft, walk, 1.0, streams.target_coins, streams.correction)
        counts[verdict.emitted[0]] += 1
    empirical = counts / counts.sum()
    return float(np.abs(empirical - p_v).sum())


def _random_pair(gen: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    p = normalize(gen.random(size) + 0.01)
    q = normalize(gen.random(size) + 0.01)
    return p, q


def _check_lossless() -> CheckResult:
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7])))
    worst = 0.0
    for _ in range(50):
        size = int(gen.integers(2, 6))
        p_d, p_v = _random_pair(gen, size)
        worst = max(worst, first_token_law(p_d, p_v))
    # sparse supports exercise the zero branches of the residual
    worst = max(worst, first_token_law(normalize([0.7, 0.3, 0.0]), normalize([0.0, 0.4, 0.6])))
    worst = max(worst, first_token_law(normalize([0.5, 0.5]), normalize([0.5, 0.5])))
    if worst > 1e-9:
        return CheckResult("lossless", False, f"analytic identity residual {worst:.3e}")
    p_d, p_v = _random_pair(gen, 4)
    dist = mc_first_token_distance(p_d, p_v, rounds=30_000, seed=11)
    ok = dist <= 0.05
    return CheckResult(
        "lossless", ok, f"analytic residual {worst:.1e}, MC L1 {dist:.4f} over 30000 rounds"
    )


def _default_family() -> Family:
    return build_family(ExperimentConfig())


def paired_equivalence(
    family: Family,
    lam: float,
    verifier_role: str,
    temperature: float,
    rounds: int,
    seed: int,
    k: int = 6,
) -> tuple[bool, str]:
    """Step a ternary decode and a two-model decode in lockstep.

    With a never-trust threshold every round escalates with an empty
    committed prefix, which must reproduce target-verified rounds exactly;
    with an always-trust threshold no round escalates, reproducing
    proxy-verified rounds. Identical labeled streams make the comparison
    exact, not statistical.
    """
    apply_temperature(None, temperature)
    fam_a = family.fork()
    fam_b = family.fork()
    rule = MarginRule(lam)
    prompts = derive_prompts(family.held_tokens, family.vocab, "char", 8, 0.5)
    done = 0
    for idx, prompt in enumerate(prompts):
        streams_a = DecodeStreams.from_seed(seed, scope=f"eq{idx}")
        streams_b = DecodeStreams.from_seed(seed, scope=f"eq{idx}")
        ctx = list(prompt)
        budget = len(prompt) + 220
        while done < rounds and len(ctx) < budget:
            outcome = trispec_round(
                fam_a.drafter, fam_a.proxy, fam_a.target, ctx, k, rule, temperature, streams_a
            )
            verifier = fam_b.target if verifier_role == "target" else fam_b.proxy
            result = sd_round(
                fam_b.drafter, verifier, ctx, k, temperature, streams_b, verifier_role
            )
            if outcome.emitted != result.emitted:
                return False, (
                    f"round {done} diverged: ternary {outcome.emitted} vs "
                    f"{verifier_role}-verified {result.emitted}"
                )
            ctx.extend(outcome.emitted)
            done += 1
        if done >= rounds:
            break
    if done < rounds:
        return False, f"only {done} of {rounds} rounds fit the prompt budget"
    return True, f"{done} rounds token-identical"


def _check_equivalence() -> CheckResult:
    family = _default_family()
    for lam, role in ((1.5, "target"), (0.0, "proxy")):
        for temperature in (0.0, 1.0):
            ok, detail = paired_equivalence(family, lam, role, temperature, rounds=60, seed=3)
            if not ok:
                return CheckResult(
                    "equivalence", False, f"lam={lam} T={temperature:g} vs {role}: {detail}"
                )
    return CheckResult(
        "equivalence", True, "sentinel thresholds reproduce both two-model decodes (60 rounds each)"
    )


def _check_lemma() -> CheckResult:
    cfg = replace(ExperimentConfig(), method="trispec", max_new_tokens=32, num_prompts=6)
    result = run_experiment(cfg)
    residual = lemma_check(result.report)
    bound = 1e-9 * max(result.report.L, 1.0)
    ok = residual <= bound
    return CheckResult("lemma", ok, f"decomposition residual {residual:.3e} (bound {bound:.1e})")


def _greedy_coin_reduction(family: Family, rounds: int, seed: int) -> tuple[bool, str]:
    fam = family.fork()
    probe = family.proxy.fork()
    rule = MarginRule(0.5)
    prompts = derive_prompts(family.held_tokens, family.vocab, "char", 6, 0.5)
    done = 0
    for idx, prompt in enumerate(prompts):
        streams = DecodeStreams.from_seed(seed, scope=f"coin{idx}")
        ctx = list(prompt)
        while done < rounds and len(ctx) < len(prompt) + 160:
            outcome = trispec_round(
                fam.drafter, fam.proxy, fam.target, ctx, 6, rule, 0.0, streams
            )
            assert outcome.draft is not None
            rows = probe.batch_score(tuple(ctx), outcome.draft.tokens).rows
            expected = []
            for pos, token in enumerate(outcome.draft.tokens):
                expected.append(1 if rows[pos].argmax() == token else 0)
                if not expected[-1]:
                    break
            if tuple(expected) != outcome.coins:
                return False, (
                    f"round {done}: coins {outcome.coins} != argmax-match {tuple(expected)}"
                )
            ctx.extend(outcome.emitted)
            done += 1
        if done >= rounds:
            break
    return done >= rounds, f"{done} greedy rounds, coins = exact argmax agreement"


def _check_invariants() -> CheckResult:
    family = _default_family()

    ok, detail = _greedy_coin_reduction(family, rounds=40, seed=5)
    if not ok:
        return CheckResult("invariants", False, f"greedy coin reduction: {detail}")

    cfg = replace(ExperimentConfig(), method="trispec", max_new_tokens=24, num_prompts=4, seed=9)
    result = run_experiment(cfg, family)
    try:
        validate_trace_records(result.records)
    except ValueError as exc:
        return CheckResult("invariants", False, f"routing arithmetic: {exc}")

    tree = draft_tree(family.drafter.fork(), tuple(family.held_tokens[:8]), 4, 3, 20)
    tree.validate()
    mask = tree.mask.astype(np.int64)
    if len(tree) and not np.array_equal((mask @ mask) > 0, tree.mask):
        return CheckResult("invariants", False, "tree mask is not transitively closed")

    rerun = run_experiment(cfg, family)
    blob_a = json.dumps(result.to_dict(), sort_keys=True)
    blob_b = json.dumps(rerun.to_dict(), sort_keys=True)
    if blob_a != blob_b or result.records != rerun.records:
        return CheckResult("invariants", False, "identical configs produced different reports")

    return CheckResult(
        "invariants", True, "coin reduction, routing arithmetic, mask closure, determinism"
    )


_CHECKS: dict[str, Callable[[], CheckResult]] = {
    "lossless": _check_lossless,
    "equivalence": _check_equivalence,
    "lemma": _check_lemma,
    "invariants": _check_invariants,
}


def verify_suite(names: Sequence[str] | None = None) -> list[CheckResult]:
    """Run the named checks (all four by default) and collect results."""
    selected = list(names) if names else list(_CHECKS)
    unknown = [n for n in selected if n not in _CHECKS]
    if unknown:
        raise ConfigError(f"unknown check(s): {', '.join(unknown)}; have {', '.join(_CHECKS)}")
    return [_CHECKS[name]() for name in selected]
