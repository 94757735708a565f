"""Ternary routing: margin gating, the two round cases, tree rounds."""

import numpy as np
import pytest

from trispec.core import Distribution, RandomStream, Vocabulary
from trispec.drafting import DraftChain
from trispec.models import TableModel, Walk
from trispec.router import (
    MarginRule,
    TreeParams,
    pruned_target_verify,
    trispec_round,
    trispec_tree_round,
    trusted_prefix_len,
)
from trispec.verification import (
    DecodeStreams,
    Round,
    RoundCase,
    sd_round,
    sd_tree_round,
    verify_chain,
    verify_tree_greedy,
)
from trispec.drafting import draft_tree


class FixedUniforms:
    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def uniform(self):
        self.draws += 1
        return self.values.pop(0)


V2 = Vocabulary(2)


def _const(probs, vocab=None):
    return TableModel(vocab or Vocabulary(len(probs)), {}, default=Distribution(probs))


# ---------------------------------------------------------------------------
# the margin gate
# ---------------------------------------------------------------------------


def test_trusted_prefix_stops_at_first_weak_margin():
    walk = Walk.of_rows(np.array([
        [0.95, 0.05],
        [0.95, 0.05],
        [0.55, 0.45],
        [0.95, 0.05],
    ]))
    assert trusted_prefix_len(walk, MarginRule(0.5)) == 2
    assert trusted_prefix_len(walk, MarginRule(0.0)) == 4
    assert trusted_prefix_len(walk, MarginRule(1.01)) == 0


def test_margin_rule_boundary_cases():
    one_hot = np.array([1.0, 0.0])
    assert MarginRule(1.0).trusted(one_hot)  # margin exactly 1.0
    assert not MarginRule(1.01).trusted(one_hot)
    assert MarginRule(0.5).trusted(np.array([0.75, 0.25]))


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_margin_rule_refuses_nan_and_keeps_the_infinite_sentinels(lam):
    """NaN fails every comparison, so it would silently trust nothing; the
    infinities are the never- and always-trust sentinels."""
    if lam != lam:
        with pytest.raises(ValueError):
            MarginRule(lam)
        return
    one_hot = np.array([1.0, 0.0])
    assert bool(MarginRule(lam).trusted(one_hot)) == (lam < 0)


# ---------------------------------------------------------------------------
# case I: the proxy resolves the round locally
# ---------------------------------------------------------------------------


def test_proxy_only_round_never_calls_target():
    drafter = _const([0.9, 0.1])
    proxy = _const([0.05, 0.95])
    target = _const([0.5, 0.5])
    streams = DecodeStreams.from_seed(2)
    out = trispec_round(drafter, proxy, target, (), 3, MarginRule(0.5), 0.0, streams)
    assert out.case is RoundCase.PROXY_ONLY
    assert out.tau_a == 0 and out.tau_m == 4  # confident disagreement everywhere
    assert out.emitted == (1,)  # residual of one-hots lands on the proxy argmax
    assert out.coins == (0,)
    assert not out.target_called
    assert target.invocation_count == 0
    assert out.passes == (3, 1, 0)
    assert not out.correction_is_bonus
    assert out.tau_t is None


# ---------------------------------------------------------------------------
# case II: commit the trusted prefix, escalate the rest
# ---------------------------------------------------------------------------


def test_escalated_round_commits_prefix_and_verifies_suffix():
    drafter = _const([0.9, 0.1])
    proxy = TableModel(
        V2,
        {(0, 0): Distribution([0.55, 0.45])},  # weak margin once two zeros accrue
        default=Distribution([0.9, 0.1]),
    )
    target = _const([0.9, 0.1])
    streams = DecodeStreams.from_seed(2)
    out = trispec_round(drafter, proxy, target, (1,), 6, MarginRule(0.5), 0.0, streams)
    assert out.case is RoundCase.TARGET_ESCALATED
    assert out.tau_a == 6  # proxy argmax agrees with the draft everywhere
    assert out.tau_m == 2  # trust dies at the third position
    assert out.tau_t == 4
    assert out.emitted == (0,) * 6 + (0,)
    assert out.margins[2] == pytest.approx(0.1)
    assert out.target_called and out.passes[2] == 1
    assert out.correction_is_bonus


def test_fully_trusted_draft_still_buys_one_target_bonus():
    drafter = _const([0.9, 0.1])
    proxy = TableModel(
        V2,
        {(0,) * 6: Distribution([0.55, 0.45])},  # weak only at position k+1
        default=Distribution([0.9, 0.1]),
    )
    target = _const([0.8, 0.2])
    streams = DecodeStreams.from_seed(2)
    out = trispec_round(drafter, proxy, target, (1,), 6, MarginRule(0.5), 0.0, streams)
    assert out.case is RoundCase.TARGET_ESCALATED
    assert out.tau_m == 6 and out.tau_a == 6
    assert out.tau_t == 0  # nothing left to verify, the pass is pure bonus
    assert out.correction_is_bonus
    assert out.emitted == (0,) * 6 + (0,)
    assert out.passes[2] == 1


# ---------------------------------------------------------------------------
# sentinel thresholds reduce to the two standard protocols
# ---------------------------------------------------------------------------


def _assert_lockstep(family, lam, role, temperature, rounds=12, seed=11):
    fam_a, fam_b = family.fork(), family.fork()
    ctx_a = list(family.train_tokens[:16])
    ctx_b = list(ctx_a)
    sa = DecodeStreams.from_seed(seed, "lock")
    sb = DecodeStreams.from_seed(seed, "lock")
    rule = MarginRule(lam)
    for _ in range(rounds):
        out = trispec_round(
            fam_a.drafter, fam_a.proxy, fam_a.target, ctx_a, 6, rule, temperature, sa
        )
        verifier = fam_b.target if role == "target" else fam_b.proxy
        res = sd_round(fam_b.drafter, verifier, ctx_b, 6, temperature, sb, verifier_role=role)
        assert out.emitted == res.emitted
        ctx_a.extend(out.emitted)
        ctx_b.extend(res.emitted)


def test_never_trust_sentinel_is_target_verified_sd(ref_family):
    _assert_lockstep(ref_family, 1.01, "target", 1.0)


def test_always_trust_sentinel_is_proxy_verified_sd(ref_family):
    _assert_lockstep(ref_family, 0.0, "proxy", 1.0)


# ---------------------------------------------------------------------------
# pruned target verification
# ---------------------------------------------------------------------------


def test_pruned_verify_rejects_out_of_range_commit():
    draft = DraftChain.of_rows((0,), [[0.5, 0.5]])
    target = _const([0.5, 0.5])
    for bad in (-1, 2):
        with pytest.raises(ValueError):
            pruned_target_verify(draft, bad, target, (), 0.0, FixedUniforms([]), FixedUniforms([]))


def test_pruned_verify_with_empty_commit_is_plain_verification():
    half = [0.5, 0.5]
    draft = DraftChain.of_rows((1, 0, 1), [half, half, half])
    target = TableModel(V2, {(1,): Distribution([0.2, 0.8])}, default=Distribution([0.7, 0.3]))
    dists = target.fork().batch_score((), draft.tokens).rows
    coins = [0.4, 0.4, 0.4]
    want = verify_chain(draft, Walk.of_rows(dists), 1.0, FixedUniforms(coins), FixedUniforms([0.5]))
    got = pruned_target_verify(
        draft, 0, target, (), 1.0, FixedUniforms(coins), FixedUniforms([0.5])
    )
    assert got[:3] == want[:3]  # emitted, coins, is_bonus
    assert np.array_equal(got.walk.rows, want.walk.rows)


def test_pruned_verify_conditions_on_the_committed_prefix():
    half = [0.5, 0.5]
    draft = DraftChain.of_rows((1, 0), [half, half])
    target = TableModel(V2, {(1,): Distribution([0.1, 0.9])}, default=Distribution([0.9, 0.1]))
    committed = pruned_target_verify(
        draft, 1, target.fork(), (), 0.0, FixedUniforms([]), FixedUniforms([])
    )
    # after the committed 1, the target wants another 1, so the drafted 0 dies
    assert committed.coins == (0,) and committed.tau == 0
    assert committed.emitted == (1,)
    fresh = pruned_target_verify(
        draft, 0, target.fork(), (), 0.0, FixedUniforms([]), FixedUniforms([])
    )
    # with nothing committed the default row wants 0, so the drafted 1 dies
    assert fresh.coins == (0,) and fresh.emitted == (0,)


# ---------------------------------------------------------------------------
# outcome postconditions
# ---------------------------------------------------------------------------


def _outcome(**overrides):
    fields = dict(
        case=RoundCase.PROXY_ONLY,
        tau_a=0,
        tau_m=2,
        tau_t=None,
        emitted=(1,),
        passes=(3, 1, 0),
        coins=(0,),
        margins=(0.9,),
        correction_is_bonus=False,
    )
    fields.update(overrides)
    return Round(**fields)


def test_outcome_validation_catches_protocol_violations():
    _outcome().validate()  # the baseline fixture itself is consistent
    with pytest.raises(ValueError):
        _outcome(tau_a=2).validate()  # proxy-only needs tau_a < tau_m
    with pytest.raises(ValueError):
        _outcome(passes=(3, 1, 1)).validate()
    with pytest.raises(ValueError):
        _outcome(emitted=(1, 1)).validate()
    with pytest.raises(ValueError):
        _outcome(passes=(3, 0, 0)).validate()
    with pytest.raises(ValueError):
        _outcome(case=RoundCase.TARGET_ESCALATED, tau_a=1, tau_m=2, tau_t=1,
                 passes=(3, 1, 1), emitted=(0, 0, 0, 0)).validate()
    with pytest.raises(ValueError):
        _outcome(case=RoundCase.TARGET_ESCALATED, tau_a=2, tau_m=2, tau_t=None).validate()
    with pytest.raises(ValueError):  # the same rule checks trace rows, SD's among them
        _outcome(case=RoundCase.SD, tau_a=-4, tau_m=None, passes=(3, 0, 1)).validate()
    ok = _outcome(case=RoundCase.TARGET_ESCALATED, tau_a=2, tau_m=1, tau_t=1,
                  passes=(3, 1, 1), emitted=(0, 0, 0))
    ok.validate()


# ---------------------------------------------------------------------------
# the raw-bonus correction variant
# ---------------------------------------------------------------------------


def _raw_bonus_setup():
    drafter = _const([0.5, 0.3, 0.2])
    proxy = _const([0.2, 0.42, 0.38])
    target = _const([1 / 3, 1 / 3, 1 / 3])
    streams = DecodeStreams(
        draft=FixedUniforms([0.1, 0.1]),     # drafts token 0 twice
        proxy_coins=FixedUniforms([0.9]),     # 0.9 >= ratio 0.4: reject at once
        target_coins=FixedUniforms([]),
        correction=FixedUniforms([0.5]),
    )
    return drafter, proxy, target, streams


def test_residual_and_raw_bonus_corrections_differ():
    rule = MarginRule(0.02)  # margin 0.04 everywhere: fully trusted
    drafter, proxy, target, streams = _raw_bonus_setup()
    out = trispec_round(drafter, proxy, target, (), 2, rule, 1.0, streams)
    assert out.case is RoundCase.PROXY_ONLY and out.tau_a == 0
    assert out.emitted == (2,)  # residual [0, .4, .6] puts u=0.5 on token 2

    drafter, proxy, target, streams = _raw_bonus_setup()
    out = trispec_round(drafter, proxy, target, (), 2, rule, 1.0, streams, raw_bonus=True)
    assert out.emitted == (1,)  # same coin drawn straight from the proxy dist
    assert not out.correction_is_bonus


# ---------------------------------------------------------------------------
# tree rounds
# ---------------------------------------------------------------------------

SMALL_TREE = TreeParams(depth=4, branch_topk=3, budget=12)


def test_tree_round_sentinels_match_tree_sd(ref_family):
    ctx = tuple(ref_family.train_tokens[:12])
    p = SMALL_TREE

    fam = ref_family.fork()
    out = trispec_tree_round(fam.drafter, fam.proxy, fam.target, ctx, p, MarginRule(0.0))
    twin = ref_family.fork()
    sd = sd_tree_round(twin.drafter, twin.proxy, ctx, p, "proxy")
    assert out.case is RoundCase.PROXY_ONLY
    assert out.emitted == sd.emitted
    assert out.coins == (1,) * out.tau_a

    fam = ref_family.fork()
    out = trispec_tree_round(fam.drafter, fam.proxy, fam.target, ctx, p, MarginRule(1.01))
    twin = ref_family.fork()
    sd = sd_tree_round(twin.drafter, twin.target, ctx, p)
    assert out.case is RoundCase.TARGET_ESCALATED and out.tau_m == 0
    assert out.emitted == sd.emitted
    assert out.passes[2] == 1


def test_tree_round_commits_the_trusted_proxy_prefix(ref_family):
    ctx = list(ref_family.train_tokens[:12])
    rule = MarginRule(0.5)
    seen = set()
    for _ in range(15):
        fam = ref_family.fork()
        out = trispec_tree_round(fam.drafter, fam.proxy, fam.target, ctx, SMALL_TREE, rule)
        seen.add(out.case)
        assert len(out.margins) == out.tau_a + 1
        assert out.coins == (1,) * out.tau_a
        # recompute the proxy walk independently: the committed prefix must
        # be exactly its first tau_m tokens
        probe_tree = draft_tree(
            ref_family.drafter.fork(), tuple(ctx),
            SMALL_TREE.depth, SMALL_TREE.branch_topk, SMALL_TREE.budget,
        )
        probe = verify_tree_greedy(probe_tree, ref_family.proxy.fork())
        assert out.tau_a == probe.tau
        if out.case is RoundCase.TARGET_ESCALATED:
            assert out.emitted[: out.tau_m] == probe.emitted[: out.tau_m]
        else:
            assert out.emitted == probe.emitted
        ctx.extend(out.emitted)
    assert seen  # at least one round ran; both cases appear on this corpus


def test_tree_round_counts_one_proxy_and_at_most_one_target_pass(ref_family):
    fam = ref_family.fork()
    ctx = tuple(fam.train_tokens[:12])
    out = trispec_tree_round(fam.drafter, fam.proxy, fam.target, ctx, SMALL_TREE, MarginRule(0.5))
    drafter_passes, proxy_passes, target_passes = out.passes
    assert proxy_passes == 1
    assert target_passes == (1 if out.case is RoundCase.TARGET_ESCALATED else 0)
    assert drafter_passes <= SMALL_TREE.depth
