"""Relaxed acceptance rules and alternative routing signals."""

import numpy as np
import pytest

from trispec.core import RandomStream
from trispec.baselines import (
    RelaxPolicy,
    RoutingSignal,
    chow_accept,
    confidence_filter_accept,
    relaxed_sd_round,
    routing_signal_eval,
    token_specific_accept,
    topk_verify_accept,
    )
from trispec.router import MarginRule
from trispec.verification import DecodeStreams, sd_round


# ---------------------------------------------------------------------------
# the four rules, at their boundaries
# ---------------------------------------------------------------------------


def test_chow_accepts_at_its_threshold_inclusively():
    dist = np.array([0.95, 0.05])
    assert chow_accept(dist, 0, alpha=0.05)
    assert not chow_accept(np.array([0.9499, 0.0501]), 0, alpha=0.05)
    assert not chow_accept(dist, 1, alpha=0.05)  # confidence is token-specific
    assert chow_accept(dist, 1, alpha=1.0)  # alpha=1 accepts anything


def test_confidence_filter_is_strict():
    assert not confidence_filter_accept(np.array([0.95, 0.05]), 0.95)
    assert confidence_filter_accept(np.array([0.9501, 0.0499]), 0.95)


def test_chow_and_filter_coincide_off_the_boundary():
    alpha = 0.05
    for peak in (0.3, 0.7, 0.9, 0.96, 0.99):
        dist = np.array([peak, 1.0 - peak])
        token = dist.argmax()
        if dist[token] != 1.0 - alpha:  # the boundary is the known split
            assert chow_accept(dist, token, alpha) == confidence_filter_accept(dist, 1.0 - alpha)


def test_token_specific_scales_with_the_peak():
    dist = np.array([0.5, 0.4, 0.1])
    assert token_specific_accept(dist, 0, alpha=0.05)
    assert not token_specific_accept(dist, 1, alpha=0.05)  # 0.4 < 0.95 * 0.5
    assert token_specific_accept(dist, 1, alpha=0.25)  # 0.4 >= 0.75 * 0.5
    assert not token_specific_accept(dist, 2, alpha=0.25)


def test_topk_membership_and_tie_breaking():
    tied = np.array([0.4, 0.4, 0.2])
    assert topk_verify_accept(tied, 0, k=1)  # tie resolves to the lower index
    assert not topk_verify_accept(tied, 1, k=1)
    assert topk_verify_accept(tied, 1, k=2)
    assert not topk_verify_accept(tied, 2, k=2)
    with pytest.raises(ValueError):
        topk_verify_accept(tied, 0, k=0)


def test_topk_one_is_exactly_greedy():
    rng = np.random.default_rng(17)
    for _ in range(200):
        dist = np.array(rng.dirichlet(np.ones(int(rng.integers(2, 6)))))
        for token in range(len(dist)):
            assert topk_verify_accept(dist, token, 1) == (token == dist.argmax())


# ---------------------------------------------------------------------------
# policy objects
# ---------------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        RelaxPolicy("soft_accept")
    with pytest.raises(ValueError):
        RelaxPolicy("chow", alpha=1.5)
    with pytest.raises(ValueError):
        RelaxPolicy("confidence_filter", threshold=-0.1)
    with pytest.raises(ValueError):
        RelaxPolicy("topk", k=0)


def test_policy_deferral_semantics():
    half = np.array([0.5, 0.5])
    sure = np.array([0.97, 0.03])
    # bypass rules answer True or defer with None
    assert RelaxPolicy("chow", alpha=0.05).decide(sure, half, 0) is True
    assert RelaxPolicy("chow", alpha=0.05).decide(half, sure, 0) is None
    assert RelaxPolicy("confidence_filter", threshold=0.95).decide(sure, half, 1) is True
    assert RelaxPolicy("confidence_filter", threshold=0.95).decide(half, sure, 1) is None
    # replacement rules always answer
    assert RelaxPolicy("token_specific", alpha=0.05).decide(half, sure, 0) is True
    assert RelaxPolicy("token_specific", alpha=0.05).decide(half, sure, 1) is False
    assert RelaxPolicy("topk", k=1).decide(half, sure, 0) is True
    assert RelaxPolicy("topk", k=1).decide(half, sure, 1) is False


# ---------------------------------------------------------------------------
# relaxed rounds
# ---------------------------------------------------------------------------


def test_chow_alpha_one_accepts_every_draft(ref_family):
    fam = ref_family.fork()
    ctx = list(fam.train_tokens[:10])
    streams = DecodeStreams.from_seed(6, "relax")
    for _ in range(10):
        result = relaxed_sd_round(
            fam.drafter, fam.target, ctx, 5, RelaxPolicy("chow", alpha=1.0), 1.0, streams
        )
        assert result.tau_a == 5
        assert result.correction_is_bonus
        assert result.passes == (5, 0, 1)  # relaxation never skips the target pass
        ctx.extend(result.emitted)


def test_topk_one_round_matches_standard_greedy_round(ref_family):
    fam = ref_family.fork()
    twin = ref_family.fork()
    ctx = list(ref_family.train_tokens[:10])
    ctx2 = list(ctx)
    sa = DecodeStreams.from_seed(8, "g")
    sb = DecodeStreams.from_seed(8, "g")
    for _ in range(10):
        relaxed = relaxed_sd_round(
            fam.drafter, fam.target, ctx, 6, RelaxPolicy("topk", k=1), 0.0, sa
        )
        standard = sd_round(twin.drafter, twin.target, ctx2, 6, 0.0, sb)
        assert relaxed.coins == standard.coins
        assert relaxed.emitted == standard.emitted
        ctx.extend(relaxed.emitted)
        ctx2.extend(standard.emitted)


def test_relaxed_correction_comes_from_the_target(ref_family):
    fam = ref_family.fork()
    ctx = tuple(fam.train_tokens[:10])
    streams = DecodeStreams.from_seed(9, "c")
    result = relaxed_sd_round(
        fam.drafter, fam.target, ctx, 6, RelaxPolicy("chow", alpha=0.0), 0.0, streams
    )
    probe = ref_family.target.fork()
    tau = result.tau_a
    expect = probe.next_dist(ctx + result.emitted[:tau]).argmax()
    assert result.emitted[-1] == expect


# ---------------------------------------------------------------------------
# routing signals
# ---------------------------------------------------------------------------


def test_entropy_signal_frozen_values():
    assert RoutingSignal("composite_entropy", 1.0).trusted(np.array([0.25] * 4))
    assert not RoutingSignal("composite_entropy", 0.99).trusted(np.array([0.25] * 4))
    # H([.5,.5,0,0]) / log 4 = log 2 / log 4 = 0.5 exactly
    half = np.array([0.5, 0.5, 0.0, 0.0])
    assert RoutingSignal("composite_entropy", 0.5).trusted(half)
    assert not RoutingSignal("composite_entropy", 0.49).trusted(half)
    assert RoutingSignal("composite_entropy", 0.0).trusted(np.array([1.0, 0.0, 0.0, 0.0]))


def test_top1_and_margin_signals():
    dist = np.array([0.75, 0.25, 0.0])  # both probabilities exact in binary
    assert routing_signal_eval(dist, RoutingSignal("top1_prob", 0.75))
    assert not routing_signal_eval(dist, RoutingSignal("top1_prob", 0.76))
    # the margin gate is the router's MarginRule, not a RoutingSignal kind
    assert MarginRule(0.5).trusted(dist)
    assert not MarginRule(0.51).trusted(dist)
    for kind in ("margin", "temperature"):
        with pytest.raises(ValueError):
            RoutingSignal(kind, 0.5)


@pytest.mark.parametrize("kind", ["top1_prob", "composite_entropy"])
@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
def test_routing_signal_refuses_a_nan_threshold(kind, threshold):
    if threshold != threshold:
        with pytest.raises(ValueError):
            RoutingSignal(kind, threshold)
        return
    uniform = np.array([0.25] * 4)  # top-1 0.25, normalized entropy 1
    trusts = threshold < 0 if kind == "top1_prob" else threshold > 0
    assert bool(RoutingSignal(kind, threshold).trusted(uniform)) == trusts


def test_signals_plug_into_the_router(ref_family):
    from trispec.router import trispec_round

    fam = ref_family.fork()
    ctx = tuple(fam.train_tokens[:10])
    streams = DecodeStreams.from_seed(3, "sig")
    out = trispec_round(
        fam.drafter, fam.proxy, fam.target, ctx, 6,
        RoutingSignal("top1_prob", 0.6), 0.0, streams,
    )
    out.validate()
