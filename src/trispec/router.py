"""Ternary routing: a cheap proxy pre-verifies drafts, a margin decides.

Each round the proxy scores the whole draft once and produces two prefix
lengths:

* ``tau_a`` -- how far the proxy itself would accept the draft (the usual
  acceptance rule, run with the proxy's coins);
* ``tau_m`` -- how far the proxy's distributions are *trusted*, i.e. the
  longest prefix on which the top1-top2 margin clears a threshold.

If the proxy confidently rejects inside its trusted prefix
(``tau_a < tau_m``), the round resolves locally: the draft up to ``tau_a``
is emitted with a proxy-drawn correction and the target is never called.
Otherwise the first ``tau_m`` tokens are committed outright, the draft is
pruned to the remainder, and the target verifies only the suffix.

The threshold is a dial: ``lam <= 0`` trusts the proxy everywhere (the run
degrades to proxy-verified decoding), ``lam > 1`` trusts it nowhere (the
run is exactly standard target-verified decoding, coin for coin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import apply_temperature, sample, top2_margin
from .drafting import DraftChain, draft_chain, draft_tree, prune_tree_prefix
from .models import ModelOracle, PassMeter
from .verification import (
    AcceptanceTrace,
    DecodeStreams,
    Round,
    RoundCase,
    acceptance_coins,
    draw_correction,
    verify_chain,
    verify_tree_greedy,
)

__all__ = [
    "MarginRule",
    "TreeParams",
    "pruned_target_verify",
    "trispec_round",
    "trispec_tree_round",
    "trusted_prefix_len",
]


@dataclass(frozen=True)
class MarginRule:
    """Trust a row iff its top1-top2 gap reaches ``lam``.

    ``lam <= 0`` is the always-trust sentinel (margins are never negative),
    ``lam > 1`` the never-trust sentinel (margins never exceed 1). Given a
    block, ``trusted`` answers for every row.
    """

    lam: float

    def trusted(self, probs: np.ndarray) -> bool | np.ndarray:
        return top2_margin(probs) >= self.lam


def trusted_prefix_len(proxy_rows: np.ndarray, rule, margins: Sequence[float] | None = None) -> int:
    """Length of the longest trusted prefix of a ``(k+1, V)`` proxy block.

    Returns the index of the first untrusted row (0-based over positions
    1..k+1), or k+1 when every row is trusted. Any rule object whose
    ``trusted(block)`` gives one bool per row works here; margin is the
    default, the alternative routing signals plug in the same way. Given
    the rows' ``margins`` already, a ``MarginRule`` reads those instead.
    """
    if margins is not None and isinstance(rule, MarginRule):
        return next((i for i, m in enumerate(margins) if not m >= rule.lam), len(margins))
    trusted = np.asarray(rule.trusted(proxy_rows))
    return len(trusted) if trusted.all() else int(trusted.argmin())


def pruned_target_verify(
    draft: DraftChain,
    tau_m: int,
    target: ModelOracle,
    ctx: Sequence[int],
    temperature: float,
    coin_stream,
    correction_stream,
) -> AcceptanceTrace:
    """Target-verify the draft suffix after committing ``tau_m`` tokens.

    The target conditions on the committed prefix and scores only positions
    ``tau_m+1..k`` (one batched pass). With ``tau_m == k`` there is nothing
    left to verify and the pass purely produces the bonus distribution at
    position k+1. In greedy mode the suffix is compared with the argmaxes
    of the states the pass walked, and no sub-chain is built.
    """
    if not 0 <= tau_m <= draft.k:
        raise ValueError("tau_m must lie in [0, k]")
    base = tuple(ctx) + draft.tokens[:tau_m]
    rest = draft.tokens[tau_m:]
    rows = target.batch_score(base, rest)
    if temperature == 0.0:
        best = target.argmaxes()
        tau = next((i for i, token in enumerate(rest) if best[i] != token), len(rest))
        coins = (1,) * tau + (0,) * (tau < len(rest))
        return AcceptanceTrace(coins, tau, best[tau], tau == len(rest), rest[:tau] + (best[tau],))
    if not rest:
        token = sample(apply_temperature(rows[0], temperature), correction_stream)
        return AcceptanceTrace(
            coins=(), tau=0, correction_token=token, correction_is_bonus=True, emitted=(token,)
        )
    return verify_chain(draft.suffix(tau_m), rows, temperature, coin_stream, correction_stream)


def trispec_round(
    drafter: ModelOracle,
    proxy: ModelOracle,
    target: ModelOracle,
    ctx: Sequence[int],
    k: int,
    rule,
    temperature: float,
    streams: DecodeStreams,
    raw_bonus: bool = False,
    margin_on_raw: bool = False,
) -> Round:
    """One ternary round over a k-token draft chain.

    The proxy scores the draft as one ``(k+1, V)`` block. The trust signal
    sees its shaped rows at temperature 1 (where shaping is the identity)
    and its raw rows in greedy mode -- an argmax one-hot carries no margin
    information. Greedy decisions, and margins at both temperatures, are
    read from the states the proxy's pass walked, once each.
    ``margin_on_raw`` forces the raw view at any other temperature.
    ``raw_bonus`` switches the proxy-local correction to a direct draw from
    the proxy's distribution at the rejected position instead of the
    residual; a greedy draw there is the argmax either way.
    """
    meter = PassMeter(drafter, proxy, target)

    base = tuple(ctx)
    draft = draft_chain(drafter, base, k, temperature, streams.draft)
    proxy_raw = proxy.batch_score(base, draft.tokens)
    if temperature == 0.0:
        proxy_scores, margin_view = proxy.argmaxes(), proxy_raw
    else:
        proxy_scores = apply_temperature(proxy_raw, temperature)
        margin_view = proxy_raw if margin_on_raw else proxy_scores
    if temperature in (0.0, 1.0):  # the view is the raw rows, whose states keep margins
        margins = proxy.margins()
    else:
        margins = tuple(top2_margin(margin_view).tolist())
    coins, tau_a = acceptance_coins(draft, proxy_scores, temperature, streams.proxy_coins)
    tau_m = trusted_prefix_len(margin_view, rule, margins)

    if tau_a < tau_m:
        if raw_bonus and tau_a < k and temperature != 0.0:
            token, is_bonus = sample(proxy_scores[tau_a], streams.correction), False
        else:
            token, is_bonus = draw_correction(
                draft, proxy_scores, tau_a, temperature, streams.correction
            )
        case, tau_t = RoundCase.PROXY_ONLY, None
        emitted = draft.tokens[:tau_a] + (token,)
    else:
        suffix_trace = pruned_target_verify(
            draft, tau_m, target, base, temperature, streams.target_coins, streams.correction
        )
        case, tau_t = RoundCase.TARGET_ESCALATED, suffix_trace.tau
        emitted = draft.tokens[:tau_m] + suffix_trace.emitted
        is_bonus = suffix_trace.correction_is_bonus
    rnd = Round(
        case=case,
        emitted=emitted,
        passes=meter.passes(),
        tau_a=tau_a,
        tau_m=tau_m,
        tau_t=tau_t,
        coins=coins,
        margins=margins,
        correction_is_bonus=is_bonus,
        draft=draft,
    )
    rnd.validate()
    return rnd


@dataclass(frozen=True)
class TreeParams:
    """Draft-tree shape: expansion depth, per-node top-k, token budget."""

    depth: int = 6
    branch_topk: int = 10
    budget: int = 60


def trispec_tree_round(
    drafter: ModelOracle,
    proxy: ModelOracle,
    target: ModelOracle,
    ctx: Sequence[int],
    params: TreeParams,
    rule,
) -> Round:
    """One greedy ternary round over a budgeted draft tree.

    The proxy greedily verifies the tree; ``tau_a`` is its accepted path
    length and the margin gate runs along that path (positions 1..tau_a+1,
    raw distributions -- tree rounds are greedy by construction). Case II
    commits the trusted prefix, prunes the tree below it, and hands every
    surviving branch to the target for greedy verification. Margins come
    from the states the proxy's pass walked. The tree itself is expanded
    from the drafter's unshaped probabilities: collapsing them to argmax
    one-hots would leave nothing to branch on.
    """
    meter = PassMeter(drafter, proxy, target)

    tree = draft_tree(drafter, tuple(ctx), params.depth, params.branch_topk, params.budget)
    proxy_result = verify_tree_greedy(tree, proxy)
    tau_a = proxy_result.accepted_len
    scored = proxy.margins()  # the root's, then node i's at i + 1
    margins = (scored[0],) + tuple(scored[i + 1] for i in proxy_result.path_ids)
    tau_m = trusted_prefix_len(proxy_result.path_rows, rule, margins)

    if tau_a < tau_m:
        case, tau_t = RoundCase.PROXY_ONLY, None
        emitted, is_bonus = proxy_result.emitted, proxy_result.exhausted
    else:
        committed = proxy_result.path_tokens[:tau_m]
        remainder = prune_tree_prefix(tree, committed)
        target_result = verify_tree_greedy(remainder, target)
        case, tau_t = RoundCase.TARGET_ESCALATED, target_result.accepted_len
        emitted = committed + target_result.emitted
        is_bonus = target_result.exhausted
    rnd = Round(
        case=case,
        emitted=emitted,
        passes=meter.passes(),
        tau_a=tau_a,
        tau_m=tau_m,
        tau_t=tau_t,
        coins=(1,) * tau_a,
        margins=margins,
        correction_is_bonus=is_bonus,
    )
    rnd.validate()
    return rnd
