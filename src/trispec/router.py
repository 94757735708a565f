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

Rounds run greedy (temperature 0) or sampled (temperature 1). At both,
acceptance, corrections and the trust signal read the proxy's pass as the
states it walked (its ``Walk``): the margin gate reads the margins those
states keep, any other signal their raw rows. The target's suffix is
verified on its own walk, by the rule two-model rounds use, and its
``Verdict`` supplies the round's tail. A tree round takes the proxy's
``tau_a``, coins and walk from the proxy's verdict on the whole tree.

The threshold is a dial: ``lam <= 0`` trusts the proxy everywhere (the run
degrades to proxy-verified decoding), ``lam > 1`` trusts it nowhere (the
run is exactly standard target-verified decoding, coin for coin).

A greedy round reads no randomness, and each oracle reads only its window,
so it is a pure function of the context's last ``max(window)`` tokens, the
round shape, the trust rule and the three oracles' states. The target's
states keep a round table under that key (``_round_key``): a repeated
greedy round drafts as before, makes the proxy's pass again (and the
target's, if it escalated) from the key's window tail, and returns the
stored ``Round``. Those passes are counted but walked only if read: a
tree round's are pending walks nobody reads, so they walk nothing; a
chain round's ``batch_score`` still walks its states.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .core import apply_temperature, top2_margin
from .drafting import DraftChain, TreeParams, draft_chain, draft_tree, prune_tree_prefix
from .models import ModelOracle, PassMeter, Walk
from .verification import (
    DecodeStreams,
    Round,
    RoundCase,
    Verdict,
    acceptance_coins,
    draw_correction,
    verify_chain,
    verify_tree_greedy,
)

__all__ = [
    "MarginRule",
    "pruned_target_verify",
    "trispec_round",
    "trispec_tree_round",
    "trusted_prefix_len",
]


class _Margin(NamedTuple):
    lam: float


class MarginRule(_Margin):
    """Trust a row iff its top1-top2 gap reaches ``lam``.

    ``lam <= 0`` is the always-trust sentinel (margins are never negative),
    ``lam > 1`` the never-trust sentinel (margins never exceed 1); +-inf
    are both legal. NaN is refused: every comparison with it is False, so
    it would silently trust nothing. Given a block, ``trusted`` answers for
    every row.

    A rule is a named tuple, so the round table hashes and compares it in
    C on every greedy round; two rules are equal iff their ``lam`` are.
    """

    __slots__ = ()

    def __new__(cls, lam: float) -> "MarginRule":
        if lam != lam:
            raise ValueError("margin threshold lam must not be NaN")
        return super().__new__(cls, lam)

    def trusted(self, probs: np.ndarray) -> bool | np.ndarray:
        return top2_margin(probs) >= self.lam


def trusted_prefix_len(proxy: Walk, rule) -> int:
    """Length of the longest trusted prefix of the proxy's walk over a
    draft (or a path).

    Returns the index of the first untrusted state (0-based over positions
    1..k+1), or k+1 when every state is trusted. A ``MarginRule`` reads the
    margins the walked states keep. Any other rule object whose
    ``trusted(block)`` gives one bool per row of the walked rows works
    here: the alternative routing signals plug in that way.
    """
    if isinstance(rule, MarginRule):
        margin, lam = proxy.states.margin, rule.lam
        for i, s in enumerate(proxy.ids):
            if not margin[s] >= lam:
                return i
        return len(proxy.ids)
    trusted = np.asarray(rule.trusted(proxy.rows))
    return len(trusted) if trusted.all() else int(trusted.argmin())


def _round_key(
    drafter: ModelOracle, proxy: ModelOracle, target: ModelOracle, ctx: tuple[int, ...],
    shape, rule,
) -> tuple:
    """The key of a greedy round in the target's round table: the last
    ``max(window)`` tokens of ``ctx`` (all of it when shorter), the round
    shape (``k`` or ``TreeParams``), the trust rule, and the drafter's and
    the proxy's states, by the objects themselves. The target's states are
    where the table lives."""
    w = max(drafter.window, proxy.window, target.window)
    tail = ctx[len(ctx) - w :] if len(ctx) > w else ctx
    return (tail, shape, rule, drafter._states, proxy._states)


def pruned_target_verify(
    draft: DraftChain,
    tau_m: int,
    target: ModelOracle,
    ctx: Sequence[int],
    temperature: float,
    coin_stream,
    correction_stream,
) -> Verdict:
    """Target-verify the draft suffix after committing ``tau_m`` tokens.

    The target conditions on the committed prefix and scores only positions
    ``tau_m+1..k`` (one batched pass). With ``tau_m == k`` there is nothing
    left to verify and the pass purely produces the bonus distribution at
    position k+1. The suffix is verified in place on the target's walk,
    from draft position ``tau_m`` on, and no sub-chain is built.
    """
    apply_temperature(None, temperature)
    if not 0 <= tau_m <= draft.k:
        raise ValueError("tau_m must lie in [0, k]")
    walk = target.batch_score(tuple(ctx) + draft.tokens[:tau_m], draft.tokens[tau_m:])
    return verify_chain(draft, walk, temperature, coin_stream, correction_stream, start=tau_m)


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
) -> Round:
    """One ternary round over a k-token draft chain.

    The proxy scores the draft in one pass. Acceptance, corrections and the
    trust signal all read that pass's walk, and the round's margins are
    the ones its states keep. ``raw_bonus`` makes the proxy-local
    correction after a rejection a direct draw from the proxy's row at the
    rejected position instead of the residual; at temperature 0 both are
    the proxy's argmax, so it has no effect there.

    A greedy round is kept in the target's round table, which is read
    before anything is metered or drafted. A repeat drafts (a draft-memo
    hit), makes the proxy's pass over the draft on the key's window tail
    again, and the target's over the suffix if the round escalated, so
    that they are counted, and returns the stored round.
    """
    apply_temperature(None, temperature)
    base = tuple(ctx)
    key = None
    if temperature == 0.0:
        key = _round_key(drafter, proxy, target, base, k, rule)
        rnd = target._states.rounds.get(key)
        if rnd is not None:
            tail, tokens = key[0], draft_chain(drafter, base, k, temperature, streams.draft).tokens
            proxy.batch_score(tail, tokens)
            if rnd.tau_t is not None:
                target.batch_score(tail + tokens[: rnd.tau_m], tokens[rnd.tau_m :])
            return rnd
    meter = PassMeter(drafter, proxy, target)
    draft = draft_chain(drafter, base, k, temperature, streams.draft)
    walk = proxy.batch_score(base, draft.tokens)
    coins, tau_a = acceptance_coins(draft, walk, temperature, streams.proxy_coins)
    tau_m = trusted_prefix_len(walk, rule)

    if tau_a < tau_m:
        if raw_bonus and tau_a < k and temperature != 0.0:
            token, is_bonus = walk.draw(tau_a, streams.correction), False
        else:
            token, is_bonus = draw_correction(draft, walk, tau_a, temperature, streams.correction)
        case, tau_t = RoundCase.PROXY_ONLY, None
        emitted = draft.tokens[:tau_a] + (token,)
    else:
        suffix = pruned_target_verify(
            draft, tau_m, target, base, temperature, streams.target_coins, streams.correction
        )
        case, tau_t, is_bonus = RoundCase.TARGET_ESCALATED, suffix.tau, suffix.is_bonus
        emitted = draft.tokens[:tau_m] + suffix.emitted
    rnd = Round(
        case=case,
        emitted=emitted,
        passes=meter.passes(),
        tau_a=tau_a,
        tau_m=tau_m,
        tau_t=tau_t,
        coins=coins,
        margins=walk.margins,
        correction_is_bonus=is_bonus,
        draft=draft,
    )
    rnd.validate()
    if key is not None:
        target._states.rounds[key] = rnd
    return rnd


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
    the proxy's walk along it -- tree rounds are greedy by construction).
    Case II commits the trusted prefix, prunes the tree below it, and hands
    every surviving branch to the target for greedy verification. The tree
    itself is expanded from the drafter's raw rows: collapsing them to
    argmax one-hots would leave nothing to branch on.

    Every tree round is kept in the target's round table, with the
    committed prefix and the pruned tree's paths when it escalated: the
    paths the target's pass scored. A repeat drafts (a draft-memo hit),
    makes the proxy's pass over the whole tree from the key's window tail
    again, and the target's over those paths from that tail and the
    committed prefix, and returns the stored round. Those passes are
    counted, and since nobody reads their walks, they walk nothing.
    """
    meter = PassMeter(drafter, proxy, target)

    base = tuple(ctx)
    tree = draft_tree(drafter, base, params.depth, params.branch_topk, params.budget)
    key = _round_key(drafter, proxy, target, base, params, rule)
    table = target._states.rounds
    hit = table.get(key)
    if hit is not None:
        rnd, escalated = hit
        proxy.batch_score_paths(key[0], tree._paths)
        if escalated is not None:
            committed, paths = escalated
            target.batch_score_paths(key[0] + committed, paths)
        return rnd
    verdict = verify_tree_greedy(tree, proxy)
    tau_a, tau_m = verdict.tau, trusted_prefix_len(verdict.walk, rule)

    escalated = None
    if tau_a < tau_m:
        case, tau_t = RoundCase.PROXY_ONLY, None
        emitted, is_bonus = verdict.emitted, verdict.is_bonus
    else:
        committed = verdict.emitted[:tau_m]
        remainder = prune_tree_prefix(tree, committed)
        suffix = verify_tree_greedy(remainder, target)
        case, tau_t, is_bonus = RoundCase.TARGET_ESCALATED, suffix.tau, suffix.is_bonus
        emitted = committed + suffix.emitted
        escalated = (committed, remainder._paths)
    rnd = Round(
        case=case,
        emitted=emitted,
        passes=meter.passes(),
        tau_a=tau_a,
        tau_m=tau_m,
        tau_t=tau_t,
        coins=verdict.coins,
        margins=verdict.walk.margins,
        correction_is_bonus=is_bonus,
    )
    rnd.validate()
    table[key] = (rnd, escalated)
    return rnd
