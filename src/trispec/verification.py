"""Draft verification: the lossless acceptance rule and its greedy variant.

A verifier scores a drafted block in one batched pass. Position i of the
draft is accepted with probability ``min(1, p_v(x_i) / p_d(x_i))``; at the
first rejection the replacement token is drawn from the positive residual
``norm(max(0, p_v - p_d))``, and a fully accepted block earns a bonus token
from the verifier's distribution at position k+1. That combination makes
the output distribution of a round exactly the verifier's own -- the
property the acceptance tests enumerate. Greedy tree verification accepts
the longest root-anchored path of verifier argmaxes instead. Either way
the verifier returns one ``Verdict``: the accepted tokens then the
correction, its coins, whether the correction is a bonus, and its walk
along the emitted path. Every round function checks the ``Round`` it
builds against the routing rule (``check_routing``).

A verifier's pass returns the states it walked, its ``Walk``, one per
position of the ``k+1``, and every rule takes that walk at both
temperatures; a hand-built block is read through ``Walk.of_rows``, one
state per row. Greedy mode (temperature 0) reads the argmaxes those
states keep (``best``), builds no one-hots, and consumes no randomness at
all: drafts, coins and corrections alike. Sampling (temperature 1) reads
``p_v(x)`` and ``p_d(x)`` as floats from the tables of the verifier's and
the drafter's walked states, draws a bonus from the CDF the verifier's
state keeps, and a residual correction from the CDF the verifier's states
keep for the pair of states, computed by ``residual_dist`` at the pair's
first rejection. Every draw bisects a kept CDF into the index ``sample``
would find for the same uniform. There is no other temperature: each
function that takes one refuses any other (``core.apply_temperature``).

Randomness is split across named streams (draft sampling, proxy coins,
target coins, corrections) so that structurally different protocols remain
coin-for-coin comparable: a sampled round consumes k draft draws,
acceptance coins only up to its first rejection, and exactly one correction
draw.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import RandomStream, apply_temperature, sample
from .drafting import DraftChain, DraftTree, TreeParams, draft_chain, draft_tree
from .models import ModelOracle, PassMeter, Walk, _States

__all__ = [
    "DecodeStreams",
    "DegenerateResidualError",
    "Round",
    "RoundCase",
    "Verdict",
    "acceptance_coins",
    "check_routing",
    "draw_correction",
    "residual_dist",
    "sd_round",
    "sd_tree_round",
    "target_only_round",
    "verify_chain",
    "verify_tree_greedy",
]


class DegenerateResidualError(AssertionError):
    """All-zero rejection residual; impossible for valid distributions."""


@dataclass(frozen=True)
class DecodeStreams:
    """The four independent random streams one decode session uses."""

    draft: RandomStream
    proxy_coins: RandomStream
    target_coins: RandomStream
    correction: RandomStream

    @classmethod
    def from_seed(cls, seed: int, scope: str = "") -> "DecodeStreams":
        prefix = f"{scope}/" if scope else ""
        return cls(
            draft=RandomStream(seed, prefix + "draft"),
            proxy_coins=RandomStream(seed, prefix + "coins/proxy"),
            target_coins=RandomStream(seed, prefix + "coins/target"),
            correction=RandomStream(seed, prefix + "correction"),
        )

    def coins_for(self, verifier_role: str) -> RandomStream:
        if verifier_role == "target":
            return self.target_coins
        if verifier_role == "proxy":
            return self.proxy_coins
        raise ValueError(f"unknown verifier role {verifier_role!r}")


class Verdict(NamedTuple):
    """One verifier's ruling on a draft, a chain or a tree alike.

    ``emitted`` is the ``tau`` accepted tokens, then exactly one
    correction: a residual draw after a rejection, or the verifier's bonus
    after full acceptance (``is_bonus``). ``coins`` holds the accept/reject
    indicator of every examined position of a chain: all 1s, then a single
    0 unless it was accepted to its end; a tree's has a 1 per accepted
    token. ``walk`` is the verifier's states
    along the emitted path: state ``i`` conditions on the first ``i``
    accepted tokens, and the last is where the correction came from.
    """

    emitted: tuple[int, ...]
    coins: tuple[int, ...]
    is_bonus: bool
    walk: Walk

    @property
    def tau(self) -> int:
        return len(self.emitted) - 1


class RoundCase(enum.Enum):
    """How a round resolved; the value is the trace's ``case`` label."""

    PROXY_ONLY = "ProxyOnly"
    TARGET_ESCALATED = "TargetEscalated"
    SD = "SD"
    TARGET_ONLY = "TargetOnly"
    RELAX_CHOW = "Relax:chow"
    RELAX_TOKEN_SPECIFIC = "Relax:token_specific"
    RELAX_CONFIDENCE_FILTER = "Relax:confidence_filter"
    RELAX_TOPK = "Relax:topk"


class Round(NamedTuple):
    """Everything one decode round did, whatever the method.

    ``tau_a`` is the first verifier's acceptance length (the proxy's in a
    ternary round, the sole verifier's in SD and relaxed SD), ``tau_m`` the
    trusted prefix and ``tau_t`` the target's acceptance length on the
    suffix; a length the method does not have is None. ``passes`` counts
    forward passes as (drafter, proxy, target), and a role was called iff
    its count is positive. ``coins`` are the first verifier's accept/reject
    indicators.

    A greedy ternary round is kept in the target's round table and handed
    out again on every repeat, so a round is immutable. It is a named tuple
    rather than a frozen dataclass because every sampled round is built
    afresh, and a frozen ``__init__``, which sets each field through
    ``object.__setattr__``, takes about three times as long.
    """

    case: RoundCase
    emitted: tuple[int, ...]
    passes: tuple[int, int, int]
    tau_a: int | None = None
    tau_m: int | None = None
    tau_t: int | None = None
    coins: tuple[int, ...] = ()
    margins: tuple[float, ...] = ()
    correction_is_bonus: bool = False
    draft: DraftChain | None = None

    @property
    def proxy_called(self) -> bool:
        return self.passes[1] > 0

    @property
    def target_called(self) -> bool:
        return self.passes[2] > 0

    def validate(self) -> None:
        """The routing rule every round obeys (``check_routing``); every
        round function checks the round it builds."""
        check_routing(self.case, self.tau_a, self.tau_m, self.tau_t, len(self.emitted),
                      self.proxy_called, self.target_called)


def check_routing(
    case: RoundCase,
    tau_a: int | None,
    tau_m: int | None,
    tau_t: int | None,
    emitted: int,
    proxy_called: bool,
    target_called: bool,
) -> None:
    """The routing rule a round and its trace row both obey; raises
    ValueError.

    Every round emits a token, and every length it has is at least 0. A
    ternary round pre-verifies through the proxy. A proxy-only round has
    ``tau_a < tau_m``, leaves the target alone and emits ``tau_a + 1``
    tokens; an escalated round has ``tau_a >= tau_m``, calls the target and
    emits ``tau_m + tau_t + 1``. A target-only round has no tau and emits 1
    token, any other round ``tau_a`` alone and ``tau_a + 1`` tokens. An SD
    round calls exactly one verifier; target-only and relaxed rounds call
    the target alone.
    """
    if emitted < 1:
        raise ValueError("a round emits at least one token")
    if any(tau is not None and tau < 0 for tau in (tau_a, tau_m, tau_t)):
        raise ValueError("acceptance lengths must be >= 0")
    ternary = case in (RoundCase.PROXY_ONLY, RoundCase.TARGET_ESCALATED)
    if case is RoundCase.SD:
        if proxy_called == target_called:
            raise ValueError("an SD round calls exactly one verifier")
    elif not ternary and (proxy_called or not target_called):
        raise ValueError(f"a {case.value} round calls the target alone")
    if case is RoundCase.TARGET_ONLY:
        if (tau_a, tau_m, tau_t, emitted) != (None, None, None, 1):
            raise ValueError("a target-only round has no tau and emits 1 token")
        return
    if not ternary:
        if tau_a is None or (tau_m, tau_t) != (None, None) or emitted != tau_a + 1:
            raise ValueError(f"a {case.value} round has tau_a alone and emits tau_a + 1 tokens")
        return
    if not proxy_called:
        raise ValueError("every round pre-verifies through the proxy")
    if case is RoundCase.PROXY_ONLY:
        if None in (tau_a, tau_m) or not tau_a < tau_m:
            raise ValueError("proxy-only round requires tau_a < tau_m")
        if target_called:
            raise ValueError("proxy-only round must not touch the target")
        if emitted != tau_a + 1:
            raise ValueError("proxy-only round emits tau_a + 1 tokens")
    else:
        if None in (tau_a, tau_m) or not tau_a >= tau_m:
            raise ValueError("escalated round requires tau_a >= tau_m")
        if not target_called or tau_t is None:
            raise ValueError("escalated round must involve the target")
        if emitted != tau_m + tau_t + 1:
            raise ValueError("escalated round emits tau_m + tau_t + 1 tokens")


def acceptance_coins(
    draft: DraftChain,
    scores: Walk,
    temperature: float,
    coin_stream: RandomStream,
    decide: Callable[[int, int], bool | None] | None = None,
    start: int = 0,
) -> tuple[tuple[int, ...], int]:
    """Left-to-right acceptance test; stops at the first rejection.

    ``scores`` is the verifier's walk over the draft. One uniform is drawn
    per examined position, against ``p_v(x) / p_d(x)`` read as floats from
    the verifier's and the draft's tables; at temperature 0 the test is
    exact agreement with the argmax the verifier's state keeps, and no
    uniform is consumed. The draft is examined from position ``start`` on,
    its position ``start + i`` against state ``i``, and the length
    returned counts from ``start``. ``decide(i, token)``, when given, rules
    on a position first: True or False is final, None defers to the test.
    """
    apply_temperature(None, temperature)
    coins: list[int] = []
    tokens = draft.tokens[start:] if start else draft.tokens
    v_states, v_ids, d_ids = scores.states, scores.ids, draft.walk.ids
    best, v_item, d_item = v_states.best, v_states.table.item, draft.walk.states.table.item
    for i, token in enumerate(tokens):
        accept = None if decide is None else decide(i, token)
        if accept is None:
            if temperature == 0.0:
                accept = best[v_ids[i]] == token
            else:
                ratio = min(1.0, v_item(v_ids[i], token) / d_item(d_ids[start + i], token))
                accept = coin_stream.uniform() < ratio
        coins.append(1 if accept else 0)
        if not accept:
            return tuple(coins), i
    return tuple(coins), len(tokens)


def residual_dist(draft_row: np.ndarray, verifier_row: np.ndarray) -> np.ndarray:
    """The normalized positive part of ``p_v - p_d`` at a rejected position.

    Both rows are valid already, so the residual needs no check beyond
    carrying mass.
    """
    residual = np.maximum(0.0, verifier_row - draft_row)
    total = float(residual.sum())
    if total <= 0.0:
        raise DegenerateResidualError("rejection happened but the residual carries no mass")
    return residual / total


class _Residuals:
    """The rejection residuals of one drafter's states against one
    verifier's, their CDFs kept end to end in one flat array: a pair is
    ``cdf[lo:lo + V]`` with ``lo = index[key]``, the floats ``sample``
    computes for it.

    Nothing is evicted, but the store is bounded: each oracle's automaton
    fixes its state count when it is built, so the store holds at most
    drafter states x verifier states x V floats, and it is freed with the
    verifier's states. With the default orders on the bundled corpus the
    drafter has 30 states, the proxy 187 and the target 603, so the two verifiers' stores hold at
    most 5.5 MB at V = 29 (char tokenizer) and 48.5 MB at V = 256 (byte
    tokenizer); a perturbed family's proxy has the target's 603 states,
    which makes 8.4 and 74.1 MB."""

    __slots__ = ("index", "cdf", "size")

    def __init__(self, size: int) -> None:
        self.index: dict[int, int] = {}  # drafter state * verifier states + verifier state -> lo
        self.cdf = array("d")
        self.size = size

    def draw(self, key: int, residual: Callable[[], np.ndarray], stream: RandomStream) -> int:
        lo = self.index.get(key)
        if lo is None:  # the CDF first: a degenerate residual raises and enters no key
            self.cdf.frombytes(residual().cumsum().tobytes())
            lo = self.index[key] = len(self.cdf) - self.size
        j = bisect_right(self.cdf, stream.uniform(), lo, lo + self.size) - lo
        # on a float shortfall in the CDF's tail, the last positive token
        return j if j < self.size else int(np.flatnonzero(residual() > 0.0)[-1])


def _draw_residual(drafted: _States, d: int, verifier: _States, v: int, stream: RandomStream) -> int:
    """``sample(residual_dist(...))`` of drafter row ``d`` and verifier row
    ``v``. The verifier's states keep the residual's CDF against the
    drafter's states from the pair's first rejection on; a block's rows
    (``Walk.of_rows``) live for one round, so theirs is not kept."""
    store = verifier.residuals
    if store is None or drafted.residuals is None:
        return sample(residual_dist(drafted.table[d], verifier.table[v]), stream)
    kept = store.get(drafted)
    if kept is None:
        kept = store[drafted] = _Residuals(verifier.table.shape[1])
    residual = lambda: residual_dist(drafted.table[d], verifier.table[v])  # noqa: E731
    return kept.draw(d * len(verifier.table) + v, residual, stream)


def draw_correction(
    draft: DraftChain,
    scores: Walk,
    tau: int,
    temperature: float,
    correction_stream: RandomStream,
    start: int = 0,
) -> tuple[int, bool]:
    """Draw the single correction token a verification round emits.

    After a rejection at draft position ``start + tau`` the token comes
    from the residual there; after full acceptance it is the verifier's
    bonus at state ``tau`` of its walk, position k+1. Both are drawn by
    bisection into a kept CDF: the bonus from the verifier's state, the
    residual from the one the verifier's states keep for the pair
    (``_draw_residual``). In greedy mode the token is the argmax state
    ``tau`` keeps, with no draw: the residual of two distinct one-hots is
    the verifier's own one-hot.
    """
    apply_temperature(None, temperature)
    is_bonus = start + tau >= draft.k
    v_states, v = scores.states, scores.ids[tau]
    if temperature == 0.0:
        return v_states.best[v], is_bonus
    if is_bonus:
        return v_states.draw(v, correction_stream), True
    drafted = draft.walk
    token = _draw_residual(drafted.states, drafted.ids[start + tau], v_states, v, correction_stream)
    return token, False


def verify_chain(
    draft: DraftChain,
    scores: Walk,
    temperature: float,
    coin_stream: RandomStream,
    correction_stream: RandomStream,
    start: int = 0,
) -> Verdict:
    """Verify a draft chain from position ``start`` on against the
    verifier's walk over it: one state per verified token, then the bonus
    position's."""
    apply_temperature(None, temperature)
    if len(scores.ids) != draft.k - start + 1:
        raise ValueError("need a verifier row per verified draft token, plus the bonus row")
    coins, tau = acceptance_coins(draft, scores, temperature, coin_stream, start=start)
    token, is_bonus = draw_correction(draft, scores, tau, temperature, correction_stream, start)
    emitted = draft.tokens[start : start + tau] + (token,)
    return Verdict(emitted, coins, is_bonus, Walk(scores.states, scores.ids[: tau + 1]))


def target_only_round(
    target: ModelOracle, ctx: Sequence[int], temperature: float, streams: DecodeStreams
) -> Round:
    """Plain decoding: one target pass, one token drawn from its own law."""
    apply_temperature(None, temperature)
    meter = PassMeter(target=target)
    target.next_dist(ctx)
    walk = target.walk()
    token = walk.argmaxes[0] if temperature == 0.0 else walk.draw(0, streams.draft)
    rnd = Round(RoundCase.TARGET_ONLY, (token,), meter.passes(), correction_is_bonus=True)
    rnd.validate()
    return rnd


def sd_round(
    drafter: ModelOracle,
    verifier: ModelOracle,
    ctx: Sequence[int],
    k: int,
    temperature: float,
    streams: DecodeStreams,
    verifier_role: str = "target",
) -> Round:
    """Draft k tokens, verify once, emit tau accepted tokens plus one more.

    ``verifier_role`` selects which coin stream the acceptance test uses, so
    a proxy-verified run and the proxy phase of a ternary round stay
    coin-for-coin identical; the verifier's passes count under that role.
    """
    apply_temperature(None, temperature)
    coin_stream = streams.coins_for(verifier_role)
    meter = PassMeter(drafter, **{verifier_role: verifier})
    base = tuple(ctx)
    draft = draft_chain(drafter, base, k, temperature, streams.draft)
    walk = verifier.batch_score(base, draft.tokens)
    verdict = verify_chain(draft, walk, temperature, coin_stream, streams.correction)
    rnd = Round(RoundCase.SD, verdict.emitted, meter.passes(), tau_a=verdict.tau,
                coins=verdict.coins, correction_is_bonus=verdict.is_bonus, draft=draft)
    rnd.validate()
    return rnd


def verify_tree_greedy(tree: DraftTree, verifier: ModelOracle) -> Verdict:
    """Accept the longest root-anchored path of verifier argmaxes.

    The verifier scores every node of the tree in a single masked pass; the
    walk then descends from the root as long as some child carries the
    argmax token (as the states the pass walked keep it), and the
    correction is the argmax after the accepted path (which repairs the
    first divergence, or extends a fully accepted path). The correction is
    a bonus iff the last accepted node (or the root) is childless.
    """
    scored = verifier.batch_score_paths(tree.ctx, tree._paths)  # root, then node i at i + 1
    states, walked = scored.states, scored.ids
    best = states.best

    path: list[int] = []  # the accepted node ids
    cur = -1
    while True:
        want = best[walked[cur + 1]]
        child = next((c for c in tree.children(cur) if tree.nodes[c].token == want), None)
        if child is None:
            break
        path.append(child)
        cur = child
    emitted = tuple(tree.nodes[i].token for i in path) + (want,)
    walk = Walk(states, [walked[0]] + [walked[i + 1] for i in path])
    return Verdict(emitted, (1,) * len(path), not tree.children(cur), walk)


def sd_tree_round(
    drafter: ModelOracle,
    verifier: ModelOracle,
    ctx: Sequence[int],
    params: TreeParams,
    verifier_role: str = "target",
) -> Round:
    """Greedy tree-drafted SD round; the verifier's passes count under
    ``verifier_role``, ``"target"`` or ``"proxy"``."""
    if verifier_role not in ("target", "proxy"):
        raise ValueError(f"unknown verifier role {verifier_role!r}")
    meter = PassMeter(drafter, **{verifier_role: verifier})
    tree = draft_tree(drafter, tuple(ctx), params.depth, params.branch_topk, params.budget)
    verdict = verify_tree_greedy(tree, verifier)
    rnd = Round(RoundCase.SD, verdict.emitted, meter.passes(), tau_a=verdict.tau,
                coins=verdict.coins, correction_is_bonus=verdict.is_bonus)
    rnd.validate()
    return rnd
