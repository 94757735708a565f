"""Relaxed verification rules and alternative trust signals.

These are the lossy comparison points: deferral-style rules that accept a
drafted token on cheaper evidence than the exact acceptance test, hoping to
stretch the acceptance length, plus the alternative proxy-trust signals
(top-1 probability, normalized entropy) that can replace the margin gate in
ternary routing.

All decision rules here are pure functions of distributions, so any run
built from them is fully deterministic at temperature 0. Each takes a
probability row; the trust signals also take a whole block and answer for
every row. Asymmetry worth
remembering: the Chow rule accepts at ``>=`` its threshold while the
confidence filter requires strictly ``>``, so the two coincide on the
argmax token at ``threshold = 1 - alpha`` except exactly at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import apply_temperature
from .drafting import draft_chain
from .models import ModelOracle, PassMeter
from .verification import DecodeStreams, Round, RoundCase, acceptance_coins

__all__ = [
    "RelaxPolicy",
    "RoutingSignal",
    "chow_accept",
    "confidence_filter_accept",
    "relaxed_sd_round",
    "routing_signal_eval",
    "token_specific_accept",
    "topk_verify_accept",
]


def chow_accept(draft_dist: np.ndarray, token: int, alpha: float) -> bool:
    """Accept when the drafter itself is confident: ``p_d(x) >= 1 - alpha``."""
    return bool(draft_dist[token] >= 1.0 - alpha)


def token_specific_accept(target_dist: np.ndarray, token: int, alpha: float) -> bool:
    """Accept when the token is nearly target-optimal:
    ``p_t(x) >= (1 - alpha) * max(p_t)``. Ignores the drafter entirely."""
    return bool(target_dist[token] >= (1.0 - alpha) * target_dist.max())


def confidence_filter_accept(draft_dist: np.ndarray, threshold: float) -> bool:
    """Accept when the drafter's peak clears the threshold, strictly."""
    return bool(draft_dist.max() > threshold)


def topk_verify_accept(target_dist: np.ndarray, token: int, k: int) -> bool:
    """Accept when the token sits among the target's k most probable tokens
    (ties resolved toward the lower index). k=1 is exactly greedy."""
    if k < 1:
        raise ValueError("top-k verification needs k >= 1")
    order = np.lexsort((np.arange(target_dist.size), -target_dist))
    return token in order[:k]


@dataclass(frozen=True)
class RelaxPolicy:
    """A named relaxed acceptance rule with its one parameter.

    ``chow`` and ``confidence_filter`` grant a bypass and otherwise defer
    to the standard acceptance test; ``token_specific`` and ``topk``
    replace the test outright (both consult only the target distribution).
    """

    kind: str  # chow | token_specific | confidence_filter | topk
    alpha: float = 0.05
    threshold: float = 0.95
    k: int = 5

    _KINDS = ("chow", "token_specific", "confidence_filter", "topk")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown relax policy {self.kind!r}; expected one of {self._KINDS}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def decide(self, draft_dist: np.ndarray, target_dist: np.ndarray, token: int) -> bool | None:
        """True/False is final; None defers to the standard test."""
        if self.kind == "chow":
            return True if chow_accept(draft_dist, token, self.alpha) else None
        if self.kind == "confidence_filter":
            return True if confidence_filter_accept(draft_dist, self.threshold) else None
        if self.kind == "token_specific":
            return token_specific_accept(target_dist, token, self.alpha)
        return topk_verify_accept(target_dist, token, self.k)


@dataclass(frozen=True)
class RoutingSignal:
    """A trust gate over proxy rows, pluggable into the router.

    ``top1_prob``: peak probability at least ``threshold``.
    ``composite_entropy``: normalized Shannon entropy (H / log V) at most
    ``threshold`` -- low entropy means trusted. The margin gate is the
    router's own ``MarginRule``.
    """

    kind: str  # top1_prob | composite_entropy
    threshold: float

    _KINDS = ("top1_prob", "composite_entropy")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown routing signal {self.kind!r}; expected one of {self._KINDS}")
        if self.threshold != self.threshold:  # NaN would fail every bound
            raise ValueError("routing threshold must not be NaN")

    def trusted(self, probs: np.ndarray) -> bool | np.ndarray:
        return routing_signal_eval(probs, self)


def _normalized_entropy(probs: np.ndarray) -> float | np.ndarray:
    # Each row sums its positive cells only (0 log 0 = 0): summing zeros too
    # regroups numpy's pairwise sum and can move the last bit.
    rows = [r[r > 0.0] for r in probs.reshape(-1, probs.shape[-1])]
    entropy = np.array([-(r * np.log(r)).sum() for r in rows]) / math.log(probs.shape[-1])
    return entropy.reshape(probs.shape[:-1]) if probs.ndim > 1 else entropy[0]


def routing_signal_eval(probs: np.ndarray, signal: RoutingSignal) -> bool | np.ndarray:
    """Whether the signal trusts a row, or each row of a block."""
    if signal.kind == "top1_prob":
        return probs.max(axis=-1) >= signal.threshold
    return _normalized_entropy(probs) <= signal.threshold


def relaxed_sd_round(
    drafter: ModelOracle,
    target: ModelOracle,
    ctx: Sequence[int],
    k: int,
    policy: RelaxPolicy,
    temperature: float,
    streams: DecodeStreams,
) -> Round:
    """A standard SD round whose per-position acceptance is relaxed.

    The target still scores the whole draft every round (these baselines
    stretch the acceptance length, they do not skip verification passes).
    On rejection the correction comes from the target's own law at that
    position, its argmax or a draw from its row; relaxed rules void the
    residual construction's guarantees, so this is the deferral semantics
    instead. The rules judge the raw rows when sampling and the argmax
    one-hots of both sides in greedy mode, built only for the positions
    judged; the standard test and the correction read the target's walk.
    """
    apply_temperature(None, temperature)
    meter = PassMeter(drafter, target=target)
    base = tuple(ctx)
    draft = draft_chain(drafter, base, k, temperature, streams.draft)
    walk = target.batch_score(base, draft.tokens)
    if temperature == 0.0:  # the greedy laws: the drafted token's and the argmax's one-hots
        size, best = target.vocab_size, walk.argmaxes

        def decide(i: int, token: int) -> bool | None:
            hot = np.zeros((2, size))
            hot[0, token] = hot[1, best[i]] = 1.0
            return policy.decide(hot[0], hot[1], token)
    else:
        d_rows, rows = draft.dists, walk.rows

        def decide(i: int, token: int) -> bool | None:
            return policy.decide(d_rows[i], rows[i], token)

    coins, tau = acceptance_coins(draft, walk, temperature, streams.target_coins, decide=decide)
    token = best[tau] if temperature == 0.0 else walk.draw(tau, streams.correction)
    rnd = Round(RoundCase(f"Relax:{policy.kind}"), draft.tokens[:tau] + (token,), meter.passes(),
                tau_a=tau, coins=coins, correction_is_bonus=tau == draft.k, draft=draft)
    rnd.validate()
    return rnd
