"""Latency accounting and verification-efficiency metrics.

Costs are abstract batch-pass constants, not wall-clock measurements: one
drafter pass costs ``c_d``, one proxy pass ``c_p``, one target pass
``c_t``, and every round pays a fixed overhead ``t_o``. A run's report is
a fold over its rounds, in round order, and total latency is the exact
sum of the per-round costs, which makes the decomposition

    L = (N / tau) * (t_d + t_v + t_o),    tau = tokens per round,

an accounting identity this module can re-check to float precision. The
headline efficiency number is ``r_t``, target batch passes per generated
token, taken straight from the oracle invocation counters.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add, mul
from typing import Iterable, Sequence

import numpy as np

from .core import top2_margin
from .models import ModelOracle
from .verification import Round

__all__ = [
    "CostModel",
    "MarginHistogram",
    "RunReport",
    "accumulate",
    "lemma_check",
    "margin_histogram",
    "speedup_vs_target_only",
    "target_invocation_ratio",
]


@dataclass(frozen=True)
class CostModel:
    """Per-pass latency constants. Defaults follow the 1 : 5 : 90 ratio."""

    c_d: float = 1.0
    c_p: float = 5.0
    c_t: float = 90.0
    t_o: float = 0.0

    def __post_init__(self) -> None:
        if not all(0.0 <= c < np.inf for c in (self.c_d, self.c_p, self.c_t, self.t_o)):
            raise ValueError("cost constants must be finite and >= 0")
        if not (self.c_d <= self.c_p <= self.c_t):
            warnings.warn(
                f"cost ordering c_d <= c_p <= c_t violated: {self.c_d}, {self.c_p}, {self.c_t}",
                stacklevel=2,
            )


@dataclass
class RunReport:
    """Accumulating ledger for one decoding run.

    ``tau_mean`` is the mean number of *accepted* draft tokens per round;
    ``tokens_per_round`` counts the correction/bonus token as well and is
    the quantity the latency identity uses.
    """

    cost: CostModel
    N: int = 0
    rounds: int = 0
    accepted_total: int = 0
    draft_time: float = 0.0
    verify_time: float = 0.0
    overhead_time: float = 0.0
    drafter_passes: int = 0
    proxy_passes: int = 0
    target_passes: int = 0
    case_counts: dict[str, int] = field(default_factory=dict)
    continuation_ppl: float | None = None
    t_o_base: float = 0.0

    def add_round(
        self,
        emitted_count: int,
        drafter_passes: int,
        proxy_passes: int,
        target_passes: int,
        case_label: str,
    ) -> float:
        """Add one round to every sum and return what it cost:
        ``(draft + verify) + t_o``."""
        if emitted_count < 1:
            raise ValueError("a round emits at least one token")
        cost = self.cost
        draft = drafter_passes * cost.c_d
        verify = proxy_passes * cost.c_p + target_passes * cost.c_t
        self.N += emitted_count
        self.rounds += 1
        self.accepted_total += emitted_count - 1
        self.draft_time += draft
        self.verify_time += verify
        self.overhead_time += cost.t_o
        self.drafter_passes += drafter_passes
        self.proxy_passes += proxy_passes
        self.target_passes += target_passes
        self.case_counts[case_label] = self.case_counts.get(case_label, 0) + 1
        return draft + verify + cost.t_o

    @property
    def L(self) -> float:
        return self.draft_time + self.verify_time + self.overhead_time

    @property
    def tau_mean(self) -> float:
        return self.accepted_total / self.rounds if self.rounds else 0.0

    @property
    def tokens_per_round(self) -> float:
        return self.N / self.rounds if self.rounds else 0.0

    @property
    def r_t(self) -> float:
        return target_invocation_ratio(self)

    @property
    def speedup(self) -> float:
        return speedup_vs_target_only(self, self.cost, self.t_o_base)

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "rounds": self.rounds,
            "tau_mean": self.tau_mean,
            "tokens_per_round": self.tokens_per_round,
            "t_d_mean": self.draft_time / self.rounds if self.rounds else 0.0,
            "t_v_mean": self.verify_time / self.rounds if self.rounds else 0.0,
            "t_o_mean": self.overhead_time / self.rounds if self.rounds else 0.0,
            "L": self.L,
            "r_t": self.r_t,
            "speedup": self.speedup if self.N else 0.0,
            "lemma_residual": lemma_check(self),
            "drafter_passes": self.drafter_passes,
            "proxy_passes": self.proxy_passes,
            "target_passes": self.target_passes,
            "case_counts": dict(sorted(self.case_counts.items())),
            "continuation_ppl": self.continuation_ppl,
            "cost_model": dict(vars(self.cost)),  # every field a number: a shallow copy
        }


def accumulate(report: RunReport, rounds: Iterable[Round]) -> list[float]:
    """Fold a run's rounds into its report and return what each round cost.

    The report is a fold over the rounds, in round order, that leaves what
    one ``add_round`` per round would: every float sum adds its terms
    sequentially, as ``reduce`` does (a pairwise or compensated sum, such
    as ``math.fsum``, or builtin ``sum`` of floats on recent Pythons, would
    change the last bits), integer sums are exact in any order, and cases
    are counted in first-seen order. Pass counts come from each round's
    meter, so a proxy-only round costs ``k * c_d + c_p + t_o`` and an
    escalated round additionally pays ``c_t``. A round that emits nothing
    raises before the report is touched.
    """
    rounds = list(rounds)
    if not rounds:
        return []
    emitted = [len(rnd.emitted) for rnd in rounds]
    if min(emitted) < 1:
        raise ValueError("a round emits at least one token")
    d, p, t = zip(*[rnd.passes for rnd in rounds])
    cost = report.cost
    draft = list(map(mul, d, repeat(cost.c_d)))
    verify = list(map(add, map(mul, p, repeat(cost.c_p)), map(mul, t, repeat(cost.c_t))))
    n, tokens = len(rounds), sum(emitted)
    report.N += tokens
    report.rounds += n
    report.accepted_total += tokens - n
    report.draft_time = reduce(add, draft, report.draft_time)
    report.verify_time = reduce(add, verify, report.verify_time)
    report.overhead_time = reduce(add, repeat(cost.t_o, n), report.overhead_time)
    report.drafter_passes += sum(d)
    report.proxy_passes += sum(p)
    report.target_passes += sum(t)
    counts = report.case_counts
    for label, times in Counter([rnd.case._value_ for rnd in rounds]).items():
        counts[label] = counts.get(label, 0) + times
    return list(map(add, map(add, draft, verify), repeat(cost.t_o)))


def lemma_check(report: RunReport) -> float:
    """Residual of the latency decomposition identity; 0 up to float noise.

    With ``tau = N / rounds`` and per-round means of draft, verify and
    overhead time, ``(N / tau) * (t_d + t_v + t_o)`` must reproduce the
    accumulated total latency exactly.
    """
    if report.rounds == 0:
        return 0.0
    tau = report.N / report.rounds
    t_d = report.draft_time / report.rounds
    t_v = report.verify_time / report.rounds
    t_o = report.overhead_time / report.rounds
    predicted = (report.N / tau) * (t_d + t_v + t_o)
    return abs(report.L - predicted)


def target_invocation_ratio(report: RunReport) -> float:
    """Target batch passes per generated token (the headline r_t)."""
    return report.target_passes / report.N if report.N else 0.0


def speedup_vs_target_only(report: RunReport, cost: CostModel, t_o_base: float = 0.0) -> float:
    """Latency ratio against plain one-token-per-pass target decoding."""
    if report.N == 0 or report.L <= 0.0:
        raise ValueError("speedup needs a non-empty run with positive latency")
    baseline = report.N * cost.c_t + report.N * t_o_base
    return baseline / report.L


@dataclass(frozen=True)
class MarginHistogram:
    """Two-class margin histogram, globally normalized.

    Per proxy-margin bin, the mass of positions where proxy and target
    argmax agree (``match_mass``) and where they disagree
    (``mismatch_mass``); all masses sum to 1 across the whole histogram.
    """

    edges: tuple[float, ...]
    match_mass: tuple[float, ...]
    mismatch_mass: tuple[float, ...]
    positions: int

    @property
    def bins(self) -> int:
        return len(self.match_mass)

    def to_rows(self) -> list[tuple[float, float, float]]:
        mids = [(self.edges[i] + self.edges[i + 1]) / 2.0 for i in range(self.bins)]
        return list(zip(mids, self.match_mass, self.mismatch_mass))

    def mismatch_fraction(self) -> list[tuple[float, float]]:
        """Per occupied bin: (bin midpoint, share of mismatches in the bin)."""
        out = []
        for mid, match, mismatch in self.to_rows():
            total = match + mismatch
            if total > 0.0:
                out.append((mid, mismatch / total))
        return out


def margin_histogram(
    proxy: ModelOracle,
    target: ModelOracle,
    contexts: Sequence[tuple[int, ...]],
    bins: int = 20,
) -> MarginHistogram:
    """Stratify proxy/target argmax agreement by the proxy's margin.

    Evaluates both oracles on every context (through forks, so decode
    counters stay untouched), buckets the proxy's top1-top2 margin into
    equal-width bins over [0, 1], and normalizes by the total number of
    positions so the two stacked classes sum to 1 overall.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    if not contexts:
        raise ValueError("need at least one evaluation context")
    proxy = proxy.fork()
    target = target.fork()
    match = np.zeros(bins, dtype=np.int64)
    mismatch = np.zeros(bins, dtype=np.int64)
    for ctx in contexts:
        p = proxy.next_dist(ctx)
        t = target.next_dist(ctx)
        idx = min(int(top2_margin(p) * bins), bins - 1)
        if p.argmax() == t.argmax():
            match[idx] += 1
        else:
            mismatch[idx] += 1
    total = len(contexts)
    edges = tuple(i / bins for i in range(bins + 1))
    return MarginHistogram(
        edges=edges,
        match_mass=tuple(match / total),
        mismatch_mass=tuple(mismatch / total),
        positions=total,
    )
