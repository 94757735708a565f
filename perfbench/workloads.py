"""The benchmark's workloads and the inputs each one makes from a seed.

A workload is a grid of experiment configs over one trained family and
several groups of prompts. One pass runs every (group, config) pair once; a
request is one pair of one pass: ``run_experiment`` on the group's prompts,
then ``report.json`` and ``trace.csv`` written, the work of one
``trispec run`` at the command's default size of 12 prompts of 48 new
tokens each.

A group is the whole held-out stream, read from a line start round to the
same point, so that ``run_experiment`` derives its prompts from the
held-out lines that follow that start, scanning the full stream as a
``trispec run`` does. The seed picks the first group's start line; the
other groups start evenly spaced round the held-out lines after it, so
that the run samples the whole held-out split rather than one passage of
it. On the sampled workload the seed also picks the decode seeds. The
trained family does not depend on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Sequence

from trispec import harness

# derive_prompts drops held-out lines shorter than this.
MIN_LINE = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict        # ExperimentConfig fields shared by every request
    groups: int            # prompt groups; num_prompts is per group
    lams: tuple[float, ...]
    decode_seeds: int      # decode seeds per lambda

    def base_config(self) -> harness.ExperimentConfig:
        cfg = replace(harness.ExperimentConfig(), **self.overrides)
        cfg.validate()
        return cfg

    def requests(self, seed: int) -> list[tuple[int, harness.ExperimentConfig]]:
        """The (group, config) pairs of one pass, in the order every pass
        runs them."""
        base = self.base_config()
        out = []
        for lam in self.lams:
            for i in range(self.decode_seeds):
                decode_seed = seed * self.decode_seeds + i
                for group in range(self.groups):
                    run_id = f"{self.name}-lambda{lam:g}-seed{decode_seed}-group{group}"
                    cfg = replace(base, lam=lam, seed=decode_seed, run_id=run_id)
                    cfg.validate()
                    out.append((group, cfg))
        return out


_NGRAM = {"family": "ngram", "orders": (2, 3, 4), "method": "trispec", "k": 6}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="greedy-chain",
            why="greedy chain drafting over both router cases; greedy scoring "
            "builds a one-hot Distribution per position and n-gram passes are memo hits",
            overrides={**_NGRAM, "temperature": 0.0},
            groups=4,
            lams=(0.0, 0.25, 0.5, 0.75, 1.01),
            decode_seeds=1,
        ),
        Workload(
            name="sampled-perturbed",
            why="sampling, acceptance coins and residual draws, with an "
            "un-memoised mixture proxy rebuilt at every proxy position",
            overrides={
                **_NGRAM,
                "family": "perturbed",
                "epsilon": 0.3,
                "noise": "unigram",
                "temperature": 1.0,
            },
            groups=3,
            lams=(0.0, 0.25, 0.5, 1.01),
            decode_seeds=3,
        ),
        Workload(
            name="greedy-tree",
            why="tree drafting, greedy tree verification and tree pruning, "
            "which run on no other workload; drafting dominates its time",
            overrides={
                **_NGRAM,
                "use_tree": True,
                "tree_depth": 6,
                "tree_topk": 10,
                "tree_budget": 60,
                "temperature": 0.0,
            },
            groups=2,
            lams=(0.0, 0.5, 1.01),
            decode_seeds=1,
        ),
    )
}


def line_starts(held: Sequence[int], newline_id: int) -> list[int]:
    """Where each held-out line long enough for derive_prompts starts."""
    starts, start = [], 0
    for i, tok in enumerate(held):
        if tok == newline_id:
            if i - start >= MIN_LINE:
                starts.append(start)
            start = i + 1
    if len(held) - start >= MIN_LINE:
        starts.append(start)
    return starts


def rotated(held: Sequence[int], newline_id: int, start: int) -> list[int]:
    """The held-out stream read from ``start`` round to the same point, with
    a newline where its end meets its beginning so no two lines merge."""
    joint = [newline_id] if held and held[-1] != newline_id else []
    return [*held[start:], *joint, *held[:start]]


def seeded_groups(
    family: harness.Family, seed: int, groups: int, num_prompts: int
) -> list[harness.Family]:
    """One view of the family per prompt group, its held-out stream rotated
    to start at the group's first line: the seeded line for group 0, then
    lines evenly spaced round the held-out lines after it."""
    if not family.vocab.symbols or "\n" not in family.vocab.symbols:
        raise ValueError("the corpus has no line structure to draw prompts from")
    newline_id = family.vocab.symbols.index("\n")
    starts = line_starts(family.held_tokens, newline_id)
    if len(starts) < groups * num_prompts:
        raise ValueError(f"{len(starts)} held-out lines cannot give {groups} groups of {num_prompts}")
    first = random.Random(seed).randrange(len(starts))
    return [
        replace(family, held_tokens=rotated(
            family.held_tokens, newline_id, starts[(first + g * len(starts) // groups) % len(starts)]
        ))
        for g in range(groups)
    ]


def setup(workload: Workload, seed: int) -> list[tuple[harness.Family, list[tuple[int, ...]]]]:
    """Train the family and derive each group's prompts: the set-up a user
    pays before the first request."""
    cfg = workload.base_config()
    views = seeded_groups(harness.build_family(cfg), seed, workload.groups, cfg.num_prompts)
    return [
        (view, harness.derive_prompts(
            view.held_tokens, view.vocab, cfg.tokenizer, cfg.num_prompts, cfg.prompt_fraction
        ))
        for view in views
    ]
