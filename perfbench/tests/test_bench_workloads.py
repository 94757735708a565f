"""Each prompt group is the full held-out stream rotated to a line, so
run_experiment derives the held-out lines that follow it as its prompts;
the seed picks the first group's line, the others are evenly spaced."""

from collections import Counter

from perfbench.workloads import MIN_LINE, WORKLOADS, line_starts, rotated, seeded_groups
from trispec.harness import build_family, derive_prompts

NL = 0


def test_rotation_keeps_every_line_whole():
    held = [5, 6, NL, 7, 8, 9, NL, 4]  # the stream need not end with a newline
    assert rotated(held, NL, 3) == [7, 8, 9, NL, 4, NL, 5, 6, NL]
    assert rotated(held, NL, 0) == held + [NL]
    assert rotated(held[:-1], NL, 3) == [7, 8, 9, NL, 5, 6, NL]


def test_line_starts_skip_short_lines():
    long_a, long_b = [1] * MIN_LINE, [2] * (MIN_LINE + 3)
    held = [*long_a, NL, 3, 3, NL, *long_b]
    assert line_starts(held, NL) == [0, MIN_LINE + 4]


def test_groups_decode_the_lines_after_evenly_spaced_starts():
    workload = WORKLOADS["greedy-chain"]
    cfg = workload.base_config()
    family = build_family(cfg)
    newline_id = family.vocab.symbols.index("\n")

    def prompts_of(held, num=cfg.num_prompts):
        return derive_prompts(held, family.vocab, cfg.tokenizer, num, cfg.prompt_fraction)

    every = prompts_of(family.held_tokens, len(line_starts(family.held_tokens, newline_id)))
    views = seeded_groups(family, seed=4, groups=3, num_prompts=cfg.num_prompts)
    first = every.index(prompts_of(views[0].held_tokens)[0])
    for g, view in enumerate(views):
        assert Counter(view.held_tokens) - Counter(family.held_tokens) <= Counter([newline_id])
        start = first + g * len(every) // len(views)
        want = [every[(start + i) % len(every)] for i in range(cfg.num_prompts)]
        assert prompts_of(view.held_tokens) == want
    assert seeded_groups(family, seed=4, groups=1, num_prompts=12)[0].held_tokens == views[0].held_tokens
