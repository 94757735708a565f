"""Greedy ternary rounds from the target's round table.

At T=0 a round reads no randomness and each oracle reads only its window,
so a round is a pure function of the context's last ``max(window)``
tokens, the round shape, the trust rule and the oracles' states. The
target's states keep every greedy round under that key; a repeat drafts,
replays the proxy's pass (and the target's, if it escalated) and returns
the stored round. These tests hold a repeat to the round played afresh,
with every store empty, on the same context: every field, and each role's
passes, positions and walked states, pass for pass.
"""

from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trispec.baselines import RoutingSignal
from trispec.core import Distribution, Vocabulary
from trispec.harness import ExperimentConfig, build_family, run_experiment, sweep, write_sweep_csv
from trispec.models import ModelOracle, TableModel
from trispec.router import MarginRule, TreeParams, trispec_round, trispec_tree_round
from trispec.verification import DecodeStreams, Round

ROLES = ("drafter", "proxy", "target")
# Positions scored by each pass method, as the benchmark's tracer counts them.
POSITIONS = {
    "next_dist": lambda ctx: 1,
    "batch_score": lambda ctx, drafted: len(drafted) + 1,
    "batch_score_paths": lambda ctx, paths: len(paths),
}


@contextmanager
def _pass_log(oracles):
    """Log every pass of ``oracles`` as (role, method, positions, walked)."""
    role_of = {id(o): role for o, role in zip(oracles, ROLES)}
    log = []
    originals = {name: vars(ModelOracle)[name] for name in POSITIONS}

    def wrap(name, fn):
        def logged(oracle, *args):
            out = fn(oracle, *args)
            log.append((role_of[id(oracle)], name, POSITIONS[name](*args), list(oracle.walked)))
            return out
        return logged

    for name, fn in originals.items():
        setattr(ModelOracle, name, wrap(name, fn))
    try:
        yield log
    finally:
        for name, fn in originals.items():
            setattr(ModelOracle, name, fn)


def _fields(rnd: Round) -> tuple:
    """Every field of a round; a chain round's draft by its tokens and walk."""
    draft = rnd.draft  # the last field
    return (*rnd[:-1], None if draft is None else (draft.tokens, list(draft.walk.ids)))


def _played(oracles, ctx, play):
    """A round on fresh forks, what its passes logged, and what each fork
    walked last."""
    forks = [o.fork() for o in oracles]
    with _pass_log(forks) as log:
        rnd = play(*forks, ctx)
    return rnd, log, [f.walked for f in forks]


@contextmanager
def _empty_stores(oracles):
    """Empty round table and draft memo for forks made inside, then the old ones back."""
    drafter, target_states = oracles[0], oracles[2]._states
    drafts, rounds = drafter._drafts, target_states.rounds
    drafter._drafts, target_states.rounds = {}, {}
    try:
        yield
    finally:
        drafter._drafts, target_states.rounds = drafts, rounds


def _check_against_fresh(oracles, ctx, play) -> tuple[bool, tuple[int, ...]]:
    """Play ``ctx`` with the stores as they are and afresh; both must agree.
    Returns whether the round was a repeat, a hit in the table, and what
    it emitted."""
    table = oracles[2]._states.rounds
    size = len(table)
    got, got_log, got_walked = _played(oracles, ctx, play)
    with _empty_stores(oracles):
        fresh, fresh_log, fresh_walked = _played(oracles, ctx, play)
    assert _fields(got) == _fields(fresh)
    assert got_log == fresh_log
    assert got_walked == fresh_walked
    stored = [v if isinstance(v, Round) else v[0] for v in table.values()]
    assert any(got is rnd for rnd in stored)  # a miss stores it, a hit hands it out
    return len(table) == size, got.emitted


# ---------------------------------------------------------------------------
# generated table families
# ---------------------------------------------------------------------------


@st.composite
def _table(draw, vocab):
    """A small table oracle whose rows are full of ties and zero entries."""
    weights = st.lists(st.integers(0, 4), min_size=vocab, max_size=vocab).filter(any)

    def row():
        w = [float(x) for x in draw(weights)]
        return Distribution([x / sum(w) for x in w])

    tokens = st.integers(0, vocab - 1)
    keys = draw(st.lists(st.one_of(st.tuples(tokens), st.tuples(tokens, tokens)),
                         max_size=5, unique=True))
    return TableModel(Vocabulary(vocab), {key: row() for key in keys}, default=row())


@st.composite
def _family(draw):
    vocab = draw(st.integers(2, 4))
    prompts = st.lists(st.integers(0, vocab - 1), max_size=4).map(tuple)
    return [draw(_table(vocab)) for _ in range(3)], draw(st.lists(prompts, min_size=2, max_size=4))


TOKENS = 10  # per decode: enough rounds that window tails recur
_LAMS = st.sampled_from([0.0, -1.0, 0.25, 0.5, 1.01])


def _chain(k, rule, raw_bonus=False):
    return lambda d, p, t, ctx: trispec_round(
        d, p, t, ctx, k, rule, 0.0, DecodeStreams.from_seed(0), raw_bonus=raw_bonus
    )


def _tree(params, rule):
    return lambda d, p, t, ctx: trispec_tree_round(d, p, t, ctx, params, rule)


def _decode(oracles, prompts, play) -> int:
    """Decode every prompt, checking each round against a fresh one; the
    number of rounds that were repeats."""
    hits = 0
    for prompt in prompts:
        ctx = prompt
        while len(ctx) < len(prompt) + TOKENS:
            hit, emitted = _check_against_fresh(oracles, ctx, play)
            hits += hit
            ctx += emitted
    return hits


@settings(max_examples=150, deadline=None, derandomize=True)
@given(family=_family(), k=st.integers(1, 3), lam=_LAMS, raw_bonus=st.booleans())
def test_a_repeated_chain_round_is_the_fresh_round_pass_for_pass(family, k, lam, raw_bonus):
    oracles, prompts = family
    _decode(oracles, prompts, _chain(k, MarginRule(lam), raw_bonus))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(family=_family(), depth=st.integers(1, 3), topk=st.integers(1, 3),
       budget=st.integers(1, 6), lam=_LAMS)
def test_a_repeated_tree_round_is_the_fresh_round_pass_for_pass(family, depth, topk, budget, lam):
    oracles, prompts = family
    _decode(oracles, prompts, _tree(TreeParams(depth, topk, budget), MarginRule(lam)))


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.01])
@pytest.mark.parametrize("shape", ["chain", "tree"])
def test_repeats_on_the_reference_family_hit_and_match(ref_family, shape, lam):
    """On the trained family, decodes that meet the same window tails hit
    the table, and every hit is the fresh round."""
    oracles = [ref_family.drafter, ref_family.proxy, ref_family.target]
    play = _chain(6, MarginRule(lam)) if shape == "chain" else _tree(TreeParams(), MarginRule(lam))
    prompts = [tuple(ref_family.held_tokens[i : i + 12]) for i in (0, 40, 80)]
    assert _decode(oracles, prompts + prompts, play) > 0


# ---------------------------------------------------------------------------
# what the table keeps apart
# ---------------------------------------------------------------------------


def _small_config(**overrides):
    return replace(ExperimentConfig(), num_prompts=3, max_new_tokens=16, **overrides)


def test_sampled_rounds_never_enter_the_table():
    cfg = _small_config(temperature=1.0)
    family = build_family(cfg)
    run_experiment(cfg, family)
    run_experiment(replace(cfg, lam=1.01), family)
    assert family.target._states.rounds == {}
    run_experiment(replace(cfg, temperature=0.0), family)
    assert family.target._states.rounds


def test_shapes_rules_and_families_never_collide(ref_family):
    oracles = [ref_family.drafter, ref_family.proxy, ref_family.target]
    ctx = tuple(ref_family.held_tokens[100:120])
    plays = [
        _chain(2, MarginRule(0.5)),
        _chain(3, MarginRule(0.5)),
        _chain(3, MarginRule(0.25)),
        _chain(3, MarginRule(1.01)),
        _chain(3, RoutingSignal("top1_prob", 0.5)),
        _chain(3, RoutingSignal("composite_entropy", 0.5)),
        _tree(TreeParams(3, 2, 4), MarginRule(0.5)),
        _tree(TreeParams(3, 2, 5), MarginRule(0.5)),
        _tree(TreeParams(3, 3, 4), MarginRule(0.5)),
        _tree(TreeParams(2, 2, 4), MarginRule(0.5)),
        _tree(TreeParams(3, 2, 4), MarginRule(0.25)),
    ]
    with _empty_stores(oracles):
        table = oracles[2]._states.rounds
        for n, play in enumerate(plays, 1):
            assert not _check_against_fresh(oracles, ctx, play)[0]
            assert len(table) == n
        for play in plays:  # each again: now a hit on its own entry
            assert _check_against_fresh(oracles, ctx, play)[0]
        assert len(table) == len(plays)

        # another proxy or drafter beside the same target keys apart too
        other = build_family(_small_config(epsilon=0.3, family="perturbed"))
        for swapped in ([oracles[0], other.proxy, oracles[2]], [other.drafter, oracles[1], oracles[2]]):
            assert not _check_against_fresh(swapped, ctx, plays[2])[0]
        assert len(table) == len(plays) + 2


def test_the_rule_and_shape_in_a_key_hash_and_compare_in_c():
    """Every greedy round looks its key up: the margin rule and the tree
    shape in it hash and compare as tuples do, with no Python-level
    ``__hash__`` or ``__eq__``, and still refuse what they refused."""
    for cls in (MarginRule, TreeParams):
        assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__
    assert isinstance(MarginRule(0.5), MarginRule) and MarginRule(lam=0.5).lam == 0.5
    with pytest.raises(ValueError, match="NaN"):
        MarginRule(float("nan"))


def test_a_lambda_sweep_on_one_family_writes_what_fresh_families_write(tmp_path):
    """A sweep runs every point on one family, so later points read rounds
    that earlier ones stored; the rows are those of a family per point."""
    cfg = _small_config()
    grid = {"lambda": ["0.5", "0", "0.25", "0.5", "1.01"], "use_tree": ["false", "true"]}
    columns, rows = sweep(cfg, grid)
    write_sweep_csv(columns, rows, tmp_path / "shared.csv")
    fresh_rows = []
    for lam in grid["lambda"]:
        for use_tree in grid["use_tree"]:
            _, point = sweep(cfg, {"lambda": [lam], "use_tree": [use_tree]})
            fresh_rows += point
    write_sweep_csv(columns, fresh_rows, tmp_path / "fresh.csv")
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
