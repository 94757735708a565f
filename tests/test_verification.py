"""Acceptance rule, corrections, chain and tree verification rounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trispec.baselines import RoutingSignal
from trispec.core import Distribution, RandomStream, Vocabulary, top2_margin
from trispec.drafting import DraftChain, TreeParams, draft_chain, draft_tree, prune_tree_prefix
from trispec.models import TableModel, Walk
from trispec.router import MarginRule, trusted_prefix_len
from trispec.suites import first_token_law, mc_first_token_distance
from trispec.verification import (
    DecodeStreams,
    DegenerateResidualError,
    acceptance_coins,
    draw_correction,
    residual_dist,
    sd_round,
    sd_tree_round,
    verify_chain,
    verify_tree_greedy,
)


class FixedUniforms:
    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def uniform(self):
        self.draws += 1
        return self.values.pop(0)


def _chain(tokens, dists):
    return DraftChain.of_rows(tokens, dists)


def _walk(dists):
    """A verifier's walk over a hand-built block: one state per row."""
    return Walk.of_rows(np.asarray(dists, dtype=float))


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def test_streams_are_scoped_and_labelled():
    streams = DecodeStreams.from_seed(7, scope="eq0")
    assert streams.draft.uniform() == RandomStream(7, "eq0/draft").uniform()
    assert streams.proxy_coins.uniform() == RandomStream(7, "eq0/coins/proxy").uniform()
    bare = DecodeStreams.from_seed(7)
    assert bare.correction.uniform() == RandomStream(7, "correction").uniform()


def test_coins_for_selects_role_stream():
    streams = DecodeStreams.from_seed(1)
    assert streams.coins_for("target") is streams.target_coins
    assert streams.coins_for("proxy") is streams.proxy_coins
    with pytest.raises(ValueError):
        streams.coins_for("drafter")


# ---------------------------------------------------------------------------
# acceptance coins
# ---------------------------------------------------------------------------


def test_greedy_acceptance_is_argmax_match_and_drawless():
    draft = _chain((0, 1), ([1.0, 0.0], [0.0, 1.0]))
    dists = np.array([[0.9, 0.1], [0.9, 0.1]])
    stream = FixedUniforms([])
    coins, tau = acceptance_coins(draft, _walk(dists), 0.0, stream)
    assert (coins, tau) == ((1, 0), 1)
    assert stream.draws == 0


def test_coin_threshold_is_the_probability_ratio():
    draft = _chain((0,), ([0.8, 0.2],))
    dists = np.array([[0.4, 0.6]])  # ratio = 0.4 / 0.8 = 0.5
    assert acceptance_coins(draft, _walk(dists), 1.0, FixedUniforms([0.49])) == ((1,), 1)
    assert acceptance_coins(draft, _walk(dists), 1.0, FixedUniforms([0.51])) == ((0,), 0)


def test_acceptance_stops_at_first_rejection():
    half = [0.5, 0.5]
    draft = _chain((0, 0, 0, 0), (half, half, half, half))
    dists = np.array([half, half, [0.0, 1.0], half])
    stream = FixedUniforms([0.9, 0.9, 0.9, 0.9])
    coins, tau = acceptance_coins(draft, _walk(dists), 1.0, stream)
    assert (coins, tau) == ((1, 1, 0), 2)
    assert stream.draws == 3  # the position after the rejection is never examined


def test_full_acceptance_consumes_k_coins():
    half = [0.5, 0.5]
    draft = _chain((1, 1), (half, half))
    dists = np.array([half, half])
    stream = FixedUniforms([0.3, 0.3])
    coins, tau = acceptance_coins(draft, _walk(dists), 1.0, stream)
    assert (coins, tau) == ((1, 1), 2)
    assert stream.draws == 2


# ---------------------------------------------------------------------------
# corrections
# ---------------------------------------------------------------------------


def test_residual_is_normalized_positive_excess():
    res = residual_dist(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    assert res.tolist() == [0.0, 1.0]


def test_residual_of_identical_dists_is_degenerate():
    with pytest.raises(DegenerateResidualError):
        residual_dist(np.array([0.5, 0.5]), np.array([0.5, 0.5]))


def test_a_degenerate_residual_raises_on_every_draw_and_keeps_no_cdf():
    """Where no rejection can happen, equal drafter and verifier rows, a
    forced residual draw raises each time, and the verifier's store holds
    nothing for the pair."""
    row = Distribution([0.25, 0.75])
    vocab = Vocabulary(2)
    drafter, verifier = TableModel(vocab, {}, default=row), TableModel(vocab, {}, default=row)
    draft = draft_chain(drafter, (), 1, 1.0, RandomStream(3, "draft"))
    walk = verifier.batch_score((), draft.tokens)
    for _ in range(2):
        with pytest.raises(DegenerateResidualError):
            draw_correction(draft, walk, 0, 1.0, RandomStream(3, "correction"))
    store = verifier._states.residuals[drafter._states]
    assert store.index == {} and len(store.cdf) == 0


def test_correction_after_rejection_comes_from_residual():
    draft = _chain((0,), ([0.5, 0.5],))
    dists = np.array([[0.25, 0.75], [0.9, 0.1]])
    stream = FixedUniforms([])
    token, is_bonus = draw_correction(draft, _walk(dists), 0, 0.0, stream)
    assert (token, is_bonus) == (1, False)
    assert stream.draws == 0  # greedy corrections take the argmax directly
    stream = FixedUniforms([0.5])
    token, is_bonus = draw_correction(draft, _walk(dists), 0, 1.0, stream)
    assert (token, is_bonus) == (1, False)
    assert stream.draws == 1


def test_correction_after_full_acceptance_is_the_bonus():
    draft = _chain((0,), ([0.5, 0.5],))
    dists = np.array([[0.25, 0.75], [0.1, 0.9]])
    token, is_bonus = draw_correction(draft, _walk(dists), 1, 0.0, FixedUniforms([]))
    assert (token, is_bonus) == (1, True)
    token, is_bonus = draw_correction(draft, _walk(dists), 1, 1.0, FixedUniforms([0.05]))
    assert (token, is_bonus) == (0, True)  # low uniform lands in the 0.1 cell


# ---------------------------------------------------------------------------
# chain verification
# ---------------------------------------------------------------------------


def test_verify_chain_needs_one_extra_dist():
    draft = _chain((0,), ([0.5, 0.5],))
    with pytest.raises(ValueError):
        verify_chain(draft, _walk([[0.5, 0.5]]), 1.0, FixedUniforms([]), FixedUniforms([]))


def test_verify_chain_emits_accepted_prefix_plus_correction():
    draft = _chain((0, 1), ([0.6, 0.4], [0.6, 0.4]))
    dists = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    verdict = verify_chain(draft, _walk(dists), 0.0, FixedUniforms([]), FixedUniforms([]))
    assert verdict.coins == (1, 1)  # argmaxes match the drafted tokens
    assert verdict.tau == 2
    assert verdict.is_bonus
    assert verdict.emitted == (0, 1, 0)  # the bonus is the last row's argmax
    assert np.array_equal(verdict.walk.rows, dists)
    with pytest.raises(AttributeError):
        verdict.tau = 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vocab=st.integers(2, 4), temperature=st.sampled_from([0.0, 1.0]), data=st.data())
def test_a_chain_verdict_is_accepted_tokens_then_one_correction(vocab, temperature, data):
    """From any start: coins are all 1s with at most one trailing 0, the
    tau accepted tokens are the draft's from ``start`` on, the walk is the
    verifier's first tau + 1 states, the correction is a bonus exactly
    after full acceptance, and at T=0 it is the last state's argmax."""
    drafter, verifier = data.draw(_table(vocab), "drafter"), data.draw(_table(vocab), "verifier")
    ctx = tuple(data.draw(st.lists(st.integers(0, vocab - 1), max_size=3), "ctx"))
    k = data.draw(st.integers(1, 3), "k")
    start = data.draw(st.integers(0, k), "start")
    stream = RandomStream(data.draw(st.integers(0, 2**16), "seed"), "verdict")
    draft = draft_chain(drafter, ctx, k, temperature, stream)
    walk = verifier.batch_score(ctx + draft.tokens[:start], draft.tokens[start:])
    verdict = verify_chain(draft, walk, temperature, stream, stream, start)
    tau = verdict.tau
    assert verdict.coins == (1,) * tau + (() if verdict.is_bonus else (0,))
    assert verdict.emitted[:-1] == draft.tokens[start : start + tau]
    assert verdict.walk.states is walk.states
    assert list(verdict.walk.ids) == list(walk.ids[: tau + 1])
    assert verdict.is_bonus == (start + tau == k)
    if temperature == 0.0:
        assert verdict.emitted[-1] == verdict.walk.argmaxes[-1]


def test_first_token_law_is_exact_and_holds_empirically():
    p_d = np.array([0.6, 0.3, 0.1])
    p_v = np.array([0.2, 0.5, 0.3])
    assert first_token_law(p_d, p_v) <= 1e-12
    assert mc_first_token_distance(p_d, p_v, rounds=30_000, seed=11) <= 0.05


# ---------------------------------------------------------------------------
# whole rounds
# ---------------------------------------------------------------------------


def test_sd_round_pass_accounting_and_greedy_coins(ref_family):
    fam = ref_family.fork()
    ctx = tuple(fam.train_tokens[:10])
    streams = DecodeStreams.from_seed(4, scope="sd")
    result = sd_round(fam.drafter, fam.target, ctx, 6, 0.0, streams)
    assert result.passes == (6, 0, 1)  # the verifier's pass counts as the target's
    # greedy drafting is the drafter's argmax walk, so the whole round is
    # recomputable without any randomness
    drafter = ref_family.drafter.fork()
    drafted = []
    for _ in range(6):
        drafted.append(drafter.next_dist(ctx + tuple(drafted)).argmax())
    dists = ref_family.target.fork().batch_score(ctx, drafted).rows
    coins = []
    for i, tok in enumerate(drafted):
        coins.append(1 if dists[i].argmax() == tok else 0)
        if not coins[-1]:
            break
    tau = len(coins) - (1 if coins[-1] == 0 else 0)
    assert result.coins == tuple(coins)
    assert result.tau_a == tau
    assert result.emitted[:tau] == tuple(drafted[:tau])
    assert result.emitted[-1] == dists[tau].argmax()


def test_sd_round_uses_only_the_selected_coin_stream(ref_family):
    fam = ref_family.fork()
    ctx = tuple(fam.train_tokens[:10])
    proxy_coins = FixedUniforms([0.5] * 10)
    target_coins = FixedUniforms([0.5] * 10)
    correction = FixedUniforms([0.5])
    streams = DecodeStreams(
        draft=RandomStream(3, "draft"),
        proxy_coins=proxy_coins,
        target_coins=target_coins,
        correction=correction,
    )
    result = sd_round(fam.drafter, fam.proxy, ctx, 5, 1.0, streams, verifier_role="proxy")
    assert target_coins.draws == 0
    assert proxy_coins.draws == len(result.coins)
    assert result.passes == (5, 1, 0)
    assert correction.draws == 1


# ---------------------------------------------------------------------------
# tree verification
# ---------------------------------------------------------------------------


def _tree_drafter():
    return TableModel(
        Vocabulary(3),
        {
            (0,): Distribution([0.6, 0.3, 0.1]),
            (1,): Distribution([0.2, 0.5, 0.3]),
            (2,): Distribution([0.44, 0.11, 0.45]),
        },
        default=Distribution([0.5, 0.28, 0.22]),
    )


def test_tree_verify_divergence_with_siblings_left():
    tree = draft_tree(_tree_drafter(), (), depth=2, branch_topk=2, budget=6)
    verifier = TableModel(
        Vocabulary(3),
        {(1,): Distribution([0.6, 0.2, 0.2])},
        default=Distribution([0.2, 0.6, 0.2]),
    )
    result = verify_tree_greedy(tree, verifier)
    assert result.emitted == (1, 0)  # root argmax picks the drafted 1-branch, then 0
    assert not result.is_bonus  # the walk stopped on a divergence, not a leaf
    assert result.tau == 1 and result.coins == (1,)
    assert result.walk.argmaxes == [1, 0]
    assert verifier.invocation_count == 1  # whole tree scored in one pass


def test_tree_verify_full_path_is_exhausted():
    tree = draft_tree(_tree_drafter(), (), depth=2, branch_topk=2, budget=6)
    verifier = TableModel(
        Vocabulary(3),
        {
            (0,): Distribution([0.7, 0.2, 0.1]),
            (0, 0): Distribution([0.1, 0.2, 0.7]),
        },
        default=Distribution([0.6, 0.2, 0.2]),
    )
    result = verify_tree_greedy(tree, verifier)
    assert result.emitted == (0, 0, 2)  # the accepted path, then the bonus 2
    assert result.is_bonus  # accepted node is a leaf of the draft
    assert result.tau == 2 and result.coins == (1, 1)
    assert result.walk.argmaxes[-1] == 2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vocab=st.integers(2, 4), data=st.data())
def test_a_tree_verdict_is_a_root_anchored_path_then_one_correction(vocab, data):
    """On drafted and pruned trees (an empty remainder too): the accepted
    tokens are a root-anchored path, every coin is 1, the walk has one
    state per accepted token plus the root's and ends on the correction,
    and the correction is a bonus exactly when the last accepted node is
    childless."""
    drafter, verifier = data.draw(_table(vocab), "drafter"), data.draw(_table(vocab), "verifier")
    ctx = tuple(data.draw(st.lists(st.integers(0, vocab - 1), max_size=3), "ctx"))
    shape = [data.draw(st.integers(1, n), name) for n, name in ((3, "depth"), (vocab, "topk"),
                                                                 (8, "budget"))]
    tree = draft_tree(drafter, ctx, *shape)
    leaf = data.draw(st.integers(-1, len(tree) - 1), "cut below")
    tree = prune_tree_prefix(tree, tree.path_tokens(leaf))
    verdict = verify_tree_greedy(tree, verifier)
    tau, cur = verdict.tau, -1
    for token in verdict.emitted[:-1]:
        (cur,) = [c for c in tree.children(cur) if tree.nodes[c].token == token]
    assert verdict.coins == (1,) * tau
    assert len(verdict.walk.ids) == tau + 1
    assert verdict.emitted[-1] == verdict.walk.argmaxes[-1]
    assert verdict.is_bonus == (not tree.children(cur))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(start=st.integers(0, 4000), lead=st.integers(0, 28), data=st.data())
def test_tree_verify_scores_every_node_path_after_the_root(ref_family, start, lead, data):
    """On drafted, rebased (memo-hit) and pruned trees, the one verifier pass
    is the pass over the root's empty path and then each node's path, and
    the walk follows that pass's argmaxes."""
    drafter = ref_family.drafter.fork()
    ctx = tuple(ref_family.held_tokens[start : start + 8])
    drafted = draft_tree(drafter, ctx, 6, 10, 60)
    rebased = draft_tree(drafter, (lead,) + ctx, 6, 10, 60)  # same window tail
    path = drafted.path_tokens(data.draw(st.integers(0, len(drafted) - 1), label="leaf"))
    pruned = prune_tree_prefix(drafted, path[: data.draw(st.integers(1, len(path)), label="cut")])
    assert rebased.nodes is drafted.nodes and rebased.ctx == (lead,) + ctx
    for tree in (drafted, rebased, pruned):
        for oracle in (ref_family.proxy, ref_family.target):
            probe = oracle.fork()
            want = probe.batch_score_paths(
                tree.ctx, [()] + [tree.path_tokens(i) for i in range(len(tree))]
            ).rows
            best = probe.walk().argmaxes
            verifier, scored = oracle.fork(), []
            score = verifier.batch_score_paths
            verifier.batch_score_paths = lambda c, p: scored.append(score(c, p)) or scored[-1]
            result = verify_tree_greedy(tree, verifier)
            assert verifier.invocation_count == len(scored) == 1
            assert np.array_equal(scored[0].rows, want) and verifier.walk().argmaxes == best

            ids, cur = [], -1
            while True:
                kids = [c for c in tree.children(cur) if tree.nodes[c].token == best[cur + 1]]
                if not kids:
                    break
                cur = kids[0]
                ids.append(cur)
            assert result.emitted == tuple(tree.nodes[i].token for i in ids) + (best[cur + 1],)
            assert np.array_equal(result.walk.rows, want[[0] + [i + 1 for i in ids]])


def test_tree_round_with_unit_branching_matches_chain_round(ref_family):
    fam = ref_family.fork()
    twin = ref_family.fork()
    ctx = tuple(fam.train_tokens[:12])
    k = 6
    tree_result = sd_tree_round(fam.drafter, fam.target, ctx, TreeParams(k, 1, k))
    chain_result = sd_round(
        twin.drafter, twin.target, ctx, k, 0.0, DecodeStreams.from_seed(0, "t")
    )
    assert tree_result.emitted == chain_result.emitted
    assert tree_result.passes == (k, 0, 1) == chain_result.passes
    assert tree_result.tau_a == chain_result.tau_a


def test_tree_round_refuses_an_unknown_verifier_role(ref_family):
    fam = ref_family.fork()
    with pytest.raises(ValueError, match="unknown verifier role"):
        sd_tree_round(fam.drafter, fam.target, (0, 1), TreeParams(), "bogus")
    assert fam.drafter.invocation_count == fam.target.invocation_count == 0


# ---------------------------------------------------------------------------
# a pass's walk and the block it returned read alike
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


def _plain(verdict):
    """A verdict with its walk read as rows: walks over other states
    compare unequal even where their rows agree."""
    return verdict._replace(walk=verdict.walk.rows.tolist())


def _read(seed, call):
    """What ``call(stream)`` returns, and the uniforms it drew."""
    stream = RandomStream(seed, "read")
    return call(stream), stream.draws


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vocab=st.integers(2, 5), temperature=st.sampled_from([0.0, 1.0]), data=st.data())
def test_every_rule_reads_a_pass_walk_as_the_block_it_returned(vocab, temperature, data):
    """Given the verifier's walk over a draft, and given the block the same
    pass returned (``Walk.of_rows``), each rule returns the same result and
    draws the same uniforms, twice over: for a drafted chain and for the
    same chain built from its rows, from any start and, for the
    correction, at every length whose residual carries mass. The walk's
    residual draws go through the CDFs the verifier's states keep, a miss
    and then a hit."""
    drafter, verifier = data.draw(_table(vocab), "drafter"), data.draw(_table(vocab), "verifier")
    tokens = st.integers(0, vocab - 1)
    ctx = tuple(data.draw(st.lists(tokens, max_size=4), "ctx"))
    k = data.draw(st.integers(1, 5), "k")
    start = data.draw(st.integers(0, k), "start")
    seed = data.draw(st.integers(0, 2**16), "seed")
    drafted = draft_chain(drafter, ctx, k, temperature, RandomStream(seed, "draft"))
    walk = verifier.batch_score(ctx + drafted.tokens[:start], drafted.tokens[start:])
    assert walk == verifier.walk()  # the pass records the states it returns
    block = walk.rows
    rows = Walk.of_rows(block)
    drafts = (drafted, DraftChain.of_rows(drafted.tokens, drafted.dists))

    def agree(read):
        got = [_read(seed, lambda s: read(d, w, s)) for d in drafts for w in (walk, rows, walk)]
        assert got == got[:1] * len(got)

    T = temperature
    agree(lambda d, w, s: acceptance_coins(d, w, T, s, start=start))
    agree(lambda d, w, s: _plain(verify_chain(d, w, T, s, s, start)))
    for tau in range(k - start + 1):
        residual = block[tau] - drafted.dists[start + tau] if tau < k - start else block[tau]
        if T == 0.0 or (residual > 0.0).any():  # else no rejection can happen at tau
            agree(lambda d, w, s: draw_correction(d, w, tau, T, s, start))

    margins = top2_margin(block).tolist()
    for kind in ("margin", "top1_prob", "composite_entropy"):
        values = margins + block.max(axis=1).tolist()
        threshold = data.draw(st.one_of(st.sampled_from(values), st.floats(-0.5, 1.5)), kind)
        rule = MarginRule(threshold) if kind == "margin" else RoutingSignal(kind, threshold)
        assert trusted_prefix_len(walk, rule) == trusted_prefix_len(rows, rule)
    assert walk.margins == rows.margins == tuple(margins)
    assert walk.argmaxes == rows.argmaxes == block.argmax(axis=1).tolist()
