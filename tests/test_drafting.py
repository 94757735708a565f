"""Draft chains and budgeted draft trees."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trispec.core import Distribution, RandomStream, Vocabulary, apply_temperature
from trispec.drafting import (
    DraftChain,
    DraftTree,
    PathNotInTreeError,
    TreeNode,
    draft_chain,
    draft_tree,
    prune_tree_prefix,
)
from trispec.models import (
    MixtureProxy,
    ModelOracle,
    NgramModel,
    NGramSpec,
    PassMeter,
    ProxyDerivation,
    TableModel,
    train_ngram,
)


class FixedUniforms:
    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def uniform(self):
        self.draws += 1
        return self.values.pop(0)


V3 = Vocabulary(3)


def _last_token_model() -> TableModel:
    # Next-token law depends only on the most recent token. Probabilities
    # chosen so no two candidate paths tie on path probability.
    return TableModel(
        V3,
        {
            (0,): Distribution([0.6, 0.3, 0.1]),
            (1,): Distribution([0.2, 0.5, 0.3]),
            (2,): Distribution([0.44, 0.11, 0.45]),
        },
        default=Distribution([0.5, 0.28, 0.22]),
    )


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def test_chain_requires_tokens():
    with pytest.raises(ValueError):
        DraftChain((), ())
    with pytest.raises(ValueError):
        DraftChain((0, 1), np.array([[0.5, 0.5]]))


def test_chain_rejects_zero_probability_token():
    with pytest.raises(ValueError):
        DraftChain((1,), np.array([[1.0, 0.0]]))


def test_chain_suffix():
    d = [0.5, 0.5]
    chain = DraftChain((0, 1, 0), np.array([d, d, d]))
    tail = chain.suffix(1)
    assert tail.tokens == (1, 0)
    assert tail.k == 2
    with pytest.raises(ValueError):
        chain.suffix(3)  # empty chains are not representable


def test_draft_chain_greedy_matches_argmax_walk(ref_family):
    fam = ref_family.fork()
    ctx = tuple(fam.train_tokens[:8])
    chain = draft_chain(fam.drafter, ctx, 12, 0.0, RandomStream(5, "draft"))
    probe = fam.drafter.fork()
    walked = []
    for _ in range(12):
        walked.append(probe.next_dist(ctx + tuple(walked)).argmax())
    assert list(chain.tokens) == walked
    for i in range(12):  # a greedy chain keeps the raw rows, as a verifier does
        assert np.array_equal(chain.dists[i], probe.next_dist(ctx + chain.tokens[:i]))
    assert not chain.dists.flags.writeable


def test_draft_chain_consumes_one_uniform_per_token():
    model = _last_token_model()
    stream = FixedUniforms([0.99, 0.01, 0.50, 0.70])
    chain = draft_chain(model, (), 4, 1.0, stream)
    assert stream.draws == 4
    assert chain.k == 4
    assert model.invocation_count == 4  # chains are strictly autoregressive


def test_greedy_draft_chain_draws_no_uniform():
    model = _last_token_model()
    stream = FixedUniforms([])
    chain = draft_chain(model, (), 5, 0.0, stream)
    assert stream.draws == 0
    walked = [0]  # the default row's argmax, then each row's own
    for _ in range(4):
        walked.append(int(np.argmax(model.rows[(walked[-1],)])))
    assert chain.tokens == tuple(walked)
    raw = [model.default] + [model.rows[(t,)] for t in walked[:-1]]
    assert np.array_equal(chain.dists, raw)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), start=st.integers(0, 5000), k=st.integers(1, 12))
def test_sampled_draft_chain_draws_from_its_states_cdfs(ref_family, seed, start, k):
    """At T=1 a warm drafter's chain calls no ``sample``: each token comes
    from the CDF its state keeps, and is the token ``sample`` draws from
    the pass's row with the same uniform."""
    from unittest import mock

    from trispec import core, drafting

    fam = ref_family.fork()
    ctx = tuple(fam.held_tokens[start : start + 8])
    draft_chain(fam.drafter, ctx, k, 1.0, RandomStream(seed, "draft"))  # warms the states
    calls = []
    counted = lambda row, stream: calls.append(1) or core.sample(row, stream)  # noqa: E731
    stream = RandomStream(seed, "draft")
    with mock.patch.object(drafting, "sample", counted):
        chain = draft_chain(fam.drafter, ctx, k, 1.0, stream)
    assert calls == []
    ref_stream, tokens = RandomStream(seed, "draft"), []
    probe = fam.drafter.fork()
    for _ in range(k):  # the per-row rule: shape the row, then sample it
        row = apply_temperature(probe.next_dist(ctx + tuple(tokens)), 1.0)
        tokens.append(core.sample(row, ref_stream))
    assert chain.tokens == tuple(tokens) and stream.draws == ref_stream.draws == k
    assert np.array_equal(chain.dists, [probe.next_dist(ctx + chain.tokens[:i]) for i in range(k)])


def test_draft_chain_rejects_bad_k():
    with pytest.raises(ValueError):
        draft_chain(_last_token_model(), (), 0, 1.0, FixedUniforms([]))


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def test_tree_topk_one_is_the_greedy_chain():
    model = _last_token_model()
    tree = draft_tree(model, (), depth=4, branch_topk=1, budget=4)
    assert len(tree) == 4
    chain = draft_chain(model.fork(), (), 4, 0.0, RandomStream(0, "x"))
    deepest = max(range(len(tree)), key=lambda i: tree.nodes[i].depth)
    assert tree.path_tokens(deepest) == chain.tokens


def test_tree_matches_brute_force_selection():
    """Enumerate all per-node top-2 expansions by hand and keep the best 4."""
    model = _last_token_model()
    probe = model.fork()
    tree = draft_tree(model, (), depth=2, branch_topk=2, budget=4)

    pool = {}
    root = probe.next_dist(())
    for tok in np.argsort(-root)[:2]:
        pool[(int(tok),)] = root[tok]
        child = probe.next_dist((int(tok),))
        for nxt in np.argsort(-child)[:2]:
            pool[(int(tok), int(nxt))] = root[tok] * child[nxt]
    expect = sorted(pool, key=lambda p: -pool[p])[:4]

    got = {tree.path_tokens(i) for i in range(len(tree))}
    assert got == set(expect)
    for i in range(len(tree)):
        assert tree.nodes[i].path_prob == pytest.approx(pool[tree.path_tokens(i)])


def test_tree_one_drafter_pass_per_level():
    model = _last_token_model()
    draft_tree(model, (), depth=3, branch_topk=2, budget=8)
    assert model.invocation_count == 3


def test_tree_excludes_zero_probability_tokens():
    model = TableModel(V3, {}, default=Distribution([0.7, 0.3, 0.0]))
    tree = draft_tree(model, (), depth=1, branch_topk=3, budget=5)
    assert sorted(n.token for n in tree.nodes) == [0, 1]


def test_tree_structure_accessors():
    tree = draft_tree(_last_token_model(), (7,), depth=2, branch_topk=2, budget=4)
    assert tree.ctx == (7,)
    roots = tree.children(-1)
    assert roots and all(tree.nodes[i].parent == -1 for i in roots)
    for i in range(len(tree)):
        assert tree.nodes[i].depth == len(tree.path_ids(i))
    mask = tree.mask.astype(int)
    assert np.array_equal((mask @ mask) > 0, tree.mask)  # ancestor set is closed
    tree.validate()


def test_tree_rejects_bad_parameters():
    model = _last_token_model()
    for depth, topk, budget in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ValueError):
            draft_tree(model, (), depth, topk, budget)


def test_tree_validate_catches_corruption():
    tree = draft_tree(_last_token_model(), (), depth=2, branch_topk=2, budget=4)
    bad = DraftTree(
        ctx=tree.ctx,
        nodes=[n if i != 1 else TreeNode(n.token, n.parent, n.depth + 1, n.prob, n.path_prob)
               for i, n in enumerate(tree.nodes)],
        mask=tree.mask,
        budget=tree.budget,
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_tree_rejects_child_before_parent():
    nodes = [TreeNode(0, 1, 2, 0.5, 0.25), TreeNode(1, -1, 1, 0.5, 0.5)]
    with pytest.raises(ValueError):
        DraftTree(ctx=(), nodes=nodes, mask=np.eye(2, dtype=bool), budget=2)


def _reference_draft_tree(drafter, ctx, depth, branch_topk, budget, temperature=1.0):
    """The original pool-everything tree drafter, kept as an oracle.

    Per-node lexsort top-k, every candidate in the pool, the frontier cut to
    the best ``budget`` after each level, and one global sort of the whole
    pool by (-path_prob, creation order). Returns (nodes, mask).
    """
    pool = []  # (token, parent candidate id, depth, prob, path_prob)
    frontier = [(-1, (), 1.0)]
    for level in range(1, depth + 1):
        grown = []
        block = drafter.batch_score_paths(tuple(ctx), [path for _, path, _ in frontier])
        for (parent_id, path, path_prob), raw in zip(frontier, block):
            dist = apply_temperature(raw, temperature)
            if temperature == 0.0:  # greedy shaping: the argmax one-hot
                dist = np.eye(len(raw))[raw.argmax()]
            order = np.lexsort((np.arange(len(dist)), -dist))
            for tok in (int(t) for t in order[:branch_topk]):
                p = float(dist[tok])
                if p <= 0.0:
                    break
                pool.append((tok, parent_id, level, p, path_prob * p))
                grown.append((len(pool) - 1, path + (tok,), path_prob * p))
        grown.sort(key=lambda item: (-item[2], item[0]))
        frontier = grown[:budget]
    chosen, chosen_set = [], set()
    for cand in sorted(range(len(pool)), key=lambda i: (-pool[i][4], i)):
        if len(chosen) == budget:
            break
        if pool[cand][1] != -1 and pool[cand][1] not in chosen_set:
            continue
        chosen.append(cand)
        chosen_set.add(cand)
    chosen.sort()
    renumber = {cand: i for i, cand in enumerate(chosen)}
    nodes = [
        TreeNode(tok, renumber.get(parent, -1), d, p, pp)
        for tok, parent, d, p, pp in (pool[c] for c in chosen)
    ]
    mask = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for i in range(len(nodes)):
        j = i
        while j != -1:
            mask[i, j] = True
            j = nodes[j].parent
    return nodes, mask


@st.composite
def _tied_tables(draw):
    """Small drafters whose rows are full of ties and zero entries."""
    vocab = draw(st.integers(2, 6))
    weights = st.lists(st.integers(0, 3), min_size=vocab, max_size=vocab).filter(any)

    def row():
        w = np.array(draw(weights), dtype=float)
        return Distribution(w / w.sum())

    tokens = st.integers(0, vocab - 1)
    keys = [(t,) for t in range(vocab)]
    keys += draw(st.lists(st.tuples(tokens, tokens), max_size=4, unique=True))
    return TableModel(Vocabulary(vocab), {key: row() for key in keys}, default=row())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    model=_tied_tables(),
    depth=st.integers(1, 5),
    budget=st.integers(1, 40),
    temperature=st.sampled_from([1.0, 0.5, 0.0]),
    data=st.data(),
)
def test_tree_matches_the_pool_everything_reference(model, depth, budget, temperature, data):
    topk = data.draw(st.integers(1, model.vocab.size), label="topk")
    ctx = data.draw(st.lists(st.integers(0, model.vocab.size - 1), max_size=2), label="ctx")
    ref = model.fork()
    want_nodes, want_mask = _reference_draft_tree(ref, ctx, depth, topk, budget, temperature)
    fresh = model.fork()
    tree = draft_tree(fresh, ctx, depth, topk, budget, temperature)
    assert tree.nodes == tuple(want_nodes)  # exact floats, same order
    assert np.array_equal(tree.mask, want_mask)
    assert fresh.invocation_count == ref.invocation_count == depth
    tree.validate()


def test_cached_paths_follow_parent_links(ref_family):
    drafter = ref_family.drafter.fork()
    ctx = tuple(ref_family.held_tokens[:8])
    tree = draft_tree(drafter, ctx, depth=6, branch_topk=10, budget=60)
    trees = [tree]
    for leaf in range(len(tree)):
        path = tree.path_tokens(leaf)
        trees.extend(prune_tree_prefix(tree, path[:cut]) for cut in range(1, len(path) + 1))
    for t in trees:
        assert t.path_tokens(-1) == ()
        for i in range(len(t)):
            assert t.path_tokens(i) == tuple(t.nodes[j].token for j in t.path_ids(i))


def test_tree_is_immutable():
    tree = draft_tree(_last_token_model(), (0,), depth=2, branch_topk=2, budget=4)
    with pytest.raises(FrozenInstanceError):
        tree.nodes = ()
    with pytest.raises(FrozenInstanceError):
        tree.ctx = (1,)
    with pytest.raises(FrozenInstanceError):
        tree.nodes[0].token = 2
    with pytest.raises(AttributeError):
        tree.nodes.append(tree.nodes[0])
    with pytest.raises(ValueError):
        tree.mask[0, 0] = False
    with pytest.raises(AttributeError):
        tree.children(-1).append(0)
    mask = np.eye(1, dtype=bool)
    own = DraftTree(ctx=(), nodes=[TreeNode(0, -1, 1, 0.5, 0.5)], mask=mask, budget=1)
    mask[0, 0] = False  # the caller's array is copied, not adopted
    assert own.mask[0, 0] and isinstance(own.nodes, tuple)


# ---------------------------------------------------------------------------
# the tree memo
# ---------------------------------------------------------------------------


@st.composite
def _drafters(draw):
    """Table, n-gram and mixture drafters over V 2-6 with tied and zero
    cells; n-grams of order 1 have an empty window."""
    kind = draw(st.sampled_from(["table", "ngram", "mixture"]))
    if kind == "table":
        return draw(_tied_tables())
    vocab = Vocabulary(draw(st.integers(2, 6)))
    corpus = draw(st.lists(st.integers(0, vocab.size - 1), min_size=3, max_size=40))
    order = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from([0.0, 0.1]))
    ngram = train_ngram(corpus, NGramSpec(order=order, alpha=alpha), vocab)
    if kind == "ngram":
        return ngram
    eps = draw(st.sampled_from([0.0, 0.3, 1.0]))
    uniform = np.full(vocab.size, 1.0 / vocab.size)
    return MixtureProxy(ngram, ProxyDerivation(eps, "uniform"), uniform)


def _unmemoised(drafter):
    """The same oracle built afresh, with an empty tree memo."""
    if isinstance(drafter, TableModel):
        rows = {key: Distribution(row) for key, row in drafter.rows.items()}
        return TableModel(drafter.vocab, rows, Distribution(drafter.default))
    if isinstance(drafter, NgramModel):
        return NgramModel(drafter.vocab, drafter.spec, drafter._counts)
    return MixtureProxy(_unmemoised(drafter.base), drafter.deriv, drafter.noise)


def _recorded(drafter):
    """Record every (ctx, paths) the drafter is asked to score."""
    calls = []
    score = drafter.batch_score_paths

    def record(ctx, paths):
        calls.append((tuple(ctx), [tuple(p) for p in paths]))
        return score(ctx, paths)

    drafter.batch_score_paths = record
    return calls


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    drafter=_drafters(),
    depth=st.integers(1, 5),
    budget=st.integers(1, 30),
    temperature=st.sampled_from([1.0, 0.5, 0.0]),
    data=st.data(),
)
def test_memo_hit_equals_a_fresh_growth(drafter, depth, budget, temperature, data):
    size, window = drafter.vocab.size, drafter.window
    topk = data.draw(st.integers(1, size), label="topk")
    token = st.integers(0, size - 1)
    tail = tuple(data.draw(st.lists(token, min_size=window, max_size=window), label="tail"))
    first = tuple(data.draw(st.lists(token, max_size=3), label="first")) + tail
    second = tuple(data.draw(st.lists(token, min_size=1, max_size=3), label="second")) + tail

    memo = drafter.fork()
    draft_tree(memo, first, depth, topk, budget, temperature)
    assert len(memo._trees) == 1
    hit_calls = _recorded(memo)
    hit_meter = PassMeter(memo)
    hit = draft_tree(memo, second, depth, topk, budget, temperature)
    assert len(memo._trees) == 1

    fresh = _unmemoised(drafter)
    miss_calls = _recorded(fresh)
    miss_meter = PassMeter(fresh)
    miss = draft_tree(fresh, second, depth, topk, budget, temperature)

    assert hit.ctx == miss.ctx == second
    assert hit.nodes == miss.nodes  # exact floats, same order
    assert np.array_equal(hit.mask, miss.mask)
    assert [hit.path_tokens(i) for i in range(len(hit))] == [
        miss.path_tokens(i) for i in range(len(miss))
    ]
    assert hit_meter.passes() == miss_meter.passes() == (depth, 0, 0)
    assert hit_calls == miss_calls
    hit.validate()

    # Any other context, whatever its tail, gets the tree grown afresh.
    other = tuple(data.draw(st.lists(token, max_size=window + 2), label="other"))
    got = draft_tree(memo, other, depth, topk, budget, temperature)
    want = draft_tree(_unmemoised(drafter), other, depth, topk, budget, temperature)
    assert got.nodes == want.nodes and got.ctx == other


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    drafter=_drafters(),
    depth=st.integers(1, 5),
    budget=st.integers(1, 30),
    temperature=st.sampled_from([1.0, 0.5, 0.0]),
    data=st.data(),
)
def test_levels_score_the_surviving_frontier_cut_to_the_window(
    drafter, depth, budget, temperature, data
):
    """The running pool scores no more positions per level than the
    pool-everything reference, each path cut to the drafter's window, and
    grows the same tree with the same number of passes."""
    size, window = drafter.vocab.size, drafter.window
    topk = data.draw(st.integers(1, size), label="topk")
    ctx = tuple(data.draw(st.lists(st.integers(0, size - 1), max_size=4), label="ctx"))
    ref = _unmemoised(drafter)
    ref_calls = _recorded(ref)
    want_nodes, want_mask = _reference_draft_tree(ref, ctx, depth, topk, budget, temperature)
    fresh = _unmemoised(drafter)
    calls = _recorded(fresh)
    tree = draft_tree(fresh, ctx, depth, topk, budget, temperature)

    assert tree.nodes == tuple(want_nodes)  # exact floats, same order
    assert np.array_equal(tree.mask, want_mask)
    assert fresh.invocation_count == ref.invocation_count == len(calls) == depth
    for (got_ctx, paths), (_, ref_paths) in zip(calls, ref_calls):
        assert got_ctx == ctx
        assert len(paths) <= len(ref_paths)
        assert all(len(path) <= window for path in paths)


def test_a_level_with_no_survivors_still_costs_its_pass():
    """At budget 1 the root's best child outranks every grandchild, so the
    third level has an empty frontier, and is scored all the same."""
    model = _last_token_model()
    calls = _recorded(model)
    tree = draft_tree(model, (), depth=3, branch_topk=2, budget=1)
    assert [n.token for n in tree.nodes] == [0]
    assert [len(paths) for _, paths in calls] == [1, 1, 0]
    assert calls[1][1] == [(0,)]
    assert model.invocation_count == 3


def test_memo_is_shared_across_forks_and_keyed_by_window_tail():
    model = _last_token_model()  # window 1
    twin = model.fork()
    first = draft_tree(model, (2, 0), depth=3, branch_topk=2, budget=5)
    assert twin._trees is model._trees and len(model._trees) == 1
    again = draft_tree(twin, (1, 1, 0), depth=3, branch_topk=2, budget=5)
    assert len(model._trees) == 1  # same tail, same shape: a hit from the fork
    assert again.nodes is first.nodes and again.ctx == (1, 1, 0)
    assert twin.invocation_count == model.invocation_count == 3
    for ctx in [(0,), (2, 0), (1, 1, 0)] * 2:  # repeats add no entry
        draft_tree(model, ctx, depth=3, branch_topk=2, budget=5)
    assert len(model._trees) == 1
    draft_tree(model, (1,), depth=3, branch_topk=2, budget=5)
    draft_tree(model, (1,), depth=2, branch_topk=2, budget=5)
    draft_tree(model, (1,), depth=2, branch_topk=2, budget=5, temperature=0.0)
    assert len(model._trees) == 4  # one per tail and shape


class _ParityModel(ModelOracle):
    """Reads the whole context: the row depends on its length's parity."""

    kind = "parity"

    def _dist(self, ctx):
        return np.array([0.7, 0.3] if len(ctx) % 2 else [0.2, 0.8])


def test_drafter_without_a_window_is_not_memoised():
    model = _ParityModel(Vocabulary(2))
    assert model.window is None
    odd = draft_tree(model, (1,), depth=2, branch_topk=1, budget=2)
    even = draft_tree(model, (0, 1), depth=2, branch_topk=1, budget=2)
    assert not model._trees
    assert [n.token for n in odd.nodes] != [n.token for n in even.nodes]


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------


def test_prune_empty_path_is_identity():
    tree = draft_tree(_last_token_model(), (), depth=2, branch_topk=2, budget=4)
    assert prune_tree_prefix(tree, ()) is tree


def test_prune_full_path_leaves_empty_tree():
    tree = draft_tree(_last_token_model(), (9,), depth=2, branch_topk=2, budget=4)
    deepest = max(range(len(tree)), key=lambda i: tree.nodes[i].depth)
    path = tree.path_tokens(deepest)
    rest = prune_tree_prefix(tree, path)
    assert len(rest) == 0
    assert rest.ctx == (9,) + path


def test_prune_partial_path_rebases_subtree():
    tree = draft_tree(_last_token_model(), (), depth=2, branch_topk=2, budget=6)
    first = tree.nodes[tree.children(-1)[0]].token
    rest = prune_tree_prefix(tree, (first,))
    rest.validate()
    assert rest.ctx == (first,)
    assert all(n.depth == 1 for n in rest.nodes if n.parent == -1)
    # surviving paths are exactly the old ones that started with `first`
    old = {tree.path_tokens(i)[1:] for i in range(len(tree))
           if tree.path_tokens(i)[0] == first and tree.nodes[i].depth > 1}
    assert {rest.path_tokens(i) for i in range(len(rest))} == old


def test_prune_unknown_path_raises():
    model = TableModel(V3, {}, default=Distribution([0.7, 0.3, 0.0]))
    tree = draft_tree(model, (), depth=2, branch_topk=2, budget=6)
    with pytest.raises(PathNotInTreeError):
        prune_tree_prefix(tree, (2,))  # token 2 is never drafted


# ---------------------------------------------------------------------------
# randomized structural invariants
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    vocab=st.integers(2, 4),
    depth=st.integers(1, 3),
    topk=st.integers(1, 3),
    budget=st.integers(1, 7),
)
def test_random_trees_satisfy_invariants(seed, vocab, depth, topk, budget):
    rng = np.random.default_rng(seed)
    rows = {
        (t,): Distribution(rng.dirichlet(np.ones(vocab)))
        for t in range(vocab)
    }
    model = TableModel(Vocabulary(vocab), rows, default=Distribution(rng.dirichlet(np.ones(vocab))))
    tree = draft_tree(model, (), depth=depth, branch_topk=topk, budget=budget)
    tree.validate()
    assert 1 <= len(tree) <= budget
    mask = tree.mask.astype(int)
    assert np.array_equal((mask @ mask) > 0, tree.mask)
    assert model.invocation_count <= depth
