"""Draft proposal structures: linear chains and budgeted token trees.

A draft chain is the classic speculative block: k tokens drafted
autoregressively from the drafter, recorded together with the exact raw
rows they came from, because the verification rule needs those
probabilities later. Each drafter pass scores the context cut to the
drafter's window, extended by one token per pass. A greedy chain (T=0)
takes the argmax each pass's state keeps and draws no uniform; a sampled
one (T=1) draws each token from the CDF the pass's state keeps. Either
way a chain is its tokens and the drafter states it drew them from (its
``walk``), which the acceptance rule reads; its ``(k, V)`` block of rows
is copied from them only when asked. A chain built by hand from rows
(``DraftChain.of_rows``) is checked: one row per token, each with mass on
its token. A greedy chain depends only on the drafter's window tail, so
it is drafted once per tail and length, like a tree, and a chain is
immutable, so the memo hands one out again.

A draft tree generalizes the chain: every frontier node proposes its
top-``branch_topk`` continuations under the drafter's raw row, and the
tree keeps the globally most probable nodes (by drafter path probability)
within a fixed token budget. Trees verify greedily downstream, and carry
the boolean ancestor mask a tree-attention pass would use, so masks are
part of the contract here. A tree is immutable, so one tree may be shared
by many rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import RandomStream, apply_temperature
from .models import ModelOracle, Walk

__all__ = [
    "DraftChain",
    "DraftTree",
    "PathNotInTreeError",
    "TreeNode",
    "TreeParams",
    "draft_chain",
    "draft_tree",
    "prune_tree_prefix",
]


class PathNotInTreeError(ValueError):
    """Raised when a supposedly accepted path does not exist in the tree."""


class DraftChain(NamedTuple):
    """k drafted tokens and ``walk``, the states they were drawn from: the
    drafter's, for a drafted chain, or one state per row for a chain built
    from its rows (``of_rows``). ``dists`` is the ``(k, V)`` block of
    those rows, a read-only copy taken on each read: most rounds read the
    walk alone."""

    tokens: tuple[int, ...]
    walk: Walk

    @classmethod
    def of_rows(cls, tokens: Sequence[int], dists) -> "DraftChain":
        """A chain of ``tokens`` drawn from the rows of ``dists``, one row
        per token, each with positive mass on its token; the rows are
        copied."""
        tokens, rows = tuple(tokens), np.array(dists, dtype=np.float64)
        if rows.ndim != 2 or len(tokens) != len(rows) or not tokens:
            raise ValueError("chain needs one distribution per drafted token")
        if any(rows[i, tok] <= 0.0 for i, tok in enumerate(tokens)):
            raise ValueError("drafted token has zero probability in its own dist")
        rows.setflags(write=False)
        return cls(tokens, Walk.of_rows(rows))

    @property
    def k(self) -> int:
        return len(self.tokens)

    @property
    def dists(self) -> np.ndarray:
        return self.walk.rows


def draft_chain(
    drafter: ModelOracle,
    ctx: tuple[int, ...] | list[int],
    k: int,
    temperature: float,
    stream: RandomStream,
) -> DraftChain:
    """Draft a k-token block autoregressively; k drafter passes.

    Each pass scores the context cut to the drafter's ``window``, all of
    it the drafter reads, extended by one drafted token per pass. At
    temperature 0 each token is the argmax kept by the state the pass
    walked, and no uniform is drawn. At temperature 1 it is drawn from the
    CDF that state keeps: the token ``sample`` would draw from the row.

    A greedy chain depends only on the drafter's ``window`` tail of
    ``ctx``, so the drafter keeps the first chain of each tail and length,
    with the window-cut context of each pass, in the memo ``draft_tree``
    uses. A repeat makes the same k passes on those contexts, so every pass
    is still counted and ``walked`` is what a fresh draft leaves, and
    returns the same chain. Sampled chains are not memoised.
    """
    apply_temperature(None, temperature)
    if k < 1:
        raise ValueError("draft length k must be >= 1")
    w, tail = drafter.window, drafter._tail(ctx)
    key = None
    if temperature == 0.0:
        key = (tail, k)  # tree keys have four fields, so none collides
        hit = drafter._drafts.get(key)
        if hit is not None:
            chain, contexts = hit
            next_dist = drafter.next_dist
            for c in contexts:
                next_dist(c)
            return chain
    cut = list(tail)
    states, next_dist = drafter._states, drafter.next_dist
    best, draw = states.best, states.draw
    tokens: list[int] = []
    walked: list[int] = []
    contexts: list[tuple[int, ...]] = []
    for _ in range(k):
        if key is not None:
            contexts.append(tuple(cut))
        next_dist(cut)
        s = drafter._walked[0]  # ``next_dist`` leaves a list: no need for ``walked``
        token = best[s] if temperature == 0.0 else draw(s, stream)
        tokens.append(token)
        walked.append(s)
        if w:
            cut.append(token)
            if len(cut) > w:
                del cut[0]
    chain = DraftChain(tuple(tokens), Walk(states, walked))
    if key is not None:
        drafter._drafts[key] = (chain, tuple(contexts))
    return chain


@dataclass(frozen=True, slots=True)
class TreeNode:
    """One drafted token in a tree. ``parent`` is -1 for root children."""

    token: int
    parent: int
    depth: int
    prob: float       # drafter probability of token given its path
    path_prob: float  # product of probs along the path from the root


@dataclass(frozen=True)
class DraftTree:
    """A budgeted draft token tree rooted at the committed context tip.

    The root itself is implicit (it is the last committed token); ``nodes``
    holds drafted tokens only. ``mask[i][j]`` is True iff node j lies on the
    path from the root to node i, inclusive of i itself, which is exactly
    the attention-reachability a flattened scoring pass needs. ``nodes`` is
    kept as a tuple and ``mask`` read-only.
    """

    ctx: tuple[int, ...]
    nodes: tuple[TreeNode, ...]
    mask: np.ndarray
    budget: int
    _children: dict[int, tuple[int, ...]] = field(init=False, repr=False)
    _paths: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        mask = self.mask
        n = len(nodes)
        if mask.shape != (n, n):
            raise ValueError("mask shape must match node count")
        if mask.flags.writeable:
            mask = mask.copy()
            mask.setflags(write=False)
        children: dict[int, list[int]] = {}  # only nodes that have any
        paths: list[tuple[int, ...]] = [()]  # the root's, then node i's at i + 1
        for i, node in enumerate(nodes):
            if node.parent >= i:
                raise ValueError("parents must precede children")
            children.setdefault(node.parent, []).append(i)
            paths.append(paths[node.parent + 1] + (node.token,))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_children", {i: tuple(c) for i, c in children.items()})
        object.__setattr__(self, "_paths", tuple(paths))

    def __len__(self) -> int:
        return len(self.nodes)

    def children(self, node_id: int) -> tuple[int, ...]:
        """Child node ids of ``node_id`` (-1 addresses the implicit root)."""
        return self._children.get(node_id, ())

    def _rebased(self, ctx: tuple[int, ...]) -> "DraftTree":
        """The same tree drafted after ``ctx``; it shares every node, the
        mask and the cached paths with this one."""
        twin = object.__new__(DraftTree)
        twin.__dict__.update(self.__dict__, ctx=ctx)
        return twin

    def path_ids(self, node_id: int) -> list[int]:
        out: list[int] = []
        cur = node_id
        while cur != -1:
            out.append(cur)
            cur = self.nodes[cur].parent
        out.reverse()
        return out

    def path_tokens(self, node_id: int) -> tuple[int, ...]:
        return self._paths[node_id + 1]

    def validate(self) -> None:
        """Re-check structural invariants; raises on violation."""
        for i, node in enumerate(self.nodes):
            parent_depth = 0 if node.parent == -1 else self.nodes[node.parent].depth
            if node.depth != parent_depth + 1:
                raise ValueError(f"node {i} depth {node.depth} != parent depth + 1")
            if not 0.0 < node.prob <= 1.0:
                raise ValueError(f"node {i} probability {node.prob} out of (0, 1]")
            parent_pp = 1.0 if node.parent == -1 else self.nodes[node.parent].path_prob
            if abs(node.path_prob - parent_pp * node.prob) > 1e-12:
                raise ValueError(f"node {i} path probability is inconsistent")
            expect = np.zeros(len(self.nodes), dtype=bool)
            expect[self.path_ids(i)] = True
            if not np.array_equal(self.mask[i], expect):
                raise ValueError(f"mask row {i} is not the ancestor-or-self set")
        if len(self.nodes) > self.budget:
            raise ValueError("tree exceeds its token budget")


class TreeParams(NamedTuple):
    """Draft-tree shape: expansion depth, per-node top-k, token budget. A
    named tuple, so the round table hashes and compares it in C."""

    depth: int = 6
    branch_topk: int = 10
    budget: int = 60


def draft_tree(
    drafter: ModelOracle,
    ctx: tuple[int, ...] | list[int],
    depth: int,
    branch_topk: int,
    budget: int,
) -> DraftTree:
    """Grow a static draft tree: expand level by level, keep the best.

    Each frontier node spawns its ``branch_topk`` most probable children
    under the drafter's raw row (ties toward the lower token id); a greedy
    one-hot would leave nothing to branch on. Generation stops at
    ``depth``. A running pool holds the ``budget`` best candidates so far
    by path probability (creation order on ties). Each level's candidates
    merge into it by one stable selection, and only those that survive
    form the next frontier, best first; the last pool is the tree. That is
    exact: a child's path probability is at most its parent's and it is
    created after every pool node, so a candidate that drops out of the
    pool can have no descendant in it (which also keeps the pool
    ancestor-closed). The whole frontier of a level is scored in one
    flattened drafter pass, an empty frontier too, so a tree costs one
    drafter pass per level.

    A frontier path is scored cut to its last ``window`` tokens, all of it
    the drafter reads, so a tree depends only on the drafter's ``window``
    tail of ``ctx``. The drafter keeps the first tree of each tail and
    shape, with the cut paths of every level, in a memo that its forks
    share. A repeat makes the same drafter passes, level for level, so
    every pass is still counted, and returns that tree rebased onto
    ``ctx``; nothing reads those passes' walks, so they walk nothing.
    """
    if depth < 1 or branch_topk < 1 or budget < 1:
        raise ValueError("depth, branch_topk and budget must all be >= 1")
    base = tuple(ctx)
    key = (drafter._tail(base), depth, branch_topk, budget)
    hit = drafter._drafts.get(key)
    if hit is not None:
        tree, levels = hit
        for paths in levels:
            drafter.batch_score_paths(base, paths)
        return tree._rebased(base)
    # Every candidate's columns, level by level in creation order; parents
    # are candidate ids.
    grown = []
    created = 0
    # The best ``budget`` so far: candidate ids in creation order, and their
    # path probabilities.
    pool, pool_pp = np.empty(0, dtype=np.intp), np.empty(0)
    paths: list[tuple[int, ...]] = [()]
    levels = []  # each level's frontier paths, cut to the window
    frontier_ids, frontier_pp = np.array([-1]), np.ones(1)
    for level in range(1, depth + 1):
        levels.append(paths)
        block = drafter.batch_score_paths(base, paths).rows
        top = np.argsort(-block, axis=1, kind="stable")[:, :branch_topk]
        top_p = np.take_along_axis(block, top, axis=1)
        # Row-major order is creation order; a drafter cannot propose
        # mass-zero tokens.
        rows, cols = np.nonzero(top_p > 0.0)
        cand_tok, cand_p = top[rows, cols], top_p[rows, cols]
        cand_pp = frontier_pp[rows] * cand_p
        grown.append((cand_tok, frontier_ids[rows], np.full(len(rows), level), cand_p, cand_pp))
        # Pool ids precede the level's, so the stable sort breaks ties by age.
        merged_pp = np.concatenate((pool_pp, cand_pp))
        ranked = np.argsort(-merged_pp, kind="stable")[:budget]
        kept = np.sort(ranked)
        new = ranked[ranked >= len(pool)] - len(pool)  # the level's survivors, best first
        pool = np.concatenate((pool, created + np.arange(len(rows))))[kept]
        pool_pp = merged_pp[kept]
        grow = zip(rows[new].tolist(), cand_tok[new].tolist())
        paths = [drafter._tail(paths[r] + (t,)) for r, t in grow]
        frontier_ids, frontier_pp = created + new, cand_pp[new]
        created += len(rows)

    tok, parent, dep, prob, path_prob = (np.concatenate(col)[pool] for col in zip(*grown))
    parent = np.where(parent == -1, -1, np.searchsorted(pool, parent))
    columns = (col.tolist() for col in (tok, parent, dep, prob, path_prob))
    nodes = [TreeNode(*fields) for fields in zip(*columns)]
    tree = DraftTree(ctx=base, nodes=nodes, mask=_ancestor_mask(nodes), budget=budget)
    # each level as a tuple, which a hit's pass keeps as it is
    drafter._drafts[key] = (tree._rebased(key[0]), tuple(map(tuple, levels)))
    return tree


def _ancestor_mask(nodes: list[TreeNode]) -> np.ndarray:
    n = len(nodes)
    mask = np.zeros((n, n), dtype=bool)
    for i, node in enumerate(nodes):
        if node.parent != -1:
            mask[i] = mask[node.parent]
        mask[i, i] = True
    mask.setflags(write=False)
    return mask


def prune_tree_prefix(tree: DraftTree, accepted: tuple[int, ...] | list[int]) -> DraftTree:
    """Re-root a tree below an accepted root-anchored token path.

    Sibling branches of every accepted node are dropped, the accepted tokens
    move into the tree's context, and depths/path probabilities/mask are
    rebuilt relative to the new root. An empty path returns the tree as is;
    accepting a full root-to-leaf path leaves an empty remainder tree.
    """
    accepted = tuple(int(t) for t in accepted)
    if not accepted:
        return tree
    cur = -1
    for tok in accepted:
        nxt = next((c for c in tree.children(cur) if tree.nodes[c].token == tok), None)
        if nxt is None:
            raise PathNotInTreeError(f"path {accepted!r} is not root-anchored in the tree")
        cur = nxt

    keep: list[int] = []
    stack = list(tree.children(cur))
    while stack:
        node_id = stack.pop()
        keep.append(node_id)
        stack.extend(tree.children(node_id))
    keep.sort()
    renumber = {old: new for new, old in enumerate(keep)}

    cut_depth = tree.nodes[cur].depth
    nodes: list[TreeNode] = []
    for old in keep:
        node = tree.nodes[old]
        parent = renumber[node.parent] if node.parent in renumber else -1
        parent_pp = 1.0 if parent == -1 else nodes[parent].path_prob
        nodes.append(
            TreeNode(
                token=node.token,
                parent=parent,
                depth=node.depth - cut_depth,
                prob=node.prob,
                path_prob=parent_pp * node.prob,
            )
        )
    return DraftTree(
        ctx=tree.ctx + accepted,
        nodes=nodes,
        mask=_ancestor_mask(nodes),
        budget=tree.budget,
    )
