"""Token-distribution oracles standing in for the three decoding models.

An oracle deterministically maps a context (tuple of token ids) to a
probability row over the next token. Three kinds are provided:

* ``TableModel`` -- explicit context-suffix rows, for hand-built fixtures;
* ``NgramModel`` -- additive-smoothed n-gram with backoff to shorter
  orders, trained on a token corpus;
* ``MixtureProxy`` -- a controlled degradation of another oracle,
  ``(1 - eps) * base + eps * noise``, used to study proxy/target alignment.

Every oracle counts forward passes: ``next_dist`` is one pass, and a
batched scoring call over many positions is also exactly one pass (that is
the whole point of speculative verification). The counters are the sole
source for target-call accounting downstream. ``next_dist`` returns one
read-only row, and a batched call its ``Walk``, a state per scored
position, with no row copied (``Walk.rows`` copies them when asked).

Each oracle reads only its ``window`` of most recent context tokens. It is
finite-state: its states are an Aho-Corasick automaton over its keys (the
seen contexts of an n-gram, the row keys of a table; a mixture shares its
base's), built whole with the oracle. A pass walks from the root over the
context's last ``window`` tokens, then over the drafted tokens or each
path. A state keeps its row's argmax and top-2 margin, and its CDF from
its first draw on; a verifier's states keep the CDFs of the rejection
residuals drawn against them. Every pass is counted when it is called, and
records the states it walked (``walk()``), so greedy decisions, T=1 draws,
acceptance ratios and margins read those instead of the rows. A tree pass
(``batch_score_paths``) enters the context at once but walks its paths
only when its walk is first read: the passes a round-table or draft-memo
hit makes only to be counted walk nothing.
"""

from __future__ import annotations

import copy
import hashlib
import json
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Collection, Sequence

import numpy as np

from .core import Distribution, RandomStream, Vocabulary, check_rows, top2_margin

__all__ = [
    "CorpusTooShortError",
    "MixtureProxy",
    "ModelOracle",
    "NGramSpec",
    "NgramModel",
    "PassMeter",
    "ProxyDerivation",
    "TableModel",
    "Walk",
    "derive_proxy",
    "load_oracle",
    "save_oracle",
    "train_ngram",
    "train_ngrams",
]

MODEL_FORMAT = "trispec-model"
MODEL_FORMAT_VERSION = 1


class CorpusTooShortError(ValueError):
    """Raised when a training corpus cannot support the requested order."""


@dataclass(frozen=True)
class NGramSpec:
    """Training recipe for an n-gram oracle."""

    order: int
    alpha: float = 0.1
    fingerprint: str | None = None

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("n-gram order must be >= 1")
        if not 0.0 <= self.alpha < np.inf:  # NaN fails it too
            raise ValueError("additive smoothing constant must be finite and >= 0")


@dataclass(frozen=True)
class ProxyDerivation:
    """How to degrade a target oracle into a synthetic proxy."""

    epsilon: float
    noise_kind: str = "unigram"  # "unigram" | "uniform"

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.noise_kind not in ("unigram", "uniform"):
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")


class _States:
    """An oracle's window states: an Aho-Corasick automaton over its keys
    (Aho & Corasick 1975), built whole with the oracle by ``_automaton``.

    State ``s`` stands for ``keys[s]``, a prefix of some key, and ``root``
    for ``()``. ``step[s][t]`` is the state after token ``t``: the longest
    suffix of ``keys[s] + (t,)`` that is a state. ``table[s]`` is the row of
    the longest key among the suffixes of ``keys[s]``, else the default row;
    states with neither are numbered after the rows, so a pass that reaches
    one raises ``IndexError``, a ``LookupError``. ``best[s]`` is the row's
    argmax (lowest index on ties) and ``margin[s]`` its top-2 margin, both
    taken over the whole table at once. ``cdfs[s]`` is the row's CDF,
    ``row.cumsum()`` as an ``array('d')``, kept from the first draw from
    the state on: few states are ever drawn from, and a CDF for every state
    would cost memory. ``residuals`` keeps the CDFs of rejection residuals
    against this verifier's rows (``verification.draw_correction``), and
    ``rounds`` the greedy ternary rounds played with this oracle as the
    target (the round table of ``router.trispec_round`` and
    ``trispec_tree_round``).

    ``of_rows`` makes one state per row of a block, with no automaton, so
    that a block's rows are read and drawn from the same way; it keeps no
    residuals and no rounds.
    """

    __slots__ = ("keys", "step", "root", "table", "rowless", "best", "margin", "cdfs",
                 "residuals", "rounds")

    def __init__(
        self, keys: list[tuple[int, ...]], step: list[list[int]], root: int, table: np.ndarray
    ) -> None:
        table.setflags(write=False)
        self.keys, self.step, self.root, self.table = keys, step, root, table
        self.rowless = len(keys) > len(table)  # some states have no row
        self.best: list[int] = table.argmax(axis=1).tolist()
        self.margin: list[float] = top2_margin(table).tolist()
        self.cdfs: list[array | None] = [None] * len(table)
        # Residual stores (``verification._Residuals``) by the drafter's
        # states: a strong reference, so that no other states take their id.
        self.residuals: dict[_States, object] | None = {}
        # Rounds by (window tail, shape, rule, drafter's and proxy's states).
        self.rounds: dict[tuple, object] = {}

    @classmethod
    def of_rows(cls, rows: np.ndarray) -> "_States":
        states = cls.__new__(cls)
        states.table, states.cdfs, states.residuals = rows, [None] * len(rows), None
        states.best, states.margin = rows.argmax(axis=1).tolist(), top2_margin(rows).tolist()
        return states

    def draw(self, s: int, stream: RandomStream) -> int:
        """``sample`` from row ``s``: bisecting its CDF finds the index
        ``searchsorted`` does, so a uniform draws the same token."""
        cdf = self.cdfs[s]
        if cdf is None:
            cdf = self.cdfs[s] = array("d", self.table[s].cumsum().tolist())
        idx = bisect_right(cdf, stream.uniform())
        # on a float shortfall in the CDF's tail, the last positive token
        return idx if idx < len(cdf) else int(np.flatnonzero(self.table[s] > 0.0)[-1])


class Walk:
    """Rows addressed by state: row ``i`` is ``states.table[ids[i]]``.

    A pass's walk is the oracle's states and the ids it walked; a block's
    is one state per row (``Walk.of_rows``). Every rule reads a pass this
    way: its rows' argmaxes and top-2 margins as the states keep them, and
    a draw from row ``i`` through the CDF its state keeps.

    A tree pass's walk is a ``_PendingWalk``, which walks its paths when
    its ``ids`` are first read.
    """

    __slots__ = ("states", "ids")

    def __init__(self, states: _States, ids: Sequence[int]) -> None:
        self.states, self.ids = states, ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Walk):
            return NotImplemented
        return self.states is other.states and self.ids == other.ids

    @classmethod
    def of_rows(cls, rows: np.ndarray) -> "Walk":
        return cls(_States.of_rows(rows), range(len(rows)))

    @property
    def argmaxes(self) -> list[int]:
        return list(map(self.states.best.__getitem__, self.ids))

    @property
    def margins(self) -> tuple[float, ...]:
        return tuple(map(self.states.margin.__getitem__, self.ids))

    @property
    def rows(self) -> np.ndarray:
        """The rows as one read-only float64 block, copied on each read."""
        block = self.states.table.take(self.ids, axis=0)
        block.setflags(write=False)
        return block

    def draw(self, i: int, stream: RandomStream) -> int:
        """``sample`` from row ``i``."""
        return self.states.draw(self.ids[i], stream)


class _PendingWalk(Walk):
    """A tree pass's walk, pending: it keeps the state the pass entered and
    the paths, and walks them on the first read of ``ids``. After that
    ``ids`` is a plain attribute, and a pass whose walk nobody reads walks
    nothing. Only this class looks attributes up through ``__getattr__``,
    which keeps every other walk's reads on the interpreter's fast path."""

    __slots__ = ("_start", "_paths")

    def __init__(self, states: _States, start: int, paths: tuple[tuple[int, ...], ...]) -> None:
        self.states, self._start, self._paths = states, start, paths

    def __getattr__(self, name: str):
        """The first read of ``ids``: one state per path, the one after
        the path from the state the pass entered."""
        if name != "ids":
            raise AttributeError(f"'Walk' object has no attribute {name!r}")
        states = self.states
        step, root, size = states.step, states.root, states.table.shape[1]
        ends = []
        for path in self._paths:
            s = self._start
            for t in path:
                s = step[s][t] if 0 <= t < size else root
            ends.append(s)
        self.ids = ends
        return ends


def _automaton(
    size: int,
    keys: Collection[tuple[int, ...]],
    rows_of: Callable[[list[tuple[int, ...]]], Sequence[np.ndarray]],
) -> _States:
    """The window states of ``keys``, whose ids lie in ``[0, size)``.

    The states are the trie of the keys' prefix closure, breadth-first,
    with the states that have no row last. In breadth-first order a
    state's failure state, the longest proper suffix of its key that is a
    state, comes first, so ``step[s]`` is the failure state's ``step`` row
    with ``s``'s children written over it. Every entry naming one state is
    one ``int`` object. A state's row is its key's, else its failure
    state's; ``rows_of`` gives the rows of a list of keys at once.
    """
    trie = {()} | {key[:i] for key in keys for i in range(1, len(key) + 1)}
    trie = sorted(trie, key=lambda k: (len(k), k))
    rowless = set()
    if () not in keys:
        rowless = {node for node in trie if not any(node[i:] in keys for i in range(len(node)))}
    nodes = sorted(trie, key=rowless.__contains__)  # stable: breadth-first in each part
    ids = {node: s for s, node in enumerate(nodes)}
    root = ids[()]
    kids: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for node in trie[1:]:
        kids.setdefault(node[:-1], []).append(node)
    step: list[list[int]] = [[]] * len(nodes)
    fail = {(): root}
    source = {(): ()}  # the key whose row a state takes
    for node in trie:
        row = list(step[fail[node]]) if node else [root] * size
        for kid in kids.get(node, ()):
            fail[kid] = row[kid[-1]] if node else root
            row[kid[-1]] = ids[kid]
        step[ids[node]] = row
        if node:
            source[node] = node if node in keys else source[nodes[fail[node]]]
    rows = rows_of([source[node] for node in nodes[: len(nodes) - len(rowless)]])
    return _States(nodes, step, root, np.array(rows, dtype=np.float64).reshape(len(rows), size))


class ModelOracle:
    """Base class: deterministic context -> next-token distribution.

    It reads the last ``window`` context tokens; each subclass builds its
    window states, ``_states``, whole in its constructor.
    """

    kind = "abstract"
    _states: _States

    def __init__(self, vocab: Vocabulary, window: int) -> None:
        self.vocab = vocab
        self._passes = 0
        self.window = window
        # Drafts by window tail and shape (kept by ``draft_tree`` and greedy
        # ``draft_chain``); fork() shares them, as it shares the states.
        self._drafts: dict[tuple, tuple] = {}
        # The last pass's walked states (``walked``), or its pending walk.
        self._walked: list[int] | _PendingWalk = []

    @property
    def vocab_size(self) -> int:
        return self.vocab.size

    @property
    def invocation_count(self) -> int:
        """Total forward passes so far (batched calls count once)."""
        return self._passes

    def _tail(self, ctx: Sequence[int]) -> tuple[int, ...]:
        """The last ``window`` tokens of ``ctx``: all of it the oracle reads."""
        return tuple(ctx[len(ctx) - self.window :] if len(ctx) > self.window else ctx)

    def _enter(self, ctx: Sequence[int]) -> int:
        """The state after ``ctx``, walked from the root over its tail. An id
        outside the vocabulary steps to the root, as no key holds one. The
        three pass methods make this walk inline, a call fewer per pass."""
        states, w = self._states, self.window
        step, root, size = states.step, states.root, self.vocab.size
        s = root
        for t in ctx[len(ctx) - w :] if len(ctx) > w else ctx:  # ``_tail``, uncopied
            s = step[s][t] if 0 <= t < size else root
        return s

    def _reached(self, ids: list[int]) -> Walk:
        """Record and return the walk of a pass; a state with no row raises."""
        states = self._states
        if states.rowless and max(ids, default=-1) >= len(states.table):
            raise IndexError("the pass reached a state with no row")
        self._walked = ids
        return Walk(states, ids)

    @property
    def walked(self) -> list[int]:
        """The states the last pass walked, one per row it returned; the
        first read after a tree pass walks its paths."""
        walked = self._walked
        return walked if walked.__class__ is list else walked.ids

    def walk(self) -> Walk:
        """The states the last pass walked."""
        return Walk(self._states, self.walked)

    def next_dist(self, ctx: Sequence[int]) -> np.ndarray:
        """Score one position: the read-only row after ``ctx``. One forward
        pass."""
        self._passes += 1
        states, w = self._states, self.window
        step, size = states.step, self.vocab.size
        s = root = states.root
        for t in ctx[len(ctx) - w :] if len(ctx) > w else ctx:  # ``_enter``, inline
            s = step[s][t] if 0 <= t < size else root
        row = states.table[s]
        self._walked = [s]
        return row

    def batch_score(self, ctx: Sequence[int], drafted: Sequence[int]) -> Walk:
        """Score positions 1..k+1 of a drafted block in one forward pass.

        Returns the pass's walk, ``k+1`` states: state ``i`` is the one
        after ``ctx + drafted[:i]``, and the last conditions on the full
        block (the bonus position). Each state's row is exactly what
        ``next_dist`` would return for that prefix. No row is copied.
        """
        self._passes += 1
        states, w = self._states, self.window
        step, size = states.step, self.vocab.size
        s = root = states.root
        for t in ctx[len(ctx) - w :] if len(ctx) > w else ctx:  # ``_enter``, inline
            s = step[s][t] if 0 <= t < size else root
        walked = [s]
        for t in drafted:
            s = step[s][t] if 0 <= t < size else root
            walked.append(s)
        if states.rowless and max(walked) >= len(states.table):  # ``_reached``, inline
            raise IndexError("the pass reached a state with no row")
        self._walked = walked
        return Walk(states, walked)

    def batch_score_paths(self, ctx: Sequence[int], paths: Sequence[tuple[int, ...]]) -> Walk:
        """Score arbitrary continuation paths of ``ctx`` in one forward pass.

        The flattened-tree analogue of ``batch_score``: its walk holds one
        state per path, the one after ``ctx + path``, for a single counter
        bump for all. The pass enters ``ctx`` now and returns a pending
        walk, which walks the paths when its ``ids`` are first read; a pass
        on states some of which have no row walks now, so that reaching
        one raises here.
        """
        self._passes += 1
        states, w = self._states, self.window
        step, size = states.step, self.vocab.size
        s = root = states.root
        for t in ctx[len(ctx) - w :] if len(ctx) > w else ctx:  # ``_enter``, inline
            s = step[s][t] if 0 <= t < size else root
        walk = _PendingWalk(states, s, tuple(paths))
        if states.rowless:
            return self._reached(walk.ids)
        self._walked = walk
        return walk

    def fork(self) -> "ModelOracle":
        """A view sharing this oracle's tables but with a fresh counter."""
        twin = copy.copy(self)
        twin._passes = 0
        return twin


class PassMeter:
    """Forward passes per role since the meter was started.

    ``passes()`` reads (drafter, proxy, target); a role given no oracle
    reads 0. Every round function meters its oracles this way, so a round's
    pass counts come straight from the invocation counters.
    """

    __slots__ = ("_drafter", "_proxy", "_target", "_start")

    def __init__(
        self,
        drafter: ModelOracle | None = None,
        proxy: ModelOracle | None = None,
        target: ModelOracle | None = None,
    ) -> None:
        self._drafter, self._proxy, self._target = drafter, proxy, target
        self._start = self._counts()

    def _counts(self) -> tuple[int, int, int]:
        d, p, t = self._drafter, self._proxy, self._target
        return (0 if d is None else d._passes, 0 if p is None else p._passes,
                0 if t is None else t._passes)

    def passes(self) -> tuple[int, int, int]:
        (d, p, t), (d0, p0, t0) = self._counts(), self._start
        return d - d0, p - p0, t - t0


class TableModel(ModelOracle):
    """Explicit lookup oracle for small hand-built fixtures.

    Rows are keyed by context suffixes; lookup tries the longest matching
    suffix first and falls back to the default row. Rows arrive as checked
    ``Distribution``s and are kept as their read-only probability rows.
    """

    kind = "table"

    def __init__(
        self,
        vocab: Vocabulary,
        rows: dict[tuple[int, ...], Distribution],
        default: Distribution | None = None,
    ) -> None:
        for key, dist in rows.items():
            if len(dist) != vocab.size:
                raise ValueError(f"row {key!r} has wrong vocabulary size")
            if not all(0 <= t < vocab.size for t in key):
                raise ValueError(f"row key {key!r} holds a token id outside the vocabulary")
        if default is not None and len(default) != vocab.size:
            raise ValueError("default row has wrong vocabulary size")
        self.rows = {key: dist.probs for key, dist in rows.items()}
        self.default = None if default is None else default.probs
        super().__init__(vocab, max((len(k) for k in rows), default=0))
        # the default row is the row of the empty suffix, tried last
        keyed = self.rows if default is None else {(): self.default, **self.rows}
        self._states = _automaton(vocab.size, keyed, lambda keys: [keyed[k] for k in keys])


class NgramModel(ModelOracle):
    """Additive-smoothed n-gram oracle with backoff to shorter orders.

    ``P(x | ctx) = (count(ctx, x) + alpha) / (count(ctx, .) + alpha * V)``
    using the last ``order - 1`` context tokens; a context never observed at
    some order backs off to the next shorter order, bottoming out at the
    unigram. ``alpha = 0`` is allowed (pure relative frequencies) but then
    unseen continuations of a seen context get probability zero.

    The seen contexts are the keys of its states. They are prefix-closed,
    so each state is a seen context, and the longest seen suffix of a
    context, its backoff key, is the state a pass walks to. Its count
    tables may be shared with the other n-grams of its family
    (``train_ngrams``); nothing writes them.
    """

    kind = "ngram"

    def __init__(
        self,
        vocab: Vocabulary,
        spec: NGramSpec,
        counts: dict[int, dict[tuple[int, ...], dict[int, int]]],
    ) -> None:
        if set(counts) != set(range(1, spec.order + 1)):
            raise ValueError("counts must cover every order 1..n")
        if () not in counts[1]:
            raise ValueError("counts hold no unigram row")
        size = vocab.size
        for j, table in counts.items():
            for ctx, row in table.items():
                if j > 1 and ctx[:-1] not in counts[j - 1]:
                    raise ValueError(f"order-{j} contexts are not prefix-closed")
                if not row or min(row.values()) < 1:  # so every smoothed row is a law
                    raise ValueError(f"order-{j} counts must be positive")
                ids = (*ctx[-1:], *row)  # a context's other ids are its prefixes'
                if not (0 <= min(ids) and max(ids) < size):
                    raise ValueError(f"order-{j} counts hold token ids outside the vocabulary")
        super().__init__(vocab, spec.order - 1)
        self.spec = spec
        self._counts = counts
        keys = {ctx for table in counts.values() for ctx in table}
        self._states = _automaton(size, keys, self._smoothed)

    @property
    def order(self) -> int:
        return self.spec.order

    def unigram(self) -> np.ndarray:
        return self._states.table[self._states.root]

    def trained_on(self, corpus: Sequence[int]) -> bool:
        """Whether the stored fingerprint is that of training on ``corpus``."""
        return self.spec.fingerprint == _fingerprint(corpus, self.order, self.spec.alpha)

    def _smoothed(self, keys: list[tuple[int, ...]]) -> np.ndarray:
        """The smoothed rows of seen contexts, one per key."""
        tables = [self._counts[len(key) + 1][key] for key in keys]
        at = np.repeat(np.arange(len(tables)), list(map(len, tables)))
        tokens = list(chain.from_iterable(tables))
        counts = np.zeros((len(tables), self.vocab.size))
        counts[at, tokens] = list(chain.from_iterable(map(dict.values, tables)))
        alpha = self.spec.alpha
        return (counts + alpha) / (counts.sum(axis=1, keepdims=True) + alpha * self.vocab.size)


class MixtureProxy(ModelOracle):
    """A base oracle blended toward a fixed noise distribution.

    ``dist(ctx) = (1 - eps) * base(ctx) + eps * noise``. Scoring through the
    proxy does not touch the base oracle's invocation counter: the proxy is
    its own model that merely shares the base's states and steps. The noise
    is a row; the base's whole table is mixed and checked once, here.
    """

    kind = "mixture"

    def __init__(self, base: ModelOracle, deriv: ProxyDerivation, noise: np.ndarray) -> None:
        if len(noise) != base.vocab_size:
            raise ValueError("noise distribution has wrong vocabulary size")
        super().__init__(base.vocab, base.window)
        self.base = base
        self.deriv = deriv
        self.noise = noise
        own = base._states
        table = (1.0 - deriv.epsilon) * own.table + deriv.epsilon * noise
        check_rows(table)
        self._states = _States(own.keys, own.step, own.root, table)


def _fingerprint(corpus: Sequence[int], order: int, alpha: float) -> str:
    digest = hashlib.sha256(f"ngram|order={order}|alpha={alpha!r}|n={len(corpus)}|".encode())
    digest.update(np.ascontiguousarray(corpus, dtype=np.uint32))
    return digest.hexdigest()


def train_ngram(corpus: Sequence[int], spec: NGramSpec, vocab: Vocabulary) -> NgramModel:
    """Count-train an n-gram oracle on a token sequence.

    Each order is counted in one pass over arrays. A j-gram is coded as the
    rank of its leading (j-1)-gram times V plus its last token, and the
    count both tallies the j-grams and ranks them for order j+1. Ranks stay
    below the corpus length, so no code overflows. Codes are counted in a
    dense table while it is no longer than the corpus, else by one sort;
    every array takes the narrowest dtype that holds it, which keeps the
    transient memory near the corpus size.

    Counting order n counts every order 1..n, so this is the one counting
    routine: ``train_ngrams`` builds a family's lower orders on the count
    tables of one call here, shared and read-only. Raises
    CorpusTooShortError when the corpus has fewer tokens than the
    requested order (no full window exists).
    """
    if len(corpus) < spec.order:
        raise CorpusTooShortError(
            f"corpus of {len(corpus)} tokens cannot train order {spec.order}"
        )
    size = vocab.size
    tokens = np.asarray(corpus)
    if tokens.min() < 0 or tokens.max() >= size:
        raise ValueError("corpus contains token ids outside the vocabulary")
    tokens = tokens.astype(np.min_scalar_type(size - 1), copy=False)
    counts: dict[int, dict[tuple[int, ...], dict[int, int]]] = {}
    grams: list[tuple[int, ...]] = [()]  # the (j-1)-grams, by rank
    rank = np.zeros(len(tokens) + 1, dtype=np.uint8)  # of the (j-1)-gram at i
    for j in range(1, spec.order + 1):
        span = len(grams) * size
        code = rank[: len(tokens) - j + 1].astype(np.min_scalar_type(span))
        code *= size
        code += tokens[j - 1 :]
        if span <= len(code):
            tally = np.bincount(code, minlength=span)
            unique = np.flatnonzero(tally)
            tally = tally[unique]
            lookup = np.zeros(span, dtype=np.min_scalar_type(len(unique)))
            lookup[unique] = np.arange(len(unique))
            rank = lookup[code]
        else:
            unique, rank, tally = np.unique(code, return_inverse=True, return_counts=True)
        table: dict[tuple[int, ...], dict[int, int]] = {}
        ranked: list[tuple[int, ...]] = []
        for c, count in zip(unique.tolist(), tally.tolist()):
            ctx, nxt = grams[c // size], c % size
            table.setdefault(ctx, {})[nxt] = count
            ranked.append(ctx + (nxt,))
        counts[j], grams = table, ranked
    stamped = replace(spec, fingerprint=_fingerprint(tokens, spec.order, spec.alpha))
    return NgramModel(vocab, stamped, counts)


def train_ngrams(
    corpus: Sequence[int], orders: Sequence[int], alpha: float, vocab: Vocabulary
) -> list[NgramModel]:
    """One n-gram per entry of ``orders`` (in any order, repeats allowed),
    each equal to ``train_ngram`` at its order, from one count.

    ``train_ngram`` counts once, at the highest order. Every other model is
    built on that model's count tables for orders 1..n, which the models
    share and never write, and is fingerprinted as ``train_ngram`` would
    fingerprint it. Each entry is its own model, with its own states.
    """
    top = train_ngram(corpus, NGramSpec(max(orders), alpha), vocab)
    first = list(orders).index(top.order)
    return [
        top if i == first else NgramModel(
            vocab, NGramSpec(order, alpha, _fingerprint(corpus, order, alpha)),
            {j: top._counts[j] for j in range(1, order + 1)},
        )
        for i, order in enumerate(orders)
    ]


def derive_proxy(target: ModelOracle, deriv: ProxyDerivation) -> MixtureProxy:
    """Build a controlled-alignment proxy from a target oracle.

    ``eps = 0`` reproduces the target exactly; ``eps = 1`` is pure noise.
    Unigram noise requires an n-gram target (it reuses the trained unigram).
    """
    if deriv.noise_kind == "uniform":
        noise = np.full(target.vocab_size, 1.0 / target.vocab_size)
    else:
        if not isinstance(target, NgramModel):
            raise ValueError("unigram noise needs an n-gram target oracle")
        noise = target.unigram()
    return MixtureProxy(target, deriv, noise)


# ---------------------------------------------------------------------------
# Serialization. One JSON document per oracle; nested for mixtures. Keys are
# sorted when dumping so identical oracles serialize byte-identically.
# ---------------------------------------------------------------------------


def _ctx_key(ctx: tuple[int, ...]) -> str:
    return ",".join(str(t) for t in ctx)


def _ctx_unkey(key: str) -> tuple[int, ...]:
    return tuple(int(part) for part in key.split(",")) if key else ()


def _oracle_payload(oracle: ModelOracle) -> dict:
    if isinstance(oracle, NgramModel):
        return {
            "kind": "ngram",
            "order": oracle.spec.order,
            "alpha": oracle.spec.alpha,
            "fingerprint": oracle.spec.fingerprint,
            "vocab_size": oracle.vocab_size,
            "symbols": list(oracle.vocab.symbols) if oracle.vocab.symbols else None,
            "counts": {
                str(j): {_ctx_key(ctx): {str(t): c for t, c in row.items()} for ctx, row in table.items()}
                for j, table in oracle._counts.items()
            },
        }
    if isinstance(oracle, TableModel):
        return {
            "kind": "table",
            "vocab_size": oracle.vocab_size,
            "symbols": list(oracle.vocab.symbols) if oracle.vocab.symbols else None,
            "rows": {_ctx_key(ctx): row.tolist() for ctx, row in oracle.rows.items()},
            "default": None if oracle.default is None else oracle.default.tolist(),
        }
    if isinstance(oracle, MixtureProxy):
        return {
            "kind": "mixture",
            "epsilon": oracle.deriv.epsilon,
            "noise_kind": oracle.deriv.noise_kind,
            "noise": oracle.noise.tolist(),
            "base": _oracle_payload(oracle.base),
        }
    raise TypeError(f"cannot serialize oracle of type {type(oracle).__name__}")


def _oracle_from_payload(payload: dict) -> ModelOracle:
    kind = payload["kind"]
    if kind == "ngram":
        symbols = payload.get("symbols")
        vocab = Vocabulary(payload["vocab_size"], tuple(symbols) if symbols else None)
        spec = NGramSpec(payload["order"], payload["alpha"], payload.get("fingerprint"))
        counts = {
            int(j): {_ctx_unkey(k): {int(t): int(c) for t, c in row.items()} for k, row in table.items()}
            for j, table in payload["counts"].items()
        }
        return NgramModel(vocab, spec, counts)
    if kind == "table":
        symbols = payload.get("symbols")
        vocab = Vocabulary(payload["vocab_size"], tuple(symbols) if symbols else None)
        rows = {_ctx_unkey(k): Distribution(v) for k, v in payload["rows"].items()}
        default = Distribution(payload["default"]) if payload.get("default") else None
        return TableModel(vocab, rows, default)
    if kind == "mixture":
        base = _oracle_from_payload(payload["base"])
        deriv = ProxyDerivation(payload["epsilon"], payload["noise_kind"])
        return MixtureProxy(base, deriv, Distribution(payload["noise"]).probs)
    raise ValueError(f"unknown oracle kind {kind!r}")


def save_oracle(oracle: ModelOracle, path: str | Path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "model": _oracle_payload(oracle),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=None) + "\n", encoding="utf-8")


def load_oracle(path: str | Path) -> ModelOracle:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('version')!r}")
    return _oracle_from_payload(doc["model"])
