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
read-only row, and a batched call one read-only ``(positions, V)`` block,
a row per scored position.

Each oracle reads only its ``window`` of most recent context tokens, so
every pass trims the committed context to that window once. From there it
walks window states: every tail with the same key (``_key``) has the same
row, so a state is computed, validated and stored once, on first use, and
the state after each next token is filled in as it is first asked for.
A state keeps its row's argmax and top-2 margin too, and its CDF from its
first draw on; every pass records the states it walked, so greedy decisions,
T=1 draft draws and T=1 margins read those instead of the rows.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Distribution, Vocabulary, check_rows, top2_margin

__all__ = [
    "CorpusTooShortError",
    "MixtureProxy",
    "ModelOracle",
    "NGramSpec",
    "NgramModel",
    "PassMeter",
    "ProxyDerivation",
    "TableModel",
    "derive_proxy",
    "load_oracle",
    "save_oracle",
    "train_ngram",
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
    """An oracle's window states, each added on first use.

    State ``s`` holds ``keys[s]``, its row ``table[s]`` (checked once, when
    the state is added, so a broken row raises and adds no state), its
    argmax ``best[s]`` (lowest index on ties) and top-2 ``margin[s]``, taken
    then too, and ``step[s]``, which maps each token asked for so far to the
    state after it. ``of_tail`` and ``of_key`` find a state from a window
    tail or a key. ``cdf(s)`` is the row's CDF as a list, filled on the
    first draw from the state, not when it is added: few states are ever
    drawn from, and a list for every state would cost memory.
    """

    __slots__ = ("of_tail", "of_key", "keys", "step", "table", "best", "margin", "cdfs")

    def __init__(self, vocab_size: int) -> None:
        self.of_tail: dict[tuple[int, ...], int] = {}
        self.of_key: dict[tuple[int, ...], int] = {}
        self.keys: list[tuple[int, ...]] = []
        self.step: list[dict[int, int]] = []
        self.best: list[int] = []
        self.margin: list[float] = []
        self.cdfs: list[list[float] | None] = []
        self.table = np.empty((16, vocab_size))
        self.table.setflags(write=False)

    def add(self, key: tuple[int, ...], row: np.ndarray) -> int:
        check_rows(row)
        s = len(self.keys)
        if s == len(self.table):
            grown = np.empty((2 * s, self.table.shape[1]))
            grown[:s] = self.table
            self.table = grown
        self.table.setflags(write=True)
        self.table[s] = row
        self.table.setflags(write=False)
        self.of_key[key] = s
        self.keys.append(key)
        self.step.append({})
        self.best.append(int(row.argmax()))
        self.margin.append(top2_margin(row))
        self.cdfs.append(None)
        return s

    def cdf(self, s: int) -> list[float]:
        cdf = self.cdfs[s]
        if cdf is None:
            cdf = self.cdfs[s] = self.table[s].cumsum().tolist()
        return cdf


class ModelOracle:
    """Base class: deterministic context -> next-token distribution."""

    kind = "abstract"

    def __init__(self, vocab: Vocabulary) -> None:
        self.vocab = vocab
        self._passes = 0
        # How many trailing context tokens the oracle reads; None is all.
        # Every oracle in the package has a finite window: with None, each
        # distinct whole context is a state, so the table grows per context.
        self.window: int | None = None
        # Window states and draft trees by window tail and shape (kept by
        # ``draft_tree``); fork() shares both, as it shares every table.
        self._states = _States(vocab.size)
        self._trees: dict[tuple, tuple] = {}
        # The states the last pass walked, one per row it returned.
        self.walked: list[int] = []

    @property
    def vocab_size(self) -> int:
        return self.vocab.size

    @property
    def invocation_count(self) -> int:
        """Total forward passes so far (batched calls count once)."""
        return self._passes

    def _dist(self, ctx: tuple[int, ...]) -> np.ndarray:
        raise NotImplementedError

    def _tail(self, ctx: Sequence[int]) -> tuple[int, ...]:
        w = self.window
        return tuple(ctx if w is None or len(ctx) <= w else ctx[len(ctx) - w :])

    def _key(self, tail: tuple[int, ...]) -> tuple[int, ...]:
        """The state key of a window tail: tails of one key share a row, and
        the key plus a token has the same next state as the tail plus it."""
        return tail

    def _state(self, tail: tuple[int, ...]) -> int:
        states = self._states
        s = states.of_tail.get(tail)
        if s is None:
            key = self._key(tail)
            s = states.of_key.get(key)
            if s is None:
                s = states.add(key, self._dist(key))
            states.of_tail[tail] = s
        return s

    def _fill(self, s: int, token: int) -> int:
        """Fill in and return the state after state ``s`` and ``token``."""
        states = self._states
        nxt = self._state(self._tail(states.keys[s] + (token,)))
        states.step[s][token] = nxt
        return nxt

    def _gather(self, states: list[int]) -> np.ndarray:
        """The read-only rows of ``states``, which the pass records as walked."""
        self.walked = states
        block = self._states.table.take(states, axis=0)
        block.setflags(write=False)
        return block

    def argmaxes(self) -> list[int]:
        """The argmax of each row the last pass returned, as its state keeps it."""
        return list(map(self._states.best.__getitem__, self.walked))

    def margins(self) -> tuple[float, ...]:
        """The top-2 margin of each row the last pass returned, likewise."""
        return tuple(map(self._states.margin.__getitem__, self.walked))

    def next_dist(self, ctx: Sequence[int]) -> np.ndarray:
        """Score one position: the read-only row after ``ctx``. One forward
        pass."""
        self._passes += 1
        s = self._state(self._tail(ctx))  # may grow the table: index it after
        self.walked = [s]
        return self._states.table[s]

    def batch_score(self, ctx: Sequence[int], drafted: Sequence[int]) -> np.ndarray:
        """Score positions 1..k+1 of a drafted block in one forward pass.

        Row ``i`` of the read-only ``(k+1, V)`` block is the distribution
        after ``ctx + drafted[:i]``; the last row conditions on the full
        block (the bonus position). Each row is exactly what ``next_dist``
        would return for that prefix.
        """
        self._passes += 1
        step = self._states.step
        s = self._state(self._tail(ctx))
        walked = [s]
        for t in drafted:
            nxt = step[s].get(t)
            s = self._fill(s, t) if nxt is None else nxt
            walked.append(s)
        return self._gather(walked)

    def batch_score_paths(
        self, ctx: Sequence[int], paths: Sequence[tuple[int, ...]]
    ) -> np.ndarray:
        """Score arbitrary continuation paths of ``ctx`` in one forward pass.

        The flattened-tree analogue of ``batch_score``: one row per path,
        conditioned on ``ctx + path``, a single counter bump for all.
        """
        self._passes += 1
        step = self._states.step
        root = self._state(self._tail(ctx))
        ends = []
        for path in paths:
            s = root
            for t in path:
                nxt = step[s].get(t)
                s = self._fill(s, t) if nxt is None else nxt
            ends.append(s)
        return self._gather(ends)

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

    def __init__(
        self,
        drafter: ModelOracle | None = None,
        proxy: ModelOracle | None = None,
        target: ModelOracle | None = None,
    ) -> None:
        self._oracles = drafter, proxy, target
        self._start = self._counts()

    def _counts(self) -> tuple[int, int, int]:
        d, p, t = self._oracles
        return (0 if d is None else d.invocation_count, 0 if p is None else p.invocation_count,
                0 if t is None else t.invocation_count)

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
        super().__init__(vocab)
        for key, dist in rows.items():
            if len(dist) != vocab.size:
                raise ValueError(f"row {key!r} has wrong vocabulary size")
        if default is not None and len(default) != vocab.size:
            raise ValueError("default row has wrong vocabulary size")
        self.rows = {key: dist.probs for key, dist in rows.items()}
        self.default = None if default is None else default.probs
        self.window = max((len(k) for k in rows), default=0)

    def _dist(self, ctx: tuple[int, ...]) -> np.ndarray:
        for n in range(min(self.window, len(ctx)), -1, -1):
            row = self.rows.get(ctx[len(ctx) - n :])
            if row is not None:
                return row
        if self.default is None:
            raise LookupError(f"no table row matches context {ctx!r} and no default row set")
        return self.default


class NgramModel(ModelOracle):
    """Additive-smoothed n-gram oracle with backoff to shorter orders.

    ``P(x | ctx) = (count(ctx, x) + alpha) / (count(ctx, .) + alpha * V)``
    using the last ``order - 1`` context tokens; a context never observed at
    some order backs off to the next shorter order, bottoming out at the
    unigram. ``alpha = 0`` is allowed (pure relative frequencies) but then
    unseen continuations of a seen context get probability zero.
    """

    kind = "ngram"

    def __init__(
        self,
        vocab: Vocabulary,
        spec: NGramSpec,
        counts: dict[int, dict[tuple[int, ...], dict[int, int]]],
    ) -> None:
        super().__init__(vocab)
        if set(counts) != set(range(1, spec.order + 1)):
            raise ValueError("counts must cover every order 1..n")
        self.spec = spec
        self._counts = counts
        self._totals = {
            j: {ctx: sum(table.values()) for ctx, table in counts[j].items()}
            for j in counts
        }
        for j in range(2, spec.order + 1):
            if any(ctx[:-1] not in counts[j - 1] for ctx in counts[j]):
                raise ValueError(f"order-{j} contexts are not prefix-closed")
        self.window = spec.order - 1

    @property
    def order(self) -> int:
        return self.spec.order

    def unigram(self) -> np.ndarray:
        return self._smoothed((), 1)

    def trained_on(self, corpus: Sequence[int]) -> bool:
        """Whether the stored fingerprint is that of training on ``corpus``."""
        return self.spec.fingerprint == _fingerprint(corpus, self.order, self.spec.alpha)

    def _smoothed(self, key: tuple[int, ...], j: int) -> np.ndarray:
        table = self._counts[j][key]
        total = self._totals[j][key]
        weights = np.full(self.vocab.size, self.spec.alpha, dtype=np.float64)
        for token, count in table.items():
            weights[token] += count
        return weights / (total + self.spec.alpha * self.vocab.size)

    def _key(self, tail: tuple[int, ...]) -> tuple[int, ...]:
        """The backoff key: the longest suffix of ``tail``, at most
        ``order - 1`` tokens, seen as a context in training. Seen contexts
        are prefix-closed, so the key plus a token backs off to the same
        key as the tail plus it."""
        for n in range(min(len(tail), self.window), 0, -1):
            key = tail[len(tail) - n :]
            if key in self._counts[n + 1]:
                return key
        return ()

    def _dist(self, ctx: tuple[int, ...]) -> np.ndarray:
        key = self._key(ctx)
        return self._smoothed(key, len(key) + 1)


class MixtureProxy(ModelOracle):
    """A base oracle blended toward a fixed noise distribution.

    ``dist(ctx) = (1 - eps) * base(ctx) + eps * noise``. Scoring through the
    proxy does not touch the base oracle's invocation counter: the proxy is
    its own model that merely shares the base's tables. The noise is a row;
    every mixed row is checked once, when its state is added.
    """

    kind = "mixture"

    def __init__(self, base: ModelOracle, deriv: ProxyDerivation, noise: np.ndarray) -> None:
        super().__init__(base.vocab)
        if len(noise) != base.vocab_size:
            raise ValueError("noise distribution has wrong vocabulary size")
        self.base = base
        self.deriv = deriv
        self.noise = noise
        self.window = base.window

    def _key(self, tail: tuple[int, ...]) -> tuple[int, ...]:
        return self.base._key(tail)

    def _dist(self, ctx: tuple[int, ...]) -> np.ndarray:
        eps = self.deriv.epsilon
        return (1.0 - eps) * self.base._dist(ctx) + eps * self.noise


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

    Raises CorpusTooShortError when the corpus has fewer tokens than the
    requested order (no full window exists).
    """
    if len(corpus) < spec.order:
        raise CorpusTooShortError(
            f"corpus of {len(corpus)} tokens cannot train order {spec.order}"
        )
    size = vocab.size
    if min(corpus) < 0 or max(corpus) >= size:
        raise ValueError("corpus contains token ids outside the vocabulary")
    tokens = np.asarray(corpus, dtype=np.min_scalar_type(size - 1))
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
