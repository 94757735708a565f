"""Distribution-level primitives shared by every decoding component.

Everything downstream (drafting, verification, routing, metrics) works on
plain categorical distributions over a fixed token vocabulary. This module
pins down the numeric conventions once:

* a distribution is a row: a float64 vector, non-negative, summing to 1
  within 1e-9. A scoring pass walks a state per scored position, its rows
  a read-only block, and the functions below read a row or a block.
  ``Distribution`` is only the checked type for rows that come from
  outside the decode path (hand-built tables, model files);
* there are two temperatures, and both read the raw rows: T=0 is exact
  argmax (lowest index wins ties), read as each row's window state keeps
  it, with no one-hot built; T=1 samples the row itself. Every function
  that takes a temperature refuses any other (``apply_temperature``);
* sampling is inverse-CDF over ascending token index and consumes exactly
  one uniform draw;
* randomness comes from named streams addressed by (seed, label), so
  independent roles (draft sampling, acceptance coins, corrections) never
  share a generator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "AllZeroError",
    "Distribution",
    "RandomStream",
    "Vocabulary",
    "apply_temperature",
    "normalize",
    "sample",
    "top2_margin",
]

SUM_TOL = 1e-9
UNIFORM_BLOCK = 64  # uniforms a stream takes from its generator at a time


class AllZeroError(ValueError):
    """Raised when asked to normalize a weight vector with no mass."""


@dataclass(frozen=True)
class Vocabulary:
    """A contiguous token id space ``0..size-1``, optionally with symbols."""

    size: int
    symbols: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"vocabulary needs at least 2 tokens, got {self.size}")
        if self.symbols is not None and len(self.symbols) != self.size:
            raise ValueError("symbols length must match vocabulary size")

    def __len__(self) -> int:
        return self.size

    def decode(self, tokens: Iterable[int]) -> str:
        if self.symbols is None:
            raise ValueError("vocabulary has no symbol table")
        return "".join(self.symbols[t] for t in tokens)


def check_rows(probs: np.ndarray) -> None:
    """Raise ValueError unless every row (along the last axis) is finite,
    non-negative and sums to 1 within ``SUM_TOL``."""
    if (probs < 0.0).any() or not np.isfinite(probs).all():
        raise ValueError("distribution entries must be finite and >= 0")
    totals = probs.sum(axis=-1)
    off = abs(totals - 1.0) > SUM_TOL
    if off.any():
        bad = np.atleast_1d(totals)[np.atleast_1d(off)]
        raise ValueError(f"distribution sums to {float(bad[0])!r}, not 1")


class Distribution:
    """A checked, immutable probability row from outside the decode path.

    ``probs`` is the read-only row; building one runs ``check_rows``.
    """

    __slots__ = ("probs",)

    def __init__(self, probs: Sequence[float] | np.ndarray) -> None:
        arr = np.array(probs, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("distribution must be a non-empty 1-d vector")
        check_rows(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Distribution is immutable")

    def __len__(self) -> int:
        return int(self.probs.size)

    def __repr__(self) -> str:
        return f"Distribution({np.array2string(self.probs, precision=4)})"


def normalize(weights: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale a non-negative weight vector to a probability row.

    Raises AllZeroError when the vector carries no mass at all.
    """
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("weights must be a non-empty 1-d vector")
    if (arr < 0.0).any() or not np.isfinite(arr).all():
        raise ValueError("weights must be finite and >= 0")
    total = float(arr.sum())
    if total <= 0.0:
        raise AllZeroError("cannot normalize an all-zero weight vector")
    return arr / total


def apply_temperature(rows: np.ndarray | None, temperature: float) -> np.ndarray | None:
    """The one temperature check: ``rows``, as they are, at T=0 and T=1.

    Greedy decisions read each raw row's argmax (lowest index on ties) and
    sampling draws from the raw row, so neither reshapes anything. Any
    other temperature, NaN included, raises ValueError. Every public
    function that takes a temperature calls this once on entry, with no
    rows (``None``), before it makes a pass or draws a uniform.
    """
    if temperature not in (0.0, 1.0):
        raise ValueError(f"temperature must be 0 (greedy) or 1 (sampling), got {temperature!r}")
    return rows


def sample(probs: np.ndarray, stream: "RandomStream") -> int:
    """Inverse-CDF draw from a row over ascending token index; one uniform
    consumed."""
    u = stream.uniform()
    cdf = probs.cumsum()
    idx = int(cdf.searchsorted(u, side="right"))
    if idx >= probs.size:
        # Float shortfall in the CDF tail: land on the last positive token.
        idx = int(np.flatnonzero(probs > 0.0)[-1])
    return idx


def top2_margin(probs: np.ndarray) -> float | np.ndarray:
    """Gap between the largest and second-largest probability.

    A float for one row; for a block, one margin per row.
    """
    if probs.shape[-1] < 2:
        return 0.0 if probs.ndim == 1 else np.zeros(probs.shape[:-1])
    top_pair = np.partition(probs, -2, axis=-1)[..., -2:]
    margins = top_pair[..., 1] - top_pair[..., 0]
    return float(margins) if probs.ndim == 1 else margins


def _entropy(seed: int, label: str) -> np.ndarray:
    """The little-endian 32-bit words ``SeedSequence`` makes of the ints of
    ``seed`` and of the first 16 bytes of the label's SHA-256, as one array."""
    head = seed.to_bytes(4 if seed < 2**32 else 8, "little")
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return np.frombuffer(head + digest[:16], dtype="<u4").astype(np.uint32, copy=False)


class RandomStream:
    """A deterministic uniform stream addressed by (seed, label).

    Streams with different labels are statistically independent, and the
    mapping is stable across platforms and processes (the label is folded
    into the seed via SHA-256, the generator is numpy PCG64). ``draws``
    counts consumed uniforms, which lets tests verify stopping-time claims.
    The generator is seeded on the first draw, so a stream that is never
    drawn from (every greedy decode) costs no generator. Uniforms are read
    from a block of ``UNIFORM_BLOCK`` that one ``random`` call fills: the
    same doubles, in the same order, as one call per draw would give.
    """

    __slots__ = ("seed", "label", "draws", "_gen", "_block")

    def __init__(self, seed: int, label: str = "") -> None:
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be an integer in [0, 2**64)")
        self.seed = seed
        self.label = label
        self.draws = 0
        self._gen: np.random.Generator | None = None
        self._block: list[float] = []  # the unread rest of the block, last first

    def uniform(self) -> float:
        block = self._block
        if not block:
            gen = self._gen
            if gen is None:
                entropy = np.random.SeedSequence(_entropy(self.seed, self.label))
                gen = self._gen = np.random.Generator(np.random.PCG64(entropy))
            block.extend(reversed(gen.random(UNIFORM_BLOCK).tolist()))
        self.draws += 1
        return block.pop()

    def derive(self, label: str) -> "RandomStream":
        child = f"{self.label}/{label}" if self.label else label
        return RandomStream(self.seed, child)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, label={self.label!r}, draws={self.draws})"
