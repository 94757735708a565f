"""Statistics that turn timings and runs into medians, spreads and bounds."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles
    (exclusive method) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0.0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``share``
    of all values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < share <= 1.0:
        raise ValueError("share must lie in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return float(ordered[rank - 1])


def throughput(tokens: Sequence[int], times_by_request: Sequence[Sequence[float]]) -> float:
    """Tokens of one pass over the requests per unit of summed request time,
    each request at the median of its passes.

    Every pass decodes the same requests, so the median per request discards
    passes that a burst of host load slowed or sped up, and summing keeps
    the mix of cheap and dear requests fixed.
    """
    if len(tokens) != len(times_by_request) or not tokens:
        raise ValueError("need one token count and one timing list per request")
    total = sum(median(times) for times in times_by_request)
    if total <= 0.0:
        raise ValueError("requests took no time")
    return sum(tokens) / total


def bound_for(spreads: Sequence[float]) -> float:
    """A regression bound that the measured spreads stay well inside: three
    times the largest spread, rounded up to the next 0.01, at least 0.01
    and at most 0.25, the widest bound a metric may have."""
    widest = max(spreads, default=0.0)
    return min(0.25, max(0.01, math.ceil(widest * 3.0 * 100.0 - 1e-9) / 100.0))
