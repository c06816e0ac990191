"""Order statistics the harness reports and compares with."""

from __future__ import annotations

import math
import statistics

#: Conventional percentile ladder; the tail metric is the highest rung
#: that still has :data:`MIN_BEYOND` samples above it.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    """Nearest rank of the ``q``-th percentile among ``n`` samples.

    The epsilon keeps 99.9 % of 10 000 at 9 990, not 9 991: the product
    is a hair above the integer in floating point.
    """
    return min(n, max(1, math.ceil(q / 100.0 * n - 1e-9)))


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0..100), nearest rank, no interpolation."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(q, len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder rung with at least ten of ``n`` samples beyond it.

    ``None`` when even the median lacks them (fewer than 20 samples);
    callers then report the maximum and say so.
    """
    best = None
    for q in LADDER:
        if n - _rank(q, n) >= MIN_BEYOND:
            best = q
    return best


def tail(samples) -> tuple[float, str]:
    """``(value, label)`` of the tail statistic for ``samples``."""
    q = tail_percentile(len(samples))
    if q is None:
        return max(samples), "max"
    return percentile(samples, q), f"p{q:g}"


def quartile_spread(samples) -> float:
    """Inter-quartile distance as a share of the median (guide §8)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(statistics.median(samples))
