"""Percentiles with their sample-count rule, and run-to-run spread.

A latency percentile is reported only when at least :data:`MIN_TAIL`
samples lie beyond it: a p99 from 200 samples is decided by two of them.
Percentiles are nearest-rank, so every reported value is one that was
measured.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

__all__ = [
    "MIN_TAIL",
    "percentile",
    "tail_samples",
    "supported",
    "quartiles",
    "spread",
]

#: Samples that must lie beyond a percentile for it to be reported.
MIN_TAIL = 10


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``count`` samples."""
    # Rounded first: 99.9 / 100 * 10_000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(q / 100.0 * count, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("percentile must be in (0, 100], got %r" % (q,))
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def tail_samples(count: int, q: float) -> int:
    """Samples strictly beyond the ``q``-th percentile's rank."""
    return count - _rank(count, q) if count else 0


def supported(count: int, q: float) -> bool:
    """True when ``count`` samples leave at least :data:`MIN_TAIL` beyond ``q``."""
    return tail_samples(count, q) >= MIN_TAIL


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)
