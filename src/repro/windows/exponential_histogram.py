"""Exponential histograms (Datar, Gionis, Indyk, Motwani; SIAM J. Comput. 2002).

An exponential histogram (EH) answers the *basic counting* problem: how many
unit arrivals ("true bits") occurred within the most recent ``r`` clock units,
with a guaranteed relative error of at most ``epsilon``.

The structure keeps the arrivals grouped into *buckets* of exponentially
increasing sizes (1, 1, ..., 2, 2, ..., 4, 4, ...).  The key invariant
(invariant 1 in the ECM-sketch paper) is that the size of every bucket ``j``
is at most an ``epsilon`` fraction of twice the number of arrivals more recent
than ``j``::

    C_j / (2 * (1 + sum_{i<j} C_i)) <= epsilon

Queries sum the sizes of all buckets that are newer than the query start and
count only *half* of the oldest overlapping bucket; the invariant bounds the
resulting relative error by ``epsilon``.

This implementation follows the paper's own engineering notes (Section 7.1):
buckets are stored in per-size-class deques (level ``i`` holds only buckets of
size ``2**i``), which gives constant-time merges and random access to levels.
Both time-based and count-based windows are supported through the common
:class:`~repro.windows.base.SlidingWindowCounter` clock abstraction.

This is the reference histogram: one insert-and-cascade per unit arrival,
and runs go through the base class's validate-then-:meth:`add` loop.  The
vectorized cascade of batched ingests and of aggregation lives in
:class:`~repro.windows.columnar_eh.ColumnarEHStore`, the layout sketches use.

A histogram keeps its clocks as they came while every clock it took is an
int.  Its first other clock turns it float for good: that clock and every
stored and later clock become Python floats, so a serialized histogram
holds one clock type.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from collections.abc import Iterator

from ..core.errors import ConfigurationError
from .base import SlidingWindowCounter, WindowModel, is_int_clock, validate_epsilon

__all__ = ["Bucket", "ExponentialHistogram"]

#: Bits charged per stored field (size, timestamp) under the paper's 32-bit model.
_FIELD_BITS = 32


@dataclass(slots=True)
class Bucket:
    """A single exponential-histogram bucket.

    Attributes:
        size: Number of unit arrivals summarised by the bucket (a power of two
            for freshly created buckets; merged aggregation buckets may carry
            arbitrary sizes transiently).
        start: Clock value of the oldest arrival in the bucket.
        end: Clock value of the most recent arrival in the bucket.
    """

    size: int
    start: float
    end: float

    def merge_with_older(self, older: Bucket) -> Bucket:
        """Return the bucket obtained by merging this bucket with an older one."""
        return Bucket(self.size + older.size, older.start, self.end)


class ExponentialHistogram(SlidingWindowCounter):
    """Deterministic epsilon-approximate sliding-window counter.

    Args:
        epsilon: Target relative error of the estimates, in ``(0, 1)``.
        window: Sliding-window length ``N`` (time units or arrivals).
        model: Time-based or count-based window model.

    Example:
        >>> eh = ExponentialHistogram(epsilon=0.1, window=1000)
        >>> for t in range(500):
        ...     eh.add(t)
        >>> abs(eh.estimate(100, now=499) - 100) <= 0.1 * 100 + 1
        True
    """

    def __init__(
        self,
        epsilon: float,
        window: float,
        model: WindowModel = WindowModel.TIME_BASED,
    ) -> None:
        super().__init__(window=window, model=model)
        self.epsilon = validate_epsilon(epsilon)
        # k = ceil(1/epsilon); keeping between ceil(k/2) and ceil(k/2)+1 buckets
        # of every size class bounds the oldest bucket by the invariant above.
        self.k = int(math.ceil(1.0 / self.epsilon))
        self._max_per_level = int(math.ceil(self.k / 2.0)) + 1
        # Level i holds buckets of size 2**i, most recent at the right end.
        self._levels: list[deque[Bucket]] = []
        self._total_arrivals = 0
        self._in_window_upper = 0  # sum of all bucket sizes currently stored
        #: Set by the first clock that is not an int: every clock is a float.
        self._float_clocks = False
        # Memoized newest-first bucket view: every estimate() walks the
        # buckets in time order, and rebuilding + sorting that list per query
        # dominates the read path (heavy-hitter descents, ||a_r||_1 scans).
        # Any mutation drops the cache; queries rebuild it lazily.
        self._newest_first_cache: list[Bucket] | None = None

    # ----------------------------------------------------------------- adds
    def add(self, clock: float, count: int = 1) -> None:
        """Register ``count`` unit arrivals at clock value ``clock``."""
        if count < 0:
            raise ConfigurationError("count must be non-negative, got %r" % (count,))
        if count == 0:
            return
        self._newest_first_cache = None
        self._advance_clock(clock)
        if not self._float_clocks and not is_int_clock(clock):
            self._promote()
        if self._float_clocks:
            clock = self._last_clock = float(clock)
        self._total_arrivals += count
        for _ in range(count):
            self._insert_unit(clock)
        self._expire(clock)

    def _promote(self) -> None:
        """Turn the histogram float for good: every stored clock becomes a float."""
        self._float_clocks = True
        for level in self._levels:
            for bucket in level:
                bucket.start = float(bucket.start)
                bucket.end = float(bucket.end)
        if self._last_clock is not None:
            self._last_clock = float(self._last_clock)

    def _insert_unit(self, clock: float) -> None:
        """Insert a single unit arrival as a fresh size-1 bucket and rebalance."""
        if not self._levels:
            self._levels.append(deque())
        self._levels[0].append(Bucket(1, clock, clock))
        self._in_window_upper += 1
        self._cascade_merges()

    def _cascade_merges(self) -> None:
        """Merge the two oldest buckets of any overfull size class, cascading up."""
        level = 0
        while level < len(self._levels) and len(self._levels[level]) > self._max_per_level:
            older = self._levels[level].popleft()
            newer = self._levels[level].popleft()
            merged = newer.merge_with_older(older)
            if level + 1 >= len(self._levels):
                self._levels.append(deque())
            self._levels[level + 1].append(merged)
            level += 1

    # --------------------------------------------------------------- expiry
    def _expire(self, now: float) -> None:
        """Drop buckets whose most recent arrival has left the window."""
        self._newest_first_cache = None
        threshold = now - self.window
        for level in self._levels:
            while level and level[0].end <= threshold:
                expired = level.popleft()
                self._in_window_upper -= expired.size

    def expire(self, now: float) -> None:
        """Public expiry hook: drop buckets entirely outside ``(now - N, now]``."""
        self._expire(now)

    # -------------------------------------------------------------- queries
    def estimate(self, range_length: float | None = None, now: float | None = None) -> float:
        """Estimate the number of arrivals in the last ``range_length`` clock units."""
        start, _end = self.resolve_query_bounds(range_length, now)
        buckets = self._newest_first_view()
        if not buckets:
            return 0.0
        total = 0.0
        oldest_overlapping: Bucket | None = None
        for bucket in buckets:
            if bucket.end <= start:
                break
            total += bucket.size
            oldest_overlapping = bucket
        if oldest_overlapping is None:
            return 0.0
        if oldest_overlapping.start <= start:
            # Partial overlap: the invariant bounds size/2 by epsilon times the
            # number of newer arrivals, which is exactly the paper's error term.
            total -= oldest_overlapping.size / 2.0
        return total

    def total_arrivals(self) -> int:
        """Exact number of arrivals registered since construction."""
        return self._total_arrivals

    def arrivals_in_window_upper_bound(self) -> int:
        """Sum of all stored bucket sizes (an upper bound on in-window arrivals)."""
        return self._in_window_upper

    # ------------------------------------------------------------ structure
    def _newest_first_view(self) -> list[Bucket]:
        """Memoized newest-first bucket list (internal: never mutate it)."""
        cached = self._newest_first_cache
        if cached is not None:
            return cached
        collected: list[Bucket] = []
        for level in self._levels:
            collected.extend(level)
        collected.sort(key=lambda b: (b.end, b.start), reverse=True)
        self._newest_first_cache = collected
        return collected

    def buckets_newest_first(self) -> list[Bucket]:
        """All live buckets ordered from most recent to oldest.

        Returns a fresh list (callers may mutate it freely); the ordering
        work is memoized between mutations.
        """
        return list(self._newest_first_view())

    def buckets_oldest_first(self) -> list[Bucket]:
        """All live buckets ordered from oldest to most recent."""
        return list(reversed(self._newest_first_view()))

    def iter_buckets(self) -> Iterator[Bucket]:
        """Iterate over live buckets in no particular order."""
        for level in self._levels:
            yield from level

    def bucket_count(self) -> int:
        """Number of live buckets."""
        return sum(len(level) for level in self._levels)

    def check_invariant(self) -> bool:
        """Verify invariant 1 of the paper on the current bucket list.

        The paper's invariant bounds every bucket ``j`` (newest-first) by
        ``C_j <= 2 * epsilon * (1 + sum_{i<j} C_i)``.  Because buckets hold an
        integral number of arrivals, the bound can only be met up to the
        granularity of one arrival (the newest size-1 bucket already "violates"
        the literal inequality whenever ``epsilon < 0.5``); we therefore check
        ``C_j <= 2 * epsilon * (1 + sum_{i<j} C_i) + 1``, which is exactly the
        inequality that drives the ``epsilon * truth + O(1)`` estimate
        guarantee verified by the accuracy tests.
        """
        newer_sum = 0
        for bucket in self._newest_first_view():
            if bucket.size > 2.0 * self.epsilon * (1 + newer_sum) + 1.0 + 1e-9:
                return False
            newer_sum += bucket.size
        return True

    # --------------------------------------------------------------- memory
    def memory_bytes(self) -> int:
        """Analytical footprint: two timestamps and one size field per bucket."""
        per_bucket_bits = 3 * _FIELD_BITS
        overhead_bits = 2 * _FIELD_BITS  # window length + arrival counter
        return (self.bucket_count() * per_bucket_bits + overhead_bits) // 8

    def resident_bytes(self) -> int:
        """Estimated true resident memory of the Python object graph.

        Unlike :meth:`memory_bytes` (the paper's 32-bit synopsis model), this
        walks what the process actually holds: the histogram object, the
        level deques, and one :class:`Bucket` object plus three boxed scalars
        per bucket.  It is what the columnar layout's array footprint should
        be compared against.
        """
        total = sys.getsizeof(self) + sys.getsizeof(self._levels)
        for level in self._levels:
            total += sys.getsizeof(level)
            for bucket in level:
                total += (
                    sys.getsizeof(bucket)
                    + sys.getsizeof(bucket.size)
                    + sys.getsizeof(bucket.start)
                    + sys.getsizeof(bucket.end)
                )
        return total

    # ----------------------------------------------------------------- misc
    def is_empty(self) -> bool:
        """True when no live bucket remains."""
        return self.bucket_count() == 0

    def __repr__(self) -> str:
        return (
            "ExponentialHistogram(epsilon=%g, window=%g, model=%s, buckets=%d)"
            % (self.epsilon, self.window, self.model, self.bucket_count())
        )
