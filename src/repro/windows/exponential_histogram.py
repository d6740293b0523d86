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
from collections.abc import Iterator, Sequence

import numpy as np

from ..core.errors import ConfigurationError
from .base import SlidingWindowCounter, WindowModel, is_int_clock, validate_epsilon

__all__ = ["Bucket", "ExponentialHistogram"]

#: Bits charged per stored field (size, timestamp) under the paper's 32-bit model.
_FIELD_BITS = 32
#: Cap on the per-unit expansion of a counted bulk run (8 bytes per unit,
#: so 32 MiB of transient clock array); larger runs use the exact per-pair
#: path, whose memory stays proportional to the structure.
_BULK_EXPANSION_LIMIT = 1 << 22


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

    def add_batch(
        self,
        clocks: Sequence[float],
        counts: Sequence[int] | None = None,
        *,
        assume_ordered: bool = False,
    ) -> None:
        """Bulk-insert a run of in-order arrivals (see the base-class contract).

        Produces exactly the same bucket structure as per-arrival :meth:`add`
        calls, but pays the per-arrival overhead once per run: the run is
        validated upfront (so invalid input mutates nothing), attribute
        lookups are hoisted out of the loop, and the expiry scan only runs
        when the oldest retained bucket can actually have left the window (a
        skipped scan is a no-op in the scalar path, so skipping it cannot
        change state).
        """
        if not len(clocks):
            return
        self._validate_batch(clocks, counts, assume_ordered)
        clocks = self._kept_clocks(clocks, counts)
        self._newest_first_cache = None
        levels = self._levels
        max_per = self._max_per_level
        window = self.window
        last = self._last_clock
        total = self._total_arrivals
        upper = self._in_window_upper
        # Clock of the oldest retained bucket: expiry can only remove something
        # once `clock - window` reaches it.  Merges may strictly increase the
        # true minimum; keeping a stale lower value merely triggers a no-op
        # scan, never a missed expiry.
        oldest_end = math.inf
        for level in levels:
            if level:
                end = level[0].end
                if end < oldest_end:
                    oldest_end = end
        if counts is None:
            # When the whole run ends before anything can leave the window
            # (neither a pre-existing bucket nor one created during the run),
            # every expiry scan of the scalar path is a no-op and the
            # per-arrival loop collapses to its insert-and-cascade core.
            final_threshold = clocks[-1] - window
            if final_threshold < oldest_end and final_threshold < clocks[0]:
                self._add_unit_run(clocks)
                return
            pairs = [(clock, 1) for clock in clocks]
        else:
            expanded = self._expand_counted_run(clocks, counts)
            if expanded is not None:
                if expanded.size:
                    self._add_counted_run(expanded)
                # An all-zero run is a no-op in the scalar path as well.
                return
            pairs = list(zip(clocks, counts, strict=False))
        # Level 0 is created lazily exactly like the scalar path, so that an
        # all-zero or empty batch leaves the structure untouched.
        level0: deque[Bucket] | None = levels[0] if levels else None
        append0 = level0.append if level0 is not None else None
        try:
            # The run was validated above, so the loop only applies state.
            for clock, count in pairs:
                if count == 0:
                    continue
                last = clock
                total += count
                upper += count
                if append0 is None:
                    levels.append(deque())
                    level0 = levels[0]
                    append0 = level0.append
                for _ in range(count):
                    append0(Bucket(1, clock, clock))
                    if len(level0) > max_per:
                        level = 0
                        while level < len(levels) and len(levels[level]) > max_per:
                            bucket_deque = levels[level]
                            older = bucket_deque.popleft()
                            newer = bucket_deque.popleft()
                            if level + 1 >= len(levels):
                                levels.append(deque())
                            levels[level + 1].append(
                                Bucket(newer.size + older.size, older.start, newer.end)
                            )
                            level += 1
                if oldest_end > clock:
                    oldest_end = clock
                threshold = clock - window
                if oldest_end <= threshold:
                    for bucket_deque in levels:
                        while bucket_deque and bucket_deque[0].end <= threshold:
                            upper -= bucket_deque.popleft().size
                    oldest_end = math.inf
                    for bucket_deque in levels:
                        if bucket_deque:
                            end = bucket_deque[0].end
                            if end < oldest_end:
                                oldest_end = end
        finally:
            self._last_clock = last
            self._total_arrivals = total
            self._in_window_upper = upper

    def _kept_clocks(
        self, clocks: Sequence[float], counts: Sequence[int] | None
    ) -> Sequence[float]:
        """A validated run's clocks as :meth:`add` keeps them: as they came
        while every clock is an int, else as Python floats, promoting the
        histogram first.  A zero-weight arrival promotes nothing, as in
        :meth:`add`."""
        if not self._float_clocks:
            weighed = clocks if counts is None else [c for c, n in zip(clocks, counts) if n]
            if all(map(is_int_clock, weighed)):
                return clocks
            self._promote()
        if set(map(type, clocks)) == {float}:
            return clocks
        return [float(clock) for clock in clocks]

    def _promote(self) -> None:
        """Turn the histogram float for good: every stored clock becomes a float."""
        self._float_clocks = True
        for level in self._levels:
            for bucket in level:
                bucket.start = float(bucket.start)
                bucket.end = float(bucket.end)
        if self._last_clock is not None:
            self._last_clock = float(self._last_clock)

    def _add_unit_run(self, clocks: Sequence[float]) -> None:
        """Insert a pre-validated run of unit arrivals that triggers no expiry.

        The caller has established that no bucket can leave the window before
        the run's final clock, so the per-arrival machinery collapses: all
        unit buckets are appended in one C-speed ``extend`` and the cascade
        runs once at the end, level by level.  Deferring the cascade is exact:
        arrivals only ever land at the *newest* end of a level while merges
        only ever consume the two *oldest* buckets, so for a fixed arrival
        sequence the greedy left-to-right pairing — and therefore the final
        bucket structure — is identical whether merges are interleaved after
        every insert (the scalar path) or performed in one pass per level.
        The merged pair's newer bucket is reused in place (buckets are owned
        exclusively by the level deques), avoiding a transient allocation.
        """
        levels = self._levels
        max_per = self._max_per_level
        if not levels:
            levels.append(deque())
        levels[0].extend([Bucket(1, clock, clock) for clock in clocks])
        level = 0
        num_levels = len(levels)
        while level < num_levels and len(levels[level]) > max_per:
            bucket_deque = levels[level]
            if level + 1 >= num_levels:
                levels.append(deque())
                num_levels += 1
            append_next = levels[level + 1].append
            popleft = bucket_deque.popleft
            while len(bucket_deque) > max_per:
                older = popleft()
                newer = popleft()
                newer.size += older.size
                newer.start = older.start
                append_next(newer)
            level += 1
        self._last_clock = clocks[-1]
        self._total_arrivals += len(clocks)
        self._in_window_upper += len(clocks)

    def _expand_counted_run(
        self, clocks: Sequence[float], counts: Sequence[int]
    ) -> np.ndarray | None:
        """Expand a counted run into per-unit clocks when the bulk path applies.

        The deferred-cascade bulk insert (:meth:`_add_counted_run`) is only
        equivalent to the scalar path when (a) the histogram holds no live
        bucket, so every expiry decision during the run concerns run-created
        buckets only, and (b) nothing created by the run can expire before the
        run ends.  The expansion itself must also be *exact*: the run holds
        one clock type (:meth:`_kept_clocks`), and object-dtype clocks fall
        back to the scalar loop.

        Returns:
            The per-unit clock array (possibly empty, for an all-zero run), or
            ``None`` when the caller must use the exact per-pair path instead.
        """
        if self._in_window_upper != 0:
            return None
        counts_array = np.asarray(counts)
        if counts_array.dtype.kind not in "iu":
            return None
        if int(counts_array.sum()) > _BULK_EXPANSION_LIMIT:
            # The expansion is O(total arrivals); beyond this cap the exact
            # per-pair path keeps transient memory proportional to the
            # structure instead.
            return None
        clocks_array = np.asarray(clocks)
        if clocks_array.dtype.kind not in "iuf":
            # Object-dtype clocks (huge ints, Decimal, ...) would not survive
            # the array round-trip; the scalar path handles them.
            return None
        unit_clocks = np.repeat(clocks_array, counts_array)
        if unit_clocks.size:
            first = unit_clocks[0].item()
            last = unit_clocks[-1].item()
            # Same float arithmetic as the scalar path's `clock - window`.
            if last - self.window >= first:
                return None
        return unit_clocks

    def _add_counted_run(self, unit_clocks: np.ndarray) -> None:
        """Bulk-load pre-expanded unit arrivals with the cascade fully deferred.

        Requires the preconditions of :meth:`_expand_counted_run`: no live
        buckets and no expiry possible during the run.  Under those conditions
        the scalar path reduces to "append every unit bucket, then cascade" —
        the same argument as :meth:`_add_unit_run` — and the cascade itself is
        *arithmetic*: starting from unit buckets only, every level ``l`` holds
        buckets of exactly ``2**l`` arrivals, each covering a contiguous run
        of units, so the final structure is computed with NumPy slicing and
        only the retained buckets (at most ``max_per_level + 1`` per level)
        are ever materialised as Python objects.
        """
        cap = self._max_per_level
        total_new = int(unit_clocks.size)
        starts = unit_clocks
        ends = unit_clocks
        size = 1
        level = 0
        while starts.size > cap:
            # The scalar cascade pops the two oldest while the level overflows.
            merges = (starts.size - cap + 1) // 2
            self._materialize_level(level, size, starts[2 * merges :], ends[2 * merges :])
            starts = starts[0 : 2 * merges : 2]
            ends = ends[1 : 2 * merges : 2]
            size <<= 1
            level += 1
        self._materialize_level(level, size, starts, ends)
        self._last_clock = unit_clocks[-1].item()
        self._total_arrivals += total_new
        self._in_window_upper += total_new

    def _materialize_level(
        self, level: int, size: int, starts: np.ndarray, ends: np.ndarray
    ) -> None:
        """Append the retained buckets of one cascade level to the structure."""
        if not starts.size:
            return
        while len(self._levels) <= level:
            self._levels.append(deque())
        self._levels[level].extend(
            Bucket(size, start, end) for start, end in zip(starts.tolist(), ends.tolist(), strict=False)
        )

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
