"""Randomized waves (Gibbons & Tirthapura; SPAA 2002).

Randomized waves answer the basic-counting problem over a sliding window with
an (epsilon, delta) probabilistic guarantee.  Their distinguishing property —
and the reason the ECM-sketch paper evaluates them despite their much larger
footprint — is that they can be *losslessly* aggregated across distributed
streams: because the sampling decision for every arrival depends only on a
shared hash function applied to the arrival's unique identifier, the union of
the samples retained at different nodes is exactly the sample a centralized
wave would have retained.

Structure.  A wave consists of ``ceil(ln(1/delta))`` independent copies whose
estimates are combined by a median.  Each copy maintains ``L`` levels; level
``l`` holds a uniform sample of the arrivals at rate ``2**-l`` (an arrival
whose hashed identifier has ``z`` trailing zero bits is stored in levels
``0..z``), with each level retaining only its ``ceil(c0 / epsilon**2)`` most
recent entries.  A query for a range starting at clock ``s`` uses the lowest
level that still covers ``s`` (no entry newer than ``s`` was ever evicted for
capacity) and scales the number of retained entries newer than ``s`` by
``2**l``.

The quadratic ``1/epsilon**2`` dependence is what makes randomized waves an
order of magnitude larger than exponential histograms or deterministic waves
at equal accuracy — the central quantitative comparison of the paper's
evaluation (Figures 4–6).
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..core.errors import ConfigurationError, IncompatibleSketchError
from ..core.hashing import HashFamily, stable_fingerprint
from .base import SlidingWindowCounter, WindowModel, validate_delta, validate_epsilon

__all__ = ["RandomizedWave", "RandomizedWaveCopy"]

_FIELD_BITS = 32
#: Constant factor of the per-level capacity ``c0 / epsilon**2``.  Gibbons &
#: Tirthapura's analysis uses a larger constant; 4 keeps simulations tractable
#: while preserving the quadratic scaling that drives the paper's comparison.
DEFAULT_CAPACITY_CONSTANT = 4.0

#: Union size below which the O(n) NumPy selection trim loses to the adaptive
#: Python sort: the selection pays a fixed NumPy setup (clock extraction,
#: partition, index juggling) that only amortizes on unions a few times the
#: retained capacity, while Timsort gallops through the pre-sorted
#: per-contributor runs.  Measured breakeven is ~2.5-3k entries; below the
#: cutoff the merge uses the sort, so the selection is never the slower
#: choice.
_SELECTION_CUTOFF = 3072

#: C-level clock key for the reference trim's stable sort (same ordering and
#: tie behaviour as the former ``lambda entry: entry.clock``, less call
#: overhead per element).
_BY_CLOCK = attrgetter("clock")


@dataclass(frozen=True)
class _Entry:
    """A sampled arrival retained in one wave level."""

    clock: float
    uid_hash: int


def _trailing_zeros(value: int, limit: int) -> int:
    """Number of trailing zero bits of ``value``, capped at ``limit``."""
    if value == 0:
        return limit
    zeros = 0
    while value & 1 == 0 and zeros < limit:
        value >>= 1
        zeros += 1
    return zeros


def _select_newest(
    entries: list[_Entry], per_level: int
) -> tuple[list[_Entry], float] | None:
    """The newest ``per_level`` entries, clock-ordered, plus the trim horizon.

    Equivalent to the reference trim — stable-sort everything by clock, keep
    the last ``per_level``, record the newest dropped clock — but computed
    with an O(n) NumPy partition instead of an O(n log n) sort of the whole
    union: only the kept slice is ever ordered.  Tie entries at the cutoff
    clock are kept/dropped by concatenation order, exactly as a stable sort
    would.  Returns ``None`` when the clock keys would not survive a float64
    comparison exactly (callers then fall back to the reference sort).

    Requires ``len(entries) > per_level``.
    """
    clocks = np.asarray([entry.clock for entry in entries])
    if clocks.dtype.kind == "f":
        if not np.all(np.isfinite(clocks)) or not np.all(np.abs(clocks) < float(1 << 53)):
            return None
    elif clocks.dtype.kind not in "iu":
        return None
    drop = len(entries) - per_level
    # Clock of the newest dropped entry (the `drop`-th smallest overall).
    cutoff = np.partition(clocks, drop - 1)[drop - 1]
    dropped_ties = drop - int(np.count_nonzero(clocks < cutoff))
    tie_indices = np.flatnonzero(clocks == cutoff)
    # The reference drops the earliest `dropped_ties` cutoff-clock entries
    # (stable sort keeps ties in concatenation order); the last of them is
    # the newest dropped entry, whose original clock object seeds the
    # capacity horizon.
    horizon_clock = entries[int(tie_indices[dropped_ties - 1])].clock
    kept_indices = np.concatenate(
        [tie_indices[dropped_ties:], np.flatnonzero(clocks > cutoff)]
    )
    order = np.argsort(clocks[kept_indices], kind="stable")
    kept = [entries[index] for index in kept_indices[order].tolist()]
    return kept, horizon_clock


def _splitmix64(value: int) -> int:
    """SplitMix64 finaliser: scrambles all 64 bits of ``value``.

    The level of a sampled arrival is defined by the *trailing zero bits* of
    its hashed identifier, so the hash must have well-mixed low bits.  A bare
    Carter–Wegman ``a*x + b`` does not guarantee that (an even ``a`` collapses
    the low bits entirely), hence this finalisation step.
    """
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


class RandomizedWaveCopy:
    """One independent copy of the randomized wave (internal helper)."""

    def __init__(self, num_levels: int, per_level: int, hash_a: int, hash_b: int) -> None:
        self.num_levels = num_levels
        self.per_level = per_level
        self.hash_a = hash_a
        self.hash_b = hash_b
        # Level deques are allocated lazily: an ECM-RW sketch holds thousands
        # of copies and most of their levels never receive a sample, so eager
        # allocation would dominate the footprint of large deployments.
        self._levels: list[deque[_Entry] | None] = [None] * num_levels
        #: Most recent clock value ever evicted from each level because of the
        #: capacity cap.  A level is usable for a query start ``s`` only when
        #: this value is ``<= s``.
        self.capacity_horizon: list[float] = [float("-inf")] * num_levels

    @property
    def levels(self) -> list[deque[_Entry]]:
        """Materialised view of the level samples (empty deques where unused)."""
        return [bucket if bucket is not None else deque() for bucket in self._levels]

    def _level(self, index: int) -> deque[_Entry]:
        bucket = self._levels[index]
        if bucket is None:
            bucket = deque()
            self._levels[index] = bucket
        return bucket

    # ------------------------------------------------------------------ ops
    def level_of(self, uid_hash: int) -> int:
        """Sampling level assigned to an arrival identifier."""
        mixed = _splitmix64((self.hash_a * uid_hash + self.hash_b) & 0xFFFFFFFFFFFFFFFF)
        return _trailing_zeros(mixed, self.num_levels - 1)

    def add(self, clock: float, uid_hash: int) -> None:
        max_level = self.level_of(uid_hash)
        entry = _Entry(clock=clock, uid_hash=uid_hash)
        for level in range(min(max_level, self.num_levels - 1) + 1):
            bucket = self._level(level)
            bucket.append(entry)
            if len(bucket) > self.per_level:
                evicted = bucket.popleft()
                if evicted.clock > self.capacity_horizon[level]:
                    self.capacity_horizon[level] = evicted.clock

    def expire(self, threshold: float) -> None:
        for bucket in self._levels:
            if bucket is None:
                continue
            while bucket and bucket[0].clock <= threshold:
                bucket.popleft()

    def estimate(self, start: float) -> float:
        for level, bucket in enumerate(self._levels):
            if self.capacity_horizon[level] <= start:
                if bucket is None:
                    return 0.0
                in_range = sum(1 for entry in bucket if entry.clock > start)
                return float(in_range) * (2 ** level)
        # No level covers the range: fall back to the coarsest level.
        last = self.num_levels - 1
        bucket = self._levels[last]
        in_range = sum(1 for entry in bucket if entry.clock > start) if bucket else 0
        return float(in_range) * (2 ** last)

    def entry_count(self) -> int:
        return sum(len(bucket) for bucket in self._levels if bucket is not None)

    def merge_from(self, others: list[RandomizedWaveCopy]) -> None:
        """Union this copy with others sharing the same hash coefficients.

        Each level's union is processed as one batch.  Levels whose union is
        both over capacity and large enough to amortize the NumPy setup
        (``_SELECTION_CUTOFF``) are trimmed by an O(n) selection
        (:func:`_select_newest`) instead of fully sorting the union only to
        discard most of it — the dominant cost for dense low levels, which
        hold every contributor's sample.  Smaller unions keep the adaptive
        Python sort: it exploits the pre-sorted per-contributor runs, which a
        flat argsort cannot, and below the cutoff it beats the selection
        outright.  Both strategies yield identical merged state (tests force
        the sort-only reference by setting the cutoff to ``math.inf``).
        """
        for level in range(self.num_levels):
            combined: list[_Entry] = list(self._levels[level] or ())
            horizon = self.capacity_horizon[level]
            contributed = bool(combined)
            for other in others:
                if level < other.num_levels:
                    other_bucket = other._levels[level]
                    if other_bucket:
                        combined.extend(other_bucket)
                        contributed = True
                    other_horizon = other.capacity_horizon[level]
                    if other_horizon > horizon:
                        horizon = other_horizon
            selection = None
            if len(combined) > self.per_level and len(combined) >= _SELECTION_CUTOFF:
                selection = _select_newest(combined, self.per_level)
            if selection is not None:
                combined, newest_dropped_clock = selection
                if newest_dropped_clock > horizon:
                    horizon = newest_dropped_clock
            else:
                combined.sort(key=_BY_CLOCK)
                if len(combined) > self.per_level:
                    dropped = combined[: -self.per_level]
                    combined = combined[-self.per_level:]
                    if dropped:
                        horizon = max(horizon, dropped[-1].clock)
            if contributed:
                self._levels[level] = deque(combined)
            self.capacity_horizon[level] = horizon


class RandomizedWave(SlidingWindowCounter):
    """(epsilon, delta)-approximate, losslessly mergeable sliding-window counter.

    Args:
        epsilon: Target relative error, in ``(0, 1)``.
        delta: Failure probability, in ``(0, 1)``.
        window: Sliding-window length ``N``.
        max_arrivals: Upper bound on arrivals per window (sizes the levels).
        model: Time-based or count-based window model.
        seed: Seed of the shared hash functions.  Waves can only be merged
            when their seeds (and all other parameters) match.
        stream_tag: Namespace mixed into auto-generated arrival identifiers so
            that arrivals observed at different nodes stay distinct.
        capacity_constant: Constant ``c0`` of the per-level capacity.
    """

    def __init__(
        self,
        epsilon: float,
        delta: float,
        window: float,
        max_arrivals: int,
        model: WindowModel = WindowModel.TIME_BASED,
        seed: int = 0,
        stream_tag: int = 0,
        capacity_constant: float = DEFAULT_CAPACITY_CONSTANT,
    ) -> None:
        super().__init__(window=window, model=model)
        self.epsilon = validate_epsilon(epsilon)
        self.delta = validate_delta(delta)
        if max_arrivals <= 0:
            raise ConfigurationError("max_arrivals must be positive, got %r" % (max_arrivals,))
        if capacity_constant <= 0:
            raise ConfigurationError("capacity_constant must be positive")
        self.max_arrivals = int(max_arrivals)
        self.seed = seed
        self.stream_tag = stream_tag
        self.capacity_constant = float(capacity_constant)
        self.num_copies = max(1, int(math.ceil(math.log(1.0 / self.delta))))
        self.per_level = max(4, int(math.ceil(self.capacity_constant / (self.epsilon ** 2))))
        self.num_levels = max(1, int(math.ceil(math.log2(max(2.0, float(self.max_arrivals))))) + 1)
        # Draw per-copy hash coefficients from a reproducible family.
        family = HashFamily(depth=self.num_copies, width=2 ** 61 - 3, seed=seed)
        self._copies: list[RandomizedWaveCopy] = [
            RandomizedWaveCopy(
                num_levels=self.num_levels,
                per_level=self.per_level,
                hash_a=fn.a,
                hash_b=fn.b,
            )
            for fn in family.functions
        ]
        self._total_arrivals = 0

    # ----------------------------------------------------------------- adds
    def add(self, clock: float, count: int = 1, uid: object | None = None) -> None:
        """Register ``count`` unit arrivals at clock value ``clock``.

        When ``uid`` is omitted a unique identifier is generated from the
        stream tag and the arrival rank, so that merges across nodes with
        distinct tags behave exactly like a centralized wave.
        """
        if count < 0:
            raise ConfigurationError("count must be non-negative, got %r" % (count,))
        if count == 0:
            return
        self._advance_clock(clock)
        for _ in range(count):
            self._total_arrivals += 1
            if uid is None:
                uid_hash = stable_fingerprint((self.stream_tag, self._total_arrivals))
            else:
                uid_hash = stable_fingerprint(uid)
            for copy in self._copies:
                copy.add(clock, uid_hash)
        self._expire(clock)

    # --------------------------------------------------------------- expiry
    def _expire(self, now: float) -> None:
        threshold = now - self.window
        for copy in self._copies:
            copy.expire(threshold)

    def expire(self, now: float) -> None:
        """Drop sampled entries that have left the window ``(now - N, now]``."""
        self._expire(now)

    # -------------------------------------------------------------- queries
    def estimate(self, range_length: float | None = None, now: float | None = None) -> float:
        """Estimate the number of arrivals in the last ``range_length`` clock units."""
        start, _end = self.resolve_query_bounds(range_length, now)
        estimates = [copy.estimate(start) for copy in self._copies]
        return float(statistics.median(estimates))

    def total_arrivals(self) -> int:
        """Exact number of arrivals registered since construction."""
        return self._total_arrivals

    # ---------------------------------------------------------------- merge
    def is_compatible_with(self, other: RandomizedWave) -> bool:
        """True when ``other`` can be merged into this wave."""
        return (
            isinstance(other, RandomizedWave)
            and self.epsilon == other.epsilon
            and self.delta == other.delta
            and self.window == other.window
            and self.model == other.model
            and self.seed == other.seed
            and self.num_levels == other.num_levels
            and self.per_level == other.per_level
            and self.num_copies == other.num_copies
        )

    def merge_inplace(self, others: list[RandomizedWave]) -> None:
        """Union the samples of ``others`` into this wave (lossless aggregation).

        Args:
            others: The waves to union into this one.

        Raises:
            IncompatibleSketchError: if any input was built with different
                parameters or hash seeds.
            WindowModelError: never raised here — randomized waves support
                order-preserving aggregation for both window models because
                the sample is duplicate-insensitive; compatibility of the
                *clock domain* is still the caller's responsibility.
        """
        for other in others:
            if not self.is_compatible_with(other):
                raise IncompatibleSketchError(
                    "randomized waves must share epsilon, delta, window, seed and "
                    "dimensions to be merged"
                )
        for idx, copy in enumerate(self._copies):
            copy.merge_from([other._copies[idx] for other in others])
        self._total_arrivals += sum(other._total_arrivals for other in others)
        clocks = [self._last_clock] + [other._last_clock for other in others]
        known = [c for c in clocks if c is not None]
        self._last_clock = max(known) if known else None

    @classmethod
    def merged(cls, waves: list[RandomizedWave]) -> RandomizedWave:
        """Return a new wave equal to the lossless union of ``waves``."""
        if not waves:
            raise ConfigurationError("cannot merge an empty list of waves")
        base = waves[0]
        result = cls(
            epsilon=base.epsilon,
            delta=base.delta,
            window=base.window,
            max_arrivals=base.max_arrivals,
            model=base.model,
            seed=base.seed,
            stream_tag=base.stream_tag,
            capacity_constant=base.capacity_constant,
        )
        result.merge_inplace(list(waves))
        return result

    # --------------------------------------------------------------- memory
    def entry_count(self) -> int:
        """Total number of retained sample entries across copies and levels."""
        return sum(copy.entry_count() for copy in self._copies)

    def memory_bytes(self) -> int:
        """Analytical footprint: clock plus identifier hash per retained entry."""
        per_entry_bits = 2 * _FIELD_BITS
        overhead_bits = (3 + self.num_copies * self.num_levels) * _FIELD_BITS
        return (self.entry_count() * per_entry_bits + overhead_bits) // 8

    def __repr__(self) -> str:
        return (
            "RandomizedWave(epsilon=%g, delta=%g, window=%g, copies=%d, levels=%d, per_level=%d)"
            % (self.epsilon, self.delta, self.window, self.num_copies, self.num_levels, self.per_level)
        )
