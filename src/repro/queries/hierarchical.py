"""Hierarchical (dyadic) stacks of ECM-sketches (paper Section 6.1).

A :class:`HierarchicalECMSketch` keeps one ECM-sketch per dyadic level of an
integer key universe.  An arrival of key ``x`` updates level ``i`` with the
prefix ``x >> i``, so the level-``i`` sketch maintains sliding-window counts
of dyadic ranges of length ``2**i``.  On top of this stack we implement:

* **heavy hitters** via group testing: descend from the coarsest level and
  expand only the dyadic ranges whose estimated sliding-window frequency
  reaches the threshold (Theorem 5);
* **range queries**: decompose the interval into at most ``2 * log|U|``
  dyadic ranges and sum the corresponding point estimates;
* **quantiles**: binary-search the key domain using prefix range queries.

Both the ingest and the query side have batched fast paths producing results
(and, for ingest, serialized state) identical to the scalar loops:
:meth:`HierarchicalECMSketch.add_many` checks a chunk once, computes all-level
prefixes with NumPy right-shifts and feeds each level's batched ingest,
the heavy-hitter descent walks the dyadic tree breadth-first with one
vectorized lookup per level, and :meth:`HierarchicalECMSketch.quantiles`
shares a single memo of dyadic prefix estimates across all requested
fractions.

The stack is composable exactly like individual ECM-sketches: aggregating the
per-level sketches of several nodes yields the stack of the union stream.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence

import numpy as np

from ..core.config import CounterType, ECMConfig
from ..core.ecm_sketch import ECMSketch, _python_scalar
from ..core.errors import ConfigurationError, EmptyStructureError, IncompatibleSketchError
from ..windows.base import WindowModel
from .dyadic import children_of, dyadic_cover, prefix_of, validate_universe_bits

__all__ = ["HierarchicalECMSketch"]

#: A batch of integer keys (or dyadic prefixes): a sequence of ints or an
#: integer NumPy array.
KeyBatch = Sequence[int] | np.ndarray


class HierarchicalECMSketch:
    """A stack of ECM-sketches over the dyadic levels of an integer universe.

    Args:
        universe_bits: The key universe is ``[0, 2**universe_bits)``.
        epsilon: Total point-query error budget of each level's sketch.
        delta: Failure probability of each level's sketch.
        window: Sliding-window length.
        model: Time-based or count-based window model.
        counter_type: Sliding-window counter backing every sketch.
        max_arrivals: Upper bound on arrivals per window (for wave counters).
        seed: Hash seed shared by all levels (and by mergeable peers).
        stream_tag: Node namespace for randomized-wave identifiers.

    Example:
        >>> hist = HierarchicalECMSketch(universe_bits=10, epsilon=0.05,
        ...                              delta=0.05, window=1000)
        >>> for t in range(100):
        ...     hist.add(key=7, clock=float(t))
        >>> heavy = hist.heavy_hitters(phi=0.5)
        >>> 7 in heavy
        True
    """

    def __init__(
        self,
        universe_bits: int,
        epsilon: float,
        delta: float,
        window: float,
        model: WindowModel = WindowModel.TIME_BASED,
        counter_type: CounterType = CounterType.EXPONENTIAL_HISTOGRAM,
        max_arrivals: int | None = None,
        seed: int = 0,
        stream_tag: int = 0,
    ) -> None:
        self.universe_bits = validate_universe_bits(universe_bits)
        self.window = window
        self.model = model
        self.counter_type = counter_type
        self.seed = seed
        self.stream_tag = stream_tag
        self._levels: list[ECMSketch] = []
        for level in range(self.universe_bits):
            config = ECMConfig.for_point_queries(
                epsilon=epsilon,
                delta=delta,
                window=window,
                model=model,
                counter_type=counter_type,
                max_arrivals=max_arrivals,
                seed=seed + level,
            )
            self._levels.append(ECMSketch(config, stream_tag=stream_tag))
        self._total_arrivals = 0
        self._last_clock: float | None = None

    # --------------------------------------------------------------- update
    @property
    def universe_size(self) -> int:
        """Number of distinct keys representable: ``2**universe_bits``."""
        return 1 << self.universe_bits

    def add(self, key: int, clock: float, value: int = 1) -> None:
        """Register ``value`` arrivals of integer ``key`` at clock ``clock``.

        ``key`` may be any integral type — Python ``int`` or a NumPy integer
        scalar (``np.int64`` elements of a batch array included); both hash
        identically.
        """
        if not isinstance(key, numbers.Integral) or key < 0 or key >= self.universe_size:
            raise ConfigurationError(
                "key must be an integer in [0, %d), got %r" % (self.universe_size, key)
            )
        key = int(key)
        clock = _python_scalar(clock)
        value = _python_scalar(value)
        for level, sketch in enumerate(self._levels):
            sketch.add(prefix_of(key, level), clock, value)
        self._total_arrivals += value
        self._last_clock = clock

    def add_many(
        self,
        keys: KeyBatch,
        clocks: Sequence[float] | np.ndarray,
        values: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        """Batched :meth:`add`: ingest a whole chunk of integer keys at once.

        The chunk is checked and its clocks converted once; the per-level
        prefixes are computed with one NumPy right-shift per level, and each
        level ingests them as :meth:`~repro.core.ecm_sketch.ECMSketch.add_many`
        would.  So the stack state is byte-for-byte identical to calling
        :meth:`add` once per arrival in order (each level sketch sees exactly
        the same arrival subsequence — levels are independent structures, so
        reordering work *across* levels cannot change any of them).

        Argument problems (length mismatch, a key outside the universe,
        negative values, out-of-order clocks) are detected before any level is
        mutated, so a failed call leaves the stack untouched.

        Args:
            keys: Batch of integer keys in ``[0, universe_size)``, in stream
                order; a list of ints or an integer NumPy array.
            clocks: Non-decreasing clock values, one per key.
            values: Optional per-key weights (defaults to 1 each).
        """
        keys_array = np.asarray(keys)
        n = int(keys_array.size)
        if keys_array.ndim != 1 or (n and not np.issubdtype(keys_array.dtype, np.integer)):
            raise ConfigurationError(
                "keys must be a one-dimensional sequence of integers, got dtype %r"
                % (keys_array.dtype,)
            )
        if len(clocks) != n:
            raise ConfigurationError(
                "clocks length %d does not match keys length %d" % (len(clocks), n)
            )
        if values is not None and len(values) != n:
            raise ConfigurationError(
                "values length %d does not match keys length %d" % (len(values), n)
            )
        if n == 0:
            return
        if int(keys_array.min()) < 0 or int(keys_array.max()) >= self.universe_size:
            raise ConfigurationError(
                "keys must be integers in [0, %d)" % (self.universe_size,)
            )
        # Normalise NumPy containers *and* NumPy scalars (e.g. a list built by
        # iterating a NumPy clock array) to plain Python scalars once, up
        # front: counters store the clock/value objects they are handed, and
        # the JSON wire format (serialization equality is the batched path's
        # correctness oracle) only accepts Python scalars.
        if isinstance(clocks, np.ndarray):
            clocks = clocks.tolist()
        else:
            clocks = [c.item() if isinstance(c, np.generic) else c for c in clocks]
        if isinstance(values, np.ndarray):
            values = values.tolist()
        elif values is not None:
            values = [v.item() if isinstance(v, np.generic) else v for v in values]
        # Every level takes the same arrivals, so level 0's checks and clock
        # conversion serve them all.
        batch = self._levels[0]._checked_batch(keys_array, clocks, values)
        if batch is not None:
            kept_keys = np.asarray(batch[0])
            for level, sketch in enumerate(self._levels):
                sketch._ingest_batch((kept_keys >> level if level else kept_keys, *batch[1:]))
        self._total_arrivals += n if values is None else int(sum(values))
        self._last_clock = clocks[-1]

    # -------------------------------------------------------------- queries
    def _resolve_now(self, now: float | None) -> float:
        if now is not None:
            return now
        return self._last_clock if self._last_clock is not None else 0.0

    def point_query(
        self, key: int, range_length: float | None = None, now: float | None = None
    ) -> float:
        """Estimated sliding-window frequency of an individual key."""
        return self._levels[0].point_query(key, range_length, self._resolve_now(now))

    def point_query_many(
        self,
        keys: KeyBatch,
        range_length: float | None = None,
        now: float | None = None,
    ) -> list[float]:
        """Batched :meth:`point_query`: one estimate per key, in order.

        Keys are hashed in a single vectorized pass through the level-0
        sketch; each result equals exactly what :meth:`point_query` returns
        for that key.
        """
        return self._levels[0].point_query_many(keys, range_length, self._resolve_now(now))

    def prefix_query(
        self, prefix: int, level: int, range_length: float | None = None, now: float | None = None
    ) -> float:
        """Estimated count of the dyadic range ``(prefix, level)``."""
        if level < 0 or level >= self.universe_bits:
            raise ConfigurationError("level must be in [0, %d)" % (self.universe_bits,))
        return self._levels[level].point_query(prefix, range_length, self._resolve_now(now))

    def prefix_query_many(
        self,
        prefixes: KeyBatch,
        level: int,
        range_length: float | None = None,
        now: float | None = None,
    ) -> list[float]:
        """Batched :meth:`prefix_query` over several prefixes of one level."""
        if level < 0 or level >= self.universe_bits:
            raise ConfigurationError("level must be in [0, %d)" % (self.universe_bits,))
        return self._levels[level].point_query_many(prefixes, range_length, self._resolve_now(now))

    def range_query(
        self, lo: int, hi: int, range_length: float | None = None, now: float | None = None
    ) -> float:
        """Estimated number of arrivals with key in ``[lo, hi]`` in the window range."""
        now_value = self._resolve_now(now)
        total = 0.0
        for prefix, level in dyadic_cover(lo, hi, self.universe_bits):
            total += self._levels[level].point_query(prefix, range_length, now_value)
        return total

    def estimate_total(
        self, range_length: float | None = None, now: float | None = None
    ) -> float:
        """Estimate of ``||a_r||_1`` from the level-0 sketch's row averages."""
        return self._levels[0].estimate_arrivals(range_length, self._resolve_now(now))

    def heavy_hitters(
        self,
        phi: float,
        range_length: float | None = None,
        now: float | None = None,
        absolute_threshold: float | None = None,
    ) -> dict[int, float]:
        """Group-testing detection of frequent keys (Theorem 5).

        A non-positive detection threshold — an empty query window under a
        relative ``phi``, or ``absolute_threshold <= 0`` — returns ``{}``
        immediately without descending: with no in-range arrivals there is no
        key with positive in-range frequency, and admitting estimate-zero
        prefixes would enumerate the entire ``2**universe_bits`` universe.

        The descent is level-synchronized and breadth-first: one vectorized
        sketch lookup per frontier level.  The private
        :meth:`_heavy_hitters_scalar` is its depth-first reference and returns
        the same mapping (enforced by the equivalence suite).

        Args:
            phi: Relative frequency threshold (fraction of in-range arrivals).
                Ignored when ``absolute_threshold`` is given.
            range_length: Query range.
            now: Right edge of the query range.
            absolute_threshold: Minimum number of occurrences; when given the
                detection uses it directly instead of ``phi * ||a_r||_1``.

        Returns:
            Mapping from detected key to its estimated in-range frequency.
        """
        threshold = self._detection_threshold(phi, range_length, now, absolute_threshold)
        if threshold <= 0.0:
            return {}
        now_value = self._resolve_now(now)
        # The two prefixes of the coarsest maintained level cover the
        # universe; every level of survivors is expanded with one batched
        # lookup instead of per-prefix scalar queries.  The frontier lives in
        # a plain list — ``point_query_many`` takes the vectorized path once
        # the frontier outgrows its small-batch cutoff, and converting only
        # then keeps sparse descents free of NumPy dispatch overhead.
        frontier: list[int] = [0, 1]
        for level in range(self.universe_bits - 1, 0, -1):
            estimates = self._levels[level].point_query_many(
                frontier, range_length, now_value
            )
            next_frontier: list[int] = []
            for prefix, estimate in zip(frontier, estimates, strict=False):
                if estimate >= threshold:
                    left = prefix << 1
                    next_frontier.append(left)
                    next_frontier.append(left | 1)
            if not next_frontier:
                return {}
            frontier = next_frontier
        estimates = self._levels[0].point_query_many(frontier, range_length, now_value)
        return {
            key: estimate
            for key, estimate in zip(frontier, estimates, strict=False)
            if estimate >= threshold
        }

    def _heavy_hitters_scalar(
        self,
        phi: float,
        range_length: float | None = None,
        now: float | None = None,
        absolute_threshold: float | None = None,
    ) -> dict[int, float]:
        """Scalar depth-first reference of :meth:`heavy_hitters` (same mapping)."""
        threshold = self._detection_threshold(phi, range_length, now, absolute_threshold)
        if threshold <= 0.0:
            return {}
        now_value = self._resolve_now(now)
        result: dict[int, float] = {}
        top_level = self.universe_bits - 1
        frontier: list[tuple[int, int]] = [(0, top_level), (1, top_level)]
        while frontier:
            prefix, level = frontier.pop()
            estimate = self._levels[level].point_query(prefix, range_length, now_value)
            if estimate < threshold:
                continue
            if level == 0:
                result[prefix] = estimate
            else:
                frontier.extend(children_of(prefix, level))
        return result

    def _detection_threshold(
        self,
        phi: float,
        range_length: float | None,
        now: float | None,
        absolute_threshold: float | None,
    ) -> float:
        """``absolute_threshold``, else ``phi * ||a_r||_1`` (validating ``phi``)."""
        if absolute_threshold is not None:
            return float(absolute_threshold)
        if not (0.0 < phi <= 1.0):
            raise ConfigurationError("phi must be in (0, 1], got %r" % (phi,))
        return phi * self.estimate_total(range_length, now)

    def quantile(
        self,
        fraction: float,
        range_length: float | None = None,
        now: float | None = None,
    ) -> int:
        """Approximate ``fraction``-quantile of the in-range key distribution.

        Binary-searches the smallest key ``x`` whose prefix range ``[0, x]``
        accumulates at least ``fraction`` of the estimated in-range arrivals.

        Raises:
            EmptyStructureError: when the estimated number of in-range
                arrivals is zero — an empty window has no key distribution,
                so any returned key (the old behavior silently produced key
                0) would be a bogus quantile.
        """
        if not (0.0 <= fraction <= 1.0):
            raise ConfigurationError("fraction must be in [0, 1], got %r" % (fraction,))
        total = self.estimate_total(range_length, now)
        if total <= 0.0:
            raise EmptyStructureError(
                "quantile of an empty window is undefined (no in-range arrivals)"
            )
        target = fraction * total
        lo, hi = 0, self.universe_size - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.range_query(0, mid, range_length, now) >= target:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def quantiles(
        self,
        fractions: Sequence[float],
        range_length: float | None = None,
        now: float | None = None,
    ) -> list[int]:
        """Approximate quantiles for several fractions in one shared scan.

        Every fraction runs the same binary search as :meth:`quantile` (and
        returns exactly the same key), but all searches share one memo of
        dyadic prefix estimates: each ``[0, mid]`` probe decomposes into at
        most ``universe_bits`` dyadic blocks, missing blocks are fetched per
        level through one vectorized
        :meth:`~repro.core.ecm_sketch.ECMSketch.point_query_many` call, and
        neighbouring fractions — whose search paths overlap heavily near the
        top of the tree — reuse each other's estimates instead of re-querying.

        Raises:
            EmptyStructureError: when the estimated number of in-range
                arrivals is zero (see :meth:`quantile`).
        """
        for fraction in fractions:
            if not (0.0 <= fraction <= 1.0):
                raise ConfigurationError(
                    "fraction must be in [0, 1], got %r" % (fraction,)
                )
        total = self.estimate_total(range_length, now)
        if total <= 0.0:
            raise EmptyStructureError(
                "quantile of an empty window is undefined (no in-range arrivals)"
            )
        now_value = self._resolve_now(now)
        cache: dict[tuple[int, int], float] = {}

        def cumulative(upper: int) -> float:
            """Estimate of ``[0, upper]`` from memoized dyadic block estimates."""
            cover = list(dyadic_cover(0, upper, self.universe_bits))
            missing: dict[int, list[int]] = {}
            for prefix, level in cover:
                if (level, prefix) not in cache:
                    missing.setdefault(level, []).append(prefix)
            for level, prefixes in missing.items():
                estimates = self._levels[level].point_query_many(
                    prefixes, range_length, now_value
                )
                for prefix, estimate in zip(prefixes, estimates, strict=False):
                    cache[(level, prefix)] = estimate
            return sum(cache[(level, prefix)] for prefix, level in cover)

        results: list[int] = []
        for fraction in fractions:
            target = fraction * total
            lo, hi = 0, self.universe_size - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if cumulative(mid) >= target:
                    hi = mid
                else:
                    lo = mid + 1
            results.append(lo)
        return results

    # ----------------------------------------------------------------- merge
    def is_compatible_with(self, other: HierarchicalECMSketch) -> bool:
        """True when two stacks can be aggregated level by level.

        Requires the same universe and pairwise-compatible level sketches
        (dimensions, hash seed, window, window model and counter type), so a
        stack built with a different ``epsilon``, ``delta`` or ``seed`` is
        rejected here rather than by a level during :meth:`aggregate`.
        """
        return (
            isinstance(other, HierarchicalECMSketch)
            and self.universe_bits == other.universe_bits
            and all(
                mine.is_compatible_with(theirs)
                for mine, theirs in zip(self._levels, other._levels, strict=True)
            )
        )

    @classmethod
    def aggregate(
        cls,
        stacks: Sequence[HierarchicalECMSketch],
        epsilon_prime: float | None = None,
    ) -> HierarchicalECMSketch:
        """Order-preserving aggregation of hierarchical sketches (level by level).

        Raises:
            ConfigurationError: for an empty list of stacks.
            IncompatibleSketchError: when :meth:`is_compatible_with` rejects
                a pair of stacks.
        """
        if not stacks:
            raise ConfigurationError("cannot aggregate an empty list of stacks")
        base = stacks[0]
        for other in stacks[1:]:
            if not base.is_compatible_with(other):
                raise IncompatibleSketchError(
                    "hierarchical sketches must share universe, seed, window, "
                    "counter type and level-sketch dimensions to be aggregated"
                )
        result = cls.__new__(cls)
        result.universe_bits = base.universe_bits
        result.window = base.window
        result.model = base.model
        result.counter_type = base.counter_type
        result.seed = base.seed
        result.stream_tag = base.stream_tag
        result._levels = [
            ECMSketch.aggregate([stack._levels[level] for stack in stacks], epsilon_prime)
            for level in range(base.universe_bits)
        ]
        result._total_arrivals = sum(stack._total_arrivals for stack in stacks)
        clocks = [stack._last_clock for stack in stacks if stack._last_clock is not None]
        result._last_clock = max(clocks) if clocks else None
        return result

    # ---------------------------------------------------------------- sizing
    def total_arrivals(self) -> int:
        """Exact total weight added to the stack."""
        return self._total_arrivals

    def memory_bytes(self) -> int:
        """Backing-store footprint: sum over the per-level sketches."""
        return sum(level.memory_bytes() for level in self._levels)

    def synopsis_bytes(self) -> int:
        """Paper-model (32-bit synopsis) footprint: sum over the levels."""
        return sum(level.synopsis_bytes() for level in self._levels)

    def level_sketch(self, level: int) -> ECMSketch:
        """Direct access to the sketch maintaining ranges of length ``2**level``."""
        return self._levels[level]

    def __repr__(self) -> str:
        return (
            "HierarchicalECMSketch(universe_bits=%d, levels=%d, window=%g, counter=%s)"
            % (self.universe_bits, len(self._levels), self.window, self.counter_type.value)
        )
