"""ECM-sketches: Exponential Count-Min sketches (paper Section 4).

An ECM-sketch is a Count-Min sketch whose integer counters are replaced by
sliding-window counters, so that every query — point, inner-product or
self-join — can be restricted to the most recent ``r`` time units (or
arrivals).  The default counter implementation is the exponential histogram
(ECM-EH); deterministic waves (ECM-DW) and randomized waves (ECM-RW) are
supported as drop-in alternatives exactly as in the paper's Section 4.2.2.

Guarantees (with ``||a_r||_1`` the number of arrivals in the query range):

* point queries: ``|est - true| <= (eps_sw + eps_cm + eps_sw*eps_cm) * ||a_r||_1``
  with probability ``1 - delta`` (Theorems 1 and 3);
* inner products: ``|est - true| <= (eps_sw**2 + 2*eps_sw + eps_cm*(1+eps_sw)**2)
  * ||a_r||_1 * ||b_r||_1`` with probability ``1 - delta`` (Theorem 2).

ECM-sketches built with identical configurations (dimensions, hash seed,
window, counter type) can be aggregated into a single sketch summarising the
order-preserving union of their streams (Section 5.3); for deterministic
counters the aggregation inflates the window error from ``eps_sw`` to
``eps_sw + eps'_sw + eps_sw*eps'_sw``, for randomized waves it is lossless.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence

import numpy as np

from ..windows.base import SlidingWindowCounter, WindowModel
from ..windows.deterministic_wave import DeterministicWave
from ..windows.exponential_histogram import ExponentialHistogram
from ..windows.merge import (
    _replay_merge,
    aggregated_error,
    merge_deterministic_waves,
    merge_exponential_histograms,
)
from ..windows.randomized_wave import RandomizedWave
from .config import CounterType, ECMConfig
from .counter_store import CounterFactory, CounterStore, build_store, object_store
from .countmin import CountMinSketch
from .errors import (
    ConfigurationError,
    IncompatibleSketchError,
    OutOfOrderArrivalError,
    WindowModelError,
)
from .hashing import HashFamily, ItemBatch, stable_fingerprint, stable_fingerprints

__all__ = ["ECMSketch"]

_FIELD_BITS = 32
#: Entry cap of the per-sketch item-fingerprint memo used by ``add_many``.
#: The memo is an ingestion accelerator, not synopsis state: it is excluded
#: from ``memory_bytes()`` (which models the paper's synopsis footprint) and
#: is wholesale-cleared when it outgrows this cap, trading a one-off
#: re-fingerprinting of the working set for bounded overhead on
#: high-cardinality streams.
_FINGERPRINT_CACHE_LIMIT = 1 << 17
#: Batch size below which ``point_query_many`` walks items one by one: the
#: NumPy dispatch and cell-dedup overheads of the vectorized pass only
#: amortize past a few dozen items.  Both paths return identical estimates.
_VECTORIZED_QUERY_CUTOFF = 32


class ECMSketch:
    """Sliding-window Count-Min sketch with pluggable window counters.

    Args:
        config: Full parameterisation (see :class:`~repro.core.config.ECMConfig`).
        stream_tag: Integer namespace for auto-generated arrival identifiers;
            give each distributed node a distinct tag so that randomized-wave
            counters merge losslessly.

    Example:
        >>> sketch = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=3600)
        >>> sketch.add("10.0.0.1", clock=100.0)
        >>> sketch.add("10.0.0.1", clock=200.0)
        >>> sketch.point_query("10.0.0.1", range_length=3600, now=200.0) >= 2
        True
    """

    def __init__(self, config: ECMConfig, stream_tag: int = 0) -> None:
        self._init(config, stream_tag, build_store)

    @classmethod
    def _on_object_store(cls, config: ECMConfig, stream_tag: int = 0) -> ECMSketch:
        """The sketch on the object-per-cell reference layout, whatever its counter type.

        Reachable from no configuration: it is the oracle the equivalence
        suites and the columnar benchmark compare the columnar store against.
        """
        sketch = cls.__new__(cls)
        sketch._init(config, stream_tag, object_store)
        return sketch

    def _init(
        self,
        config: ECMConfig,
        stream_tag: int,
        make_store: Callable[[ECMConfig, CounterFactory], CounterStore],
    ) -> None:
        self.config = config
        self.stream_tag = stream_tag
        self.width = config.width
        self.depth = config.depth
        self.window = config.window
        self.model = config.model
        self.counter_type = config.counter_type
        self.hashes = HashFamily(depth=self.depth, width=self.width, seed=config.seed)
        self._store: CounterStore = make_store(config, self._make_counter)
        #: Name of the counter-grid layout in use (the counter type decides it).
        self.backend = self._store.backend_name
        self._total_arrivals = 0
        self._last_clock: float | None = None
        # Item -> stable fingerprint memo used by the batched ingestion path;
        # cleared when it exceeds _FINGERPRINT_CACHE_LIMIT entries.
        self._fingerprint_cache: dict[Hashable, int] = {}
        #: Error parameter carried by the sliding-window counters.  Aggregation
        #: inflates it (Theorem 4); queries report guarantees based on it.
        self.effective_epsilon_sw = config.epsilon_sw

    # ------------------------------------------------------------- factories
    @classmethod
    def for_point_queries(
        cls,
        epsilon: float,
        delta: float,
        window: float,
        model: WindowModel = WindowModel.TIME_BASED,
        counter_type: CounterType = CounterType.EXPONENTIAL_HISTOGRAM,
        max_arrivals: int | None = None,
        seed: int = 0,
        stream_tag: int = 0,
    ) -> ECMSketch:
        """Sketch sized for a total point-query error of ``epsilon``."""
        config = ECMConfig.for_point_queries(
            epsilon=epsilon,
            delta=delta,
            window=window,
            model=model,
            counter_type=counter_type,
            max_arrivals=max_arrivals,
            seed=seed,
        )
        return cls(config, stream_tag=stream_tag)

    @classmethod
    def for_inner_product_queries(
        cls,
        epsilon: float,
        delta: float,
        window: float,
        model: WindowModel = WindowModel.TIME_BASED,
        counter_type: CounterType = CounterType.EXPONENTIAL_HISTOGRAM,
        max_arrivals: int | None = None,
        seed: int = 0,
        stream_tag: int = 0,
    ) -> ECMSketch:
        """Sketch sized for a total inner-product error of ``epsilon``."""
        config = ECMConfig.for_inner_product_queries(
            epsilon=epsilon,
            delta=delta,
            window=window,
            model=model,
            counter_type=counter_type,
            max_arrivals=max_arrivals,
            seed=seed,
        )
        return cls(config, stream_tag=stream_tag)

    def _make_counter(self, row: int, column: int) -> SlidingWindowCounter:
        """Instantiate one sliding-window counter for cell ``(row, column)``."""
        config = self.config
        if config.counter_type is CounterType.EXPONENTIAL_HISTOGRAM:
            return ExponentialHistogram(
                epsilon=config.epsilon_sw, window=config.window, model=config.model
            )
        if config.counter_type is CounterType.DETERMINISTIC_WAVE:
            return DeterministicWave(
                epsilon=config.epsilon_sw,
                window=config.window,
                max_arrivals=int(config.max_arrivals or 1),
                model=config.model,
            )
        if config.counter_type is CounterType.RANDOMIZED_WAVE:
            return RandomizedWave(
                epsilon=config.epsilon_sw,
                delta=config.delta_sw,
                window=config.window,
                max_arrivals=int(config.max_arrivals or 1),
                model=config.model,
                seed=(config.seed * 1_000_003 + row * 1009 + column) & 0x7FFFFFFF,
                stream_tag=self.stream_tag,
            )
        raise ConfigurationError("unknown counter type %r" % (config.counter_type,))

    # ---------------------------------------------------------------- update
    def add(self, item: Hashable, clock: float, value: int = 1) -> None:
        """Register ``value`` arrivals of ``item`` at clock value ``clock``.

        For time-based windows ``clock`` is the arrival time; for count-based
        windows it is the global arrival index of the stream.
        """
        if value < 0:
            raise ConfigurationError("ECM-sketches operate in the cash-register model; value >= 0")
        if value == 0:
            return
        columns = self.hashes.hash_all(item)
        store = self._store
        for row, column in enumerate(columns):
            store.add_single(row, column, clock, value)
        self._total_arrivals += value
        self._last_clock = clock

    def add_many(
        self,
        items: ItemBatch,
        clocks: Sequence[float],
        values: Sequence[int] | None = None,
    ) -> None:
        """Batched :meth:`add`: ingest a whole chunk of arrivals in one call.

        The resulting sketch state is byte-for-byte identical to calling
        :meth:`add` once per arrival in order, but the work is organised for
        throughput: each distinct item is fingerprinted and hashed exactly
        once in a NumPy-vectorized pass, and each (row, column) cell receives
        its arrivals as one contiguous run through
        :meth:`~repro.windows.base.SlidingWindowCounter.add_batch`, which
        amortizes the per-arrival bookkeeping.  Grouping by cell is sound
        because a sliding-window counter's state depends only on its own
        arrival subsequence, which the stable grouping preserves in order.

        Unlike the scalar path, argument problems (length mismatch, negative
        value, out-of-order clocks) are detected *before* any state is
        mutated, so a failed call leaves the sketch untouched.

        Args:
            items: Batch of items, in stream order.
            clocks: Non-decreasing clock values, one per item.
            values: Optional per-item weights (defaults to 1 each).
        """
        n = len(items)
        if len(clocks) != n:
            raise ConfigurationError(
                "clocks length %d does not match items length %d" % (len(clocks), n)
            )
        if values is not None and len(values) != n:
            raise ConfigurationError(
                "values length %d does not match items length %d" % (len(values), n)
            )
        if n == 0:
            return
        if values is not None and any(v < 0 for v in values):
            raise ConfigurationError("ECM-sketches operate in the cash-register model; value >= 0")
        # Zero-weight arrivals are no-ops in the scalar path (they do not even
        # advance the clock), so drop them before validation and grouping.
        if values is not None and not all(values):
            kept = [i for i, v in enumerate(values) if v]
            if not kept:
                return
            if isinstance(items, np.ndarray):
                items = items[kept]
            else:
                items = [items[i] for i in kept]
            clocks = [clocks[i] for i in kept]
            values = [values[i] for i in kept]
            n = len(items)
        # All-unit weights take the counts-free path (it is both the common
        # case and the fastest); the type check keeps float weights like 1.0
        # on the weighted path so arrival totals accumulate exactly as the
        # scalar path would.
        if values is not None and all(type(v) is int and v == 1 for v in values):
            values = None
        # `asarray` without an explicit dtype keeps integer clocks integral
        # through the sort round-trip (count-based windows use arrival
        # indices), so counters store exactly the clock values the scalar
        # path would have stored.
        clocks_array = np.asarray(clocks)
        if (self._last_clock is not None and clocks_array[0] < self._last_clock) or (
            n > 1 and bool((clocks_array[1:] < clocks_array[:-1]).any())
        ):
            previous = self._last_clock
            for clock in clocks:
                if previous is not None and clock < previous:
                    raise OutOfOrderArrivalError(
                        "arrival clock %r is older than the previous arrival %r"
                        % (clock, previous)
                    )
                previous = clock

        # Fingerprint each item once.  Integer NumPy arrays (the hierarchical
        # stack's per-level prefixes) fingerprint as one dtype cast — a
        # non-negative integer's fingerprint is the integer itself, folded
        # into 64 bits exactly as the uint64 view does.  Everything else goes
        # through the per-item memo (blake2b is the expensive part; the
        # Carter–Wegman evaluation over all rows and arrivals is a handful of
        # vectorized passes and needs no dedup).  ``str``/``int`` keys are
        # safe cache keys as-is; other types are namespaced by class so that
        # `1`, `1.0` and `"1"` never alias.
        if isinstance(items, np.ndarray) and np.issubdtype(items.dtype, np.integer):
            fingerprint_array = stable_fingerprints(items)
        else:
            cache = self._fingerprint_cache
            if len(cache) > _FINGERPRINT_CACHE_LIMIT:
                cache.clear()
            cache_get = cache.get
            fingerprints: list[int] = []
            fingerprints_append = fingerprints.append
            for item in items:
                key = item if type(item) is str or type(item) is int else (item.__class__, item)
                fingerprint = cache_get(key)
                if fingerprint is None:
                    fingerprint = stable_fingerprint(item)
                    cache[key] = fingerprint
                fingerprints_append(fingerprint)
            fingerprint_array = np.fromiter(fingerprints, dtype=np.uint64, count=n)
        columns = self.hashes.hash_fingerprints(fingerprint_array)

        values_array = None if values is None else np.asarray(values)
        # A NumPy sort round-trip (`array[order].tolist()`) hands counters the
        # exact original clock/value objects only when the array dtype did not
        # coerce anything — all-int and all-float lists survive, a mixed list
        # is silently promoted to float64.  Fall back to Python indexing in
        # the mixed case so batched state stays byte-identical to scalar.
        # (`set(map(type, ...))` runs the scan at C speed; an ndarray input
        # cannot mix scalar types, so it skips the scan entirely.)
        clocks_exact = (
            clocks_array.dtype.kind != "f"
            or isinstance(clocks, np.ndarray)
            or set(map(type, clocks)) == {float}
        )
        values_exact = (
            values_array is None
            or values_array.dtype.kind != "f"
            or isinstance(values, np.ndarray)
            or set(map(type, values)) == {float}
        )
        store = self._store
        # The columnar store consumes the sorted clock/value arrays directly
        # (its vector path never materialises Python scalars); the object
        # store receives plain lists, exactly as the per-cell add_batch seam
        # always has.  Mixed-type batches stay Python lists for both.
        keep_arrays = store.prefers_arrays
        payloads = []
        for row in range(self.depth):
            arrival_columns = columns[row]
            # Stable sort by column: each cell's arrivals become one contiguous
            # slice, still in stream order, so a counter sees exactly the same
            # arrival subsequence as under per-item `add` calls.
            order = np.argsort(arrival_columns, kind="stable")
            sorted_columns = arrival_columns[order]
            if clocks_exact:
                sorted_clocks = clocks_array[order] if keep_arrays else clocks_array[order].tolist()
            else:
                sorted_clocks = [clocks[i] for i in order.tolist()]
            if values_array is None:
                sorted_values = None
            elif values_exact:
                sorted_values = values_array[order] if keep_arrays else values_array[order].tolist()
            else:
                sorted_values = [values[i] for i in order.tolist()]
            run_starts = [0] + (np.flatnonzero(np.diff(sorted_columns)) + 1).tolist()
            run_stops = run_starts[1:] + [n]
            column_of_run = sorted_columns[run_starts].tolist()
            payloads.append(
                (row, column_of_run, run_starts, run_stops, sorted_clocks, sorted_values)
            )
        # All rows in one store call: rows address disjoint cells, so the
        # columnar layout cascades the whole batch in a single pass.
        store.ingest_sorted_rows(payloads)
        if values is None:
            self._total_arrivals += n
        else:
            total_weight = sum(values)
            # A NumPy integer (ndarray values input) would poison the JSON
            # wire format downstream, like the last_clock guard below.
            self._total_arrivals += (
                total_weight.item() if isinstance(total_weight, np.generic) else total_weight
            )
        last_clock = clocks[-1]
        # A NumPy scalar here would poison the JSON wire format downstream.
        self._last_clock = last_clock.item() if isinstance(last_clock, np.generic) else last_clock

    # --------------------------------------------------------------- queries
    def _resolve_now(self, now: float | None) -> float:
        if now is not None:
            return now
        return self._last_clock if self._last_clock is not None else 0.0

    def counter_estimate(
        self, row: int, column: int, range_length: float | None = None, now: float | None = None
    ) -> float:
        """Estimated value ``E(row, column, r)`` of one counter for a query range."""
        return self._store.estimate(row, column, range_length, self._resolve_now(now))

    def point_query(
        self, item: Hashable, range_length: float | None = None, now: float | None = None
    ) -> float:
        """Estimated frequency of ``item`` within the query range (Theorem 1)."""
        now_value = self._resolve_now(now)
        columns = self.hashes.hash_all(item)
        store = self._store
        return min(
            store.estimate(row, column, range_length, now_value)
            for row, column in enumerate(columns)
        )

    def point_query_many(
        self,
        items: ItemBatch,
        range_length: float | None = None,
        now: float | None = None,
    ) -> list[float]:
        """Batched :meth:`point_query` over a whole chunk of items.

        Items are hashed in one vectorized pass (small batches, where NumPy
        dispatch overhead would dominate, fall back to per-item hashing with
        identical results) and every (row, column) cell is estimated at most
        once per call (estimates are deterministic for a fixed query range,
        so caching cannot change any answer).

        Returns:
            One estimate per input item, in order; each equals exactly what
            :meth:`point_query` would return for that item.
        """
        if not len(items):
            return []
        now_value = self._resolve_now(now)
        if len(items) <= _VECTORIZED_QUERY_CUTOFF:
            # Small batches: the scalar per-item walk.  Cell reuse is rare
            # below the cutoff, so the dedup bookkeeping of the vectorized
            # path costs more than the estimates it saves.
            return [self.point_query(item, range_length, now_value) for item in items]
        hashed = self.hashes.hash_many(items)
        if self._store.prefers_arrays:
            # One gathered pass over the deduplicated cells, reading the
            # estimates straight out of the columnar arrays.
            flat_cells = hashed.astype(np.int64) + (
                np.arange(self.depth, dtype=np.int64)[:, None] * np.int64(self.width)
            )
            unique_cells, inverse = np.unique(flat_cells, return_inverse=True)
            unique_estimates = self._store.estimate_cells(unique_cells, range_length, now_value)
            per_item = unique_estimates[inverse.reshape(flat_cells.shape)].min(axis=0)
            return per_item.tolist()
        columns = hashed.tolist()
        cache: dict[tuple[int, int], float] = {}
        results: list[float] = []
        store = self._store
        for position in range(len(items)):
            best: float | None = None
            for row in range(self.depth):
                column = columns[row][position]
                key = (row, column)
                estimate = cache.get(key)
                if estimate is None:
                    estimate = store.estimate(row, column, range_length, now_value)
                    cache[key] = estimate
                if best is None or estimate < best:
                    best = estimate
            results.append(best if best is not None else 0.0)
        return results

    def inner_product(
        self,
        other: ECMSketch,
        range_length: float | None = None,
        now: float | None = None,
    ) -> float:
        """Estimated sliding-window inner product of two streams (Theorem 2)."""
        self._require_compatible(other)
        now_value = self._resolve_now(now)
        other_now = other._resolve_now(now)
        mine = self._store.estimate_grid(range_length, now_value)
        best: float | None = None
        if other._store.prefers_arrays:
            theirs = other._store.estimate_grid(range_length, other_now)
            for row in range(self.depth):
                row_product = 0.0
                for a, b in zip(mine[row], theirs[row], strict=False):
                    if a == 0.0:
                        continue
                    row_product += a * b
                if best is None or row_product < best:
                    best = row_product
            return float(best if best is not None else 0.0)
        # Object layout (mandatory for wave counters, whose estimates are
        # expensive): keep the lazy skip — other's cell is only estimated
        # when this sketch's cell is non-zero.
        other_store = other._store
        for row in range(self.depth):
            row_product = 0.0
            for column, a in enumerate(mine[row]):
                if a == 0.0:
                    continue
                row_product += a * other_store.estimate(row, column, range_length, other_now)
            if best is None or row_product < best:
                best = row_product
        return float(best if best is not None else 0.0)

    def self_join(self, range_length: float | None = None, now: float | None = None) -> float:
        """Estimated second frequency moment ``F2`` within the query range."""
        now_value = self._resolve_now(now)
        matrix = self._store.estimate_grid(range_length, now_value)
        best: float | None = None
        for row in range(self.depth):
            row_product = 0.0
            for value in matrix[row]:
                row_product += value * value
            if best is None or row_product < best:
                best = row_product
        return float(best if best is not None else 0.0)

    def estimate_arrivals(
        self, range_length: float | None = None, now: float | None = None
    ) -> float:
        """Estimate ``||a_r||_1`` by averaging per-row counter sums (Section 6.1)."""
        now_value = self._resolve_now(now)
        matrix = self._store.estimate_grid(range_length, now_value)
        row_sums = [sum(row_estimates) for row_estimates in matrix]
        return sum(row_sums) / float(len(row_sums)) if row_sums else 0.0

    def total_arrivals(self) -> int:
        """Exact total weight added to the sketch since construction."""
        return self._total_arrivals

    @property
    def last_clock(self) -> float | None:
        """Clock value of the most recent arrival, or ``None`` if empty."""
        return self._last_clock

    # ---------------------------------------------------------------- expiry
    def expire(self, now: float) -> None:
        """Sweep every cell, dropping state outside the window ``(now - N, now]``.

        Counters normally expire lazily, on their own update path, so a cell
        whose stream went quiet retains dead buckets until its next arrival.
        This hook sweeps the whole grid in one call — a single vectorized
        pass over the shared arrays on the columnar layout, a per-cell loop
        on the object layout — and is what the periodic-aggregation
        coordinator runs before shipping sketches upstream.  Estimates for
        query ranges ending at or after ``now`` are unaffected.
        """
        self._store.expire_all(now)

    # ------------------------------------------------------------ extraction
    def counter_estimates_matrix(
        self, range_length: float | None = None, now: float | None = None
    ) -> list[list[float]]:
        """Estimates of every counter for a query range, as a depth x width matrix."""
        now_value = self._resolve_now(now)
        return self._store.estimate_grid(range_length, now_value)

    def to_countmin(
        self, range_length: float | None = None, now: float | None = None
    ) -> CountMinSketch:
        """Extract a plain Count-Min sketch of the query-range estimates.

        This is the extraction step used by the geometric method (Section 6.2):
        the sliding-window structure collapses into a fixed-size numeric vector
        that can be averaged, differenced and monitored.
        """
        matrix = self.counter_estimates_matrix(range_length, now)
        flat: list[float] = []
        for row in matrix:
            flat.extend(row)
        return CountMinSketch.from_vector(flat, width=self.width, depth=self.depth, seed=self.config.seed)

    # ----------------------------------------------------------------- merge
    def is_compatible_with(self, other: ECMSketch) -> bool:
        """True when the two sketches can be combined or compared cell-wise."""
        return (
            isinstance(other, ECMSketch)
            and self.width == other.width
            and self.depth == other.depth
            and self.config.seed == other.config.seed
            and self.window == other.window
            and self.model == other.model
            and self.counter_type == other.counter_type
        )

    def _require_compatible(self, other: ECMSketch) -> None:
        if not self.is_compatible_with(other):
            raise IncompatibleSketchError(
                "ECM-sketches must share dimensions, hash seed, window, window "
                "model and counter type to be combined"
            )

    @classmethod
    def aggregate(
        cls,
        sketches: Sequence[ECMSketch],
        epsilon_prime: float | None = None,
    ) -> ECMSketch:
        """Order-preserving aggregation of ECM-sketches (Section 5.3).

        Every cell's input counters are merged through the NumPy-batched
        algorithms of :mod:`repro.windows.merge` (deferred exponential-
        histogram cascade, arithmetic wave reconstruction) or the
        randomized-wave sample union, which walk the replay events as arrays
        instead of unit arrivals.  The state is byte-identical to replaying
        every event through the counters' scalar ``add`` (the private
        :meth:`_aggregate_reference`, enforced by the equivalence suite).

        Args:
            sketches: Input sketches with identical configurations.
            epsilon_prime: Window-error parameter of the aggregate's counters;
                defaults to the inputs' window error (the ``2*eps + eps**2``
                special case of Theorem 4).  Ignored for randomized waves,
                whose aggregation is lossless.

        Returns:
            A new :class:`ECMSketch` summarising the order-preserving union of
            all input streams.

        Raises:
            WindowModelError: for count-based deterministic inputs, which the
                paper proves cannot be aggregated.
            IncompatibleSketchError: for mismatched configurations.
        """
        return cls._aggregate_with(sketches, epsilon_prime, cls._merge_cells)

    @classmethod
    def _aggregate_reference(
        cls,
        sketches: Sequence[ECMSketch],
        epsilon_prime: float | None = None,
    ) -> ECMSketch:
        """Replay reference of :meth:`aggregate` (for tests and benchmarks).

        Deterministic cells replay every event through the scalar ``add``;
        randomized-wave cells take the same sample union as :meth:`aggregate`
        (patch ``repro.windows.randomized_wave._SELECTION_CUTOFF`` to
        ``math.inf`` to force its sort-only trim).
        """
        return cls._aggregate_with(sketches, epsilon_prime, cls._replay_merge_cells)

    @classmethod
    def _aggregate_with(
        cls,
        sketches: Sequence[ECMSketch],
        epsilon_prime: float | None,
        merge_cells: Callable[[CounterType, Sequence[SlidingWindowCounter], float], SlidingWindowCounter],
    ) -> ECMSketch:
        """Shared aggregation driver, parameterised by the per-cell merge."""
        if not sketches:
            raise ConfigurationError("cannot aggregate an empty list of ECM-sketches")
        base = sketches[0]
        for other in sketches[1:]:
            base._require_compatible(other)
        if base.counter_type.is_deterministic and base.model is not WindowModel.TIME_BASED:
            raise WindowModelError(
                "count-based ECM-sketches with deterministic counters cannot be "
                "aggregated in an order-preserving way (paper Section 5.1)"
            )
        if epsilon_prime is None:
            epsilon_prime = base.config.epsilon_sw

        if base.counter_type is CounterType.RANDOMIZED_WAVE:
            result_config = base.config.replaced()
        else:
            result_config = base.config.replaced(epsilon_sw=epsilon_prime)
        # The result keeps the first input's layout, so reference inputs
        # aggregate on the reference layout.
        if base.backend == "object":
            result = cls._on_object_store(result_config, stream_tag=base.stream_tag)
        else:
            result = cls(result_config, stream_tag=base.stream_tag)

        for row in range(base.depth):
            for column in range(base.width):
                cells = [sketch._store.get_counter(row, column) for sketch in sketches]
                result._store.set_counter(
                    row, column, merge_cells(base.counter_type, cells, epsilon_prime)
                )
        result._total_arrivals = sum(sketch._total_arrivals for sketch in sketches)
        known_clocks = [s._last_clock for s in sketches if s._last_clock is not None]
        result._last_clock = max(known_clocks) if known_clocks else None
        if base.counter_type.is_deterministic:
            result.effective_epsilon_sw = aggregated_error(
                max(s.effective_epsilon_sw for s in sketches), epsilon_prime
            )
        else:
            result.effective_epsilon_sw = base.effective_epsilon_sw
        return result

    @staticmethod
    def _merge_cells(
        counter_type: CounterType,
        cells: Sequence[SlidingWindowCounter],
        epsilon_prime: float,
    ) -> SlidingWindowCounter:
        """Merge of one cell across input sketches."""
        if counter_type is CounterType.EXPONENTIAL_HISTOGRAM:
            return merge_exponential_histograms(list(cells), epsilon_prime=epsilon_prime)
        if counter_type is CounterType.DETERMINISTIC_WAVE:
            return merge_deterministic_waves(list(cells), epsilon_prime=epsilon_prime)
        return RandomizedWave.merged(list(cells))

    @staticmethod
    def _replay_merge_cells(
        counter_type: CounterType,
        cells: Sequence[SlidingWindowCounter],
        epsilon_prime: float,
    ) -> SlidingWindowCounter:
        """Replay-based reference merge of one cell across input sketches."""
        if counter_type is CounterType.RANDOMIZED_WAVE:
            return RandomizedWave.merged(list(cells))
        return _replay_merge(list(cells), epsilon_prime=epsilon_prime)

    # ----------------------------------------------------- guarantees & size
    def point_error_bound(self, arrivals_in_range: float) -> float:
        """Absolute point-query error bound for a range with that many arrivals."""
        eps = self.effective_epsilon_sw + self.config.epsilon_cm + (
            self.effective_epsilon_sw * self.config.epsilon_cm
        )
        return eps * arrivals_in_range

    def inner_product_error_bound(self, arrivals_a: float, arrivals_b: float) -> float:
        """Absolute inner-product error bound for ranges with those arrival counts."""
        eps_sw = self.effective_epsilon_sw
        eps = eps_sw ** 2 + 2.0 * eps_sw + self.config.epsilon_cm * (1.0 + eps_sw) ** 2
        return eps * arrivals_a * arrivals_b

    def memory_bytes(self) -> int:
        """Footprint of the backing counter store plus the sketch overhead.

        On the object layout this is the paper's analytical 32-bit synopsis
        model (the per-cell object graphs *are* the synopsis in the reference
        implementation).  On the columnar layout it is the true allocation
        of the shared NumPy arrays — what the process actually holds
        resident.  Use :meth:`synopsis_bytes` for the layout-independent
        paper-model figure.
        """
        overhead = (self.depth * 2 * _FIELD_BITS + 8 * _FIELD_BITS) // 8
        return self._store.memory_bytes() + overhead

    def synopsis_bytes(self) -> int:
        """The paper's analytical 32-bit synopsis footprint, in bytes.

        Identical across storage layouts for the same logical state; this is
        the quantity the paper's memory/communication figures are drawn in.
        """
        overhead = (self.depth * 2 * _FIELD_BITS + 8 * _FIELD_BITS) // 8
        return self._store.synopsis_bytes() + overhead

    def resident_memory_bytes(self) -> int:
        """Estimated true resident memory of the counter grid, in bytes.

        Object layout: a walk of the Python object graph (counter objects,
        level deques, per-bucket objects).  Columnar layout: the allocation
        of the backing arrays (equal to :meth:`memory_bytes`).
        """
        return self._store.resident_bytes()

    def counter(self, row: int, column: int) -> SlidingWindowCounter:
        """One cell as a sliding-window counter object (read-only use).

        The object layout returns the live counter; the columnar layout
        materialises an equivalent :class:`ExponentialHistogram` on demand
        (mutating it does not write back).
        """
        return self._store.get_counter(row, column)

    def _set_counter(self, row: int, column: int, counter: SlidingWindowCounter) -> None:
        """Replace one cell's state (merge drivers and deserialization)."""
        self._store.set_counter(row, column, counter)

    def serialized_bytes(self) -> int:
        """Bytes needed to ship this sketch over the network.

        Used by the distributed experiments to account transfer volume; equal
        to the analytical synopsis footprint (the synopsis is its own wire
        format under the paper's 32-bit accounting), regardless of how the
        grid is stored locally.
        """
        return self.synopsis_bytes()

    def __repr__(self) -> str:
        return (
            "ECMSketch(width=%d, depth=%d, counter=%s, window=%g, model=%s, arrivals=%d)"
            % (
                self.width,
                self.depth,
                self.counter_type.value,
                self.window,
                self.model.value,
                self._total_arrivals,
            )
        )
