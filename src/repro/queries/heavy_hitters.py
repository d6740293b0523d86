"""Frequent-item tracking over sliding windows for arbitrary key domains.

:class:`~repro.queries.hierarchical.HierarchicalECMSketch` works on integer
universes ``[0, 2**L)`` — the natural domain for IP addresses or port numbers.
Many workloads (the paper's web-page URLs and MAC addresses included) use
string keys instead; :class:`FrequentItemsTracker` bridges the gap with a
dictionary encoding: every new key is assigned the next integer code, and the
group-testing heavy-hitter machinery runs on the encoded universe.

The encoding dictionary is the only part of the structure that is not
sublinear in the number of *distinct* keys; that matches practical deployments
(e.g. Cisco's NetFlow collector keeps the key dictionary at the coordinator)
and keeps the per-update sketch costs identical to the paper's.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from ..core.config import CounterType
from ..core.errors import ConfigurationError
from ..windows.base import WindowModel
from .hierarchical import HierarchicalECMSketch

__all__ = ["FrequentItemsTracker"]


class FrequentItemsTracker:
    """Sliding-window heavy hitters over an arbitrary hashable key domain.

    Args:
        epsilon: Point-query error budget of the underlying sketches.
        delta: Failure probability of the underlying sketches.
        window: Sliding-window length.
        universe_bits: Capacity of the encoded key universe; at most
            ``2**universe_bits`` distinct keys can be tracked.
        model: Time-based or count-based window model.
        counter_type: Sliding-window counter backing the sketches.
        max_arrivals: Upper bound on arrivals per window (for wave counters).
        seed: Hash seed.

    Example:
        >>> tracker = FrequentItemsTracker(epsilon=0.05, delta=0.05,
        ...                                window=1000, universe_bits=8)
        >>> for t in range(20):
        ...     tracker.add("/index.html", clock=float(t))
        ...     tracker.add("/page/%d" % t, clock=float(t))
        >>> hitters = tracker.heavy_hitters(phi=0.3)
        >>> "/index.html" in hitters
        True
    """

    def __init__(
        self,
        epsilon: float,
        delta: float,
        window: float,
        universe_bits: int = 20,
        model: WindowModel = WindowModel.TIME_BASED,
        counter_type: CounterType = CounterType.EXPONENTIAL_HISTOGRAM,
        max_arrivals: int | None = None,
        seed: int = 0,
    ) -> None:
        self._sketch = HierarchicalECMSketch(
            universe_bits=universe_bits,
            epsilon=epsilon,
            delta=delta,
            window=window,
            model=model,
            counter_type=counter_type,
            max_arrivals=max_arrivals,
            seed=seed,
        )
        self._encoding: dict[Hashable, int] = {}
        self._decoding: list[Hashable] = []

    # -------------------------------------------------------------- encoding
    def _encode(self, key: Hashable) -> int:
        code = self._encoding.get(key)
        if code is None:
            code = len(self._decoding)
            if code >= self._sketch.universe_size:
                raise ConfigurationError(
                    "key dictionary is full (%d distinct keys); raise universe_bits"
                    % (self._sketch.universe_size,)
                )
            self._encoding[key] = code
            self._decoding.append(key)
        return code

    def _decode(self, code: int) -> Hashable:
        return self._decoding[code]

    def distinct_keys(self) -> int:
        """Number of distinct keys seen so far."""
        return len(self._decoding)

    # ---------------------------------------------------------------- update
    def add(self, key: Hashable, clock: float, value: int = 1) -> None:
        """Register ``value`` arrivals of ``key`` at clock ``clock``."""
        self._sketch.add(self._encode(key), clock, value)

    def add_many(
        self,
        keys: Sequence[Hashable],
        clocks: Sequence[float],
        values: Sequence[int] | None = None,
    ) -> None:
        """Batched :meth:`add`: dictionary-encode a chunk and ingest it at once.

        The chunk's keys are mapped to their integer codes in a single
        encoding pass (new keys are assigned codes in first-appearance order,
        exactly as repeated :meth:`add` calls would), and the resulting code
        array goes through the stack's vectorized
        :meth:`~repro.queries.hierarchical.HierarchicalECMSketch.add_many` —
        sketch state is byte-identical to the scalar loop.

        Unlike the scalar loop, a failed chunk (dictionary overflow, invalid
        clocks or values) is atomic: neither sketch state nor the key
        dictionary is changed, so two nodes that retry corrected input end up
        with identical key→code mappings and their stacks stay mergeable.
        """
        n = len(keys)
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
        known_keys = len(self._decoding)
        codes = np.empty(n, dtype=np.int64)
        encode = self._encode
        try:
            for position, key in enumerate(keys):
                codes[position] = encode(key)
            self._sketch.add_many(codes, clocks, values)
        except Exception:
            for key in self._decoding[known_keys:]:
                del self._encoding[key]
            del self._decoding[known_keys:]
            raise

    # --------------------------------------------------------------- queries
    def frequency(
        self, key: Hashable, range_length: float | None = None, now: float | None = None
    ) -> float:
        """Estimated sliding-window frequency of ``key`` (0 for unseen keys)."""
        code = self._encoding.get(key)
        if code is None:
            return 0.0
        return self._sketch.point_query(code, range_length, now)

    def estimate_total(
        self, range_length: float | None = None, now: float | None = None
    ) -> float:
        """Estimated number of in-range arrivals."""
        return self._sketch.estimate_total(range_length, now)

    def frequency_many(
        self,
        keys: Sequence[Hashable],
        range_length: float | None = None,
        now: float | None = None,
    ) -> list[float]:
        """Batched :meth:`frequency`: one estimate per key (0 for unseen keys)."""
        known: list[int] = []
        positions: list[int] = []
        results = [0.0] * len(keys)
        for position, key in enumerate(keys):
            code = self._encoding.get(key)
            if code is not None:
                known.append(code)
                positions.append(position)
        if known:
            estimates = self._sketch.point_query_many(
                np.asarray(known, dtype=np.int64), range_length, now
            )
            for position, estimate in zip(positions, estimates, strict=False):
                results[position] = estimate
        return results

    def heavy_hitters(
        self,
        phi: float,
        range_length: float | None = None,
        now: float | None = None,
        absolute_threshold: float | None = None,
        batched: bool = True,
    ) -> dict[Hashable, float]:
        """Keys whose estimated in-range frequency reaches the threshold.

        An empty query window (or a non-positive ``absolute_threshold``)
        returns ``{}`` without descending the dyadic tree.
        """
        detected = self._sketch.heavy_hitters(
            phi=phi,
            range_length=range_length,
            now=now,
            absolute_threshold=absolute_threshold,
            batched=batched,
        )
        return {
            self._decode(code): estimate
            for code, estimate in detected.items()
            if code < len(self._decoding)
        }

    def top_k(
        self, k: int, range_length: float | None = None, now: float | None = None
    ) -> list[tuple[Hashable, float]]:
        """The ``k`` keys with the largest estimated in-range frequencies.

        Implemented by point-querying every registered key; intended for
        reporting and examples, not for the hot update path.
        """
        if k <= 0:
            raise ConfigurationError("k must be positive, got %r" % (k,))
        scored = [
            (key, self._sketch.point_query(code, range_length, now))
            for key, code in self._encoding.items()
        ]
        scored.sort(key=lambda pair: pair[1], reverse=True)
        return scored[:k]

    # ----------------------------------------------------------------- size
    def memory_bytes(self) -> int:
        """Backing-store footprint of the sketch stack (excluding the dictionary)."""
        return self._sketch.memory_bytes()

    def synopsis_bytes(self) -> int:
        """Paper-model (32-bit synopsis) footprint of the sketch stack."""
        return self._sketch.synopsis_bytes()

    def sketch(self) -> HierarchicalECMSketch:
        """The underlying hierarchical sketch (for advanced/aggregation use)."""
        return self._sketch

    def __repr__(self) -> str:
        return "FrequentItemsTracker(distinct_keys=%d, sketch=%r)" % (
            self.distinct_keys(),
            self._sketch,
        )
