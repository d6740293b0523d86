"""Classic Count-Min sketch (Cormode & Muthukrishnan, J. Algorithms 2005).

The Count-Min sketch is both a building block of the ECM-sketch (it defines
the hashing layout and the query semantics) and a stand-alone baseline for
full-history streams.  It supports point queries, inner-product queries and
self-join (second frequency moment) queries over the cash-register model, and
it is linearly mergeable.

The ECM-sketch replaces each integer counter of this structure with a
sliding-window counter; see :mod:`repro.core.ecm_sketch`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

import numpy as np

# ``dimensions_for_error`` is defined in the NumPy-free config module; it
# stays importable from here.
from .config import dimensions_for_error
from .errors import ConfigurationError, IncompatibleSketchError
from .hashing import HashFamily

__all__ = ["CountMinSketch", "dimensions_for_error"]

_COUNTER_BITS = 32


class CountMinSketch:
    """A ``depth x width`` array of counters with pairwise-independent hashing.

    Args:
        width: Number of counters per row (``w``).
        depth: Number of rows / hash functions (``d``).
        seed: Hash-family seed.  Sketches are mergeable only with equal seeds.

    Example:
        >>> cm = CountMinSketch.from_error(epsilon=0.01, delta=0.01)
        >>> for item in ["a", "b", "a"]:
        ...     cm.add(item)
        >>> cm.point_query("a") >= 2
        True
    """

    def __init__(self, width: int, depth: int, seed: int = 0) -> None:
        if width <= 0 or depth <= 0:
            raise ConfigurationError(
                "width and depth must be positive, got width=%r depth=%r" % (width, depth)
            )
        self.width = width
        self.depth = depth
        self.seed = seed
        self.hashes = HashFamily(depth=depth, width=width, seed=seed)
        self._counters: list[list[float]] = [[0.0] * width for _ in range(depth)]
        self._total = 0.0

    # --------------------------------------------------------------- factory
    @classmethod
    def from_error(cls, epsilon: float, delta: float, seed: int = 0) -> CountMinSketch:
        """Construct a sketch sized for a target error and failure probability."""
        width, depth = dimensions_for_error(epsilon, delta)
        return cls(width=width, depth=depth, seed=seed)

    # ----------------------------------------------------------------- adds
    def add(self, item: Hashable, value: float = 1.0) -> None:
        """Add ``value`` occurrences of ``item`` (cash-register model)."""
        if value < 0:
            raise ConfigurationError("Count-Min operates in the cash-register model; value >= 0")
        columns = self.hashes.hash_all(item)
        for row, column in enumerate(columns):
            self._counters[row][column] += value
        self._total += value

    def update_many(self, items: Iterable[Hashable]) -> None:
        """Add one occurrence of every item in ``items``."""
        for item in items:
            self.add(item)

    def add_many(self, items: Sequence[Hashable], values: Sequence[float] | None = None) -> None:
        """Batched :meth:`add`: ingest a whole chunk of arrivals in one call.

        Equivalent to ``for item, value in zip(items, values): self.add(item,
        value)`` — including the floating-point accumulation order per counter
        — but hashes the entire batch in one vectorized pass, so the per-item
        Python overhead is paid once per chunk instead of once per arrival.

        Args:
            items: Batch of items, in stream order.
            values: Optional per-item weights (defaults to 1 each).
        """
        if not len(items):
            return
        if values is not None:
            if len(values) != len(items):
                raise ConfigurationError(
                    "values length %d does not match items length %d"
                    % (len(values), len(items))
                )
            if any(v < 0 for v in values):
                raise ConfigurationError(
                    "Count-Min operates in the cash-register model; value >= 0"
                )
        columns = self.hashes.hash_many(items).tolist()
        for row, row_columns in enumerate(columns):
            counters = self._counters[row]
            if values is None:
                for column in row_columns:
                    counters[column] += 1.0
            else:
                for column, value in zip(row_columns, values, strict=False):
                    counters[column] += value
        # Sequential accumulation keeps _total bit-identical to the scalar path.
        total = self._total
        if values is None:
            for _ in range(len(items)):
                total += 1.0
        else:
            for value in values:
                total += value
        self._total = total

    # -------------------------------------------------------------- queries
    def point_query(self, item: Hashable) -> float:
        """Estimated frequency of ``item`` (never an underestimate)."""
        columns = self.hashes.hash_all(item)
        return min(self._counters[row][column] for row, column in enumerate(columns))

    def point_query_many(self, items: Sequence[Hashable]) -> list[float]:
        """Batched :meth:`point_query` over a whole chunk of items.

        Returns:
            One estimate per input item, in order; each equals exactly what
            :meth:`point_query` would return for that item.
        """
        if not len(items):
            return []
        columns = self.hashes.hash_many(items).tolist()
        estimates = [self._counters[0][column] for column in columns[0]]
        for row in range(1, self.depth):
            counters = self._counters[row]
            row_columns = columns[row]
            for index, column in enumerate(row_columns):
                value = counters[column]
                if value < estimates[index]:
                    estimates[index] = value
        return estimates

    def inner_product(self, other: CountMinSketch) -> float:
        """Estimated inner product of the two summarised frequency vectors."""
        self._require_compatible(other)
        best = None
        for row in range(self.depth):
            row_product = sum(
                a * b for a, b in zip(self._counters[row], other._counters[row], strict=False)
            )
            if best is None or row_product < best:
                best = row_product
        return float(best if best is not None else 0.0)

    def self_join(self) -> float:
        """Estimated second frequency moment ``F2`` of the summarised stream."""
        return self.inner_product(self)

    def total(self) -> float:
        """Total weight added to the sketch (the stream's L1 norm)."""
        return self._total

    # ---------------------------------------------------------------- merge
    def _require_compatible(self, other: CountMinSketch) -> None:
        if not isinstance(other, CountMinSketch):
            raise IncompatibleSketchError("expected a CountMinSketch, got %r" % (type(other),))
        if not self.hashes.is_compatible_with(other.hashes):
            raise IncompatibleSketchError(
                "Count-Min sketches must share width, depth and hash seed to be combined"
            )

    def merge_inplace(self, other: CountMinSketch) -> None:
        """Add another sketch's counters to this one (linear merge)."""
        self._require_compatible(other)
        for row in range(self.depth):
            mine = self._counters[row]
            theirs = other._counters[row]
            for column in range(self.width):
                mine[column] += theirs[column]
        self._total += other._total

    @classmethod
    def merged(cls, sketches: Sequence[CountMinSketch]) -> CountMinSketch:
        """Return a new sketch equal to the sum of ``sketches``.

        Counters are accumulated as whole ``depth x width`` arrays, one
        vectorized add per input sketch.  The per-cell accumulation order is
        exactly a left fold of :meth:`merge_inplace` into an empty sketch, so
        the floating-point counters (and therefore the serialized state) are
        bit-identical to that fold.
        """
        if not sketches:
            raise ConfigurationError("cannot merge an empty list of sketches")
        base = sketches[0]
        for other in sketches:
            base._require_compatible(other)
        accumulator = np.zeros((base.depth, base.width), dtype=np.float64)
        total = 0.0
        for sketch in sketches:
            accumulator += np.asarray(sketch._counters, dtype=np.float64)
            total += sketch._total
        result = cls(width=base.width, depth=base.depth, seed=base.seed)
        result._counters = accumulator.tolist()
        result._total = total
        return result

    # ------------------------------------------------------------ internals
    def counters(self) -> list[list[float]]:
        """A copy of the counter array (row-major)."""
        return [list(row) for row in self._counters]

    def counter(self, row: int, column: int) -> float:
        """Value of a single counter."""
        return self._counters[row][column]

    def as_vector(self) -> list[float]:
        """The counter array flattened row-major (used by the geometric method)."""
        flat: list[float] = []
        for row in self._counters:
            flat.extend(row)
        return flat

    @classmethod
    def from_vector(
        cls, vector: Sequence[float], width: int, depth: int, seed: int = 0
    ) -> CountMinSketch:
        """Rebuild a sketch from a flattened counter vector."""
        if len(vector) != width * depth:
            raise ConfigurationError(
                "vector length %d does not match width*depth=%d" % (len(vector), width * depth)
            )
        sketch = cls(width=width, depth=depth, seed=seed)
        for row in range(depth):
            sketch._counters[row] = [float(v) for v in vector[row * width : (row + 1) * width]]
        sketch._total = sum(sketch._counters[0])
        return sketch

    # --------------------------------------------------------------- memory
    def memory_bytes(self) -> int:
        """Analytical footprint: one 32-bit counter per cell."""
        return (self.width * self.depth * _COUNTER_BITS + 4 * _COUNTER_BITS) // 8

    def __repr__(self) -> str:
        return "CountMinSketch(width=%d, depth=%d, total=%g)" % (self.width, self.depth, self._total)
