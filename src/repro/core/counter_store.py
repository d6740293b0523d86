"""Counter stores: backing storage for the ECM-sketch counter grid.

An ECM-sketch is a ``depth x width`` grid of sliding-window counters.  How
that grid is *stored* is independent of the sketch semantics, so the storage
lives behind the :class:`CounterStore` interface with two implementations:

* :class:`ObjectCounterStore` — the reference layout: one Python counter
  object per cell (exponential histogram, deterministic wave or randomized
  wave).  Simple, handles every counter type, and is the ground truth the
  equivalence suites compare against.
* :class:`~repro.windows.columnar_eh.ColumnarEHStore` — a structure-of-arrays
  layout for exponential-histogram grids: every bucket of every cell lives in
  shared NumPy arrays, so the whole-grid operations (batched ingest, expiry
  sweeps, multi-cell estimates) run as vectorized passes with no per-bucket
  Python objects.

Both stores are required to be *observably identical*: estimates, bucket
structures and serialized state must match byte-for-byte across layouts for
every counter lifecycle (``tests/core/test_columnar_equivalence.py``).

The store interface deliberately mirrors how :class:`~repro.core.ecm_sketch.ECMSketch`
consumes the grid: scalar updates address one ``(row, column)`` cell, batched
updates hand over a whole hash row worth of column-grouped runs, and queries
either read one cell or gather many cells in one call.

The counter type alone decides the layout (:func:`store_layout`):
exponential-histogram grids are columnar, wave grids are objects.  No
configuration selects otherwise; the object layout of an EH grid exists only
as the reference the equivalence suites and the columnar benchmark compare
against.  Whether the columnar hot loops run compiled is not a layout
choice either; see :data:`repro.windows.columnar_eh.USE_KERNELS`.
"""

from __future__ import annotations

import abc
import sys
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from ..windows.base import SlidingWindowCounter

# ``store_layout`` is defined in the NumPy-free config module; it stays
# importable from here.
from .config import ECMConfig, store_layout

__all__ = ["CounterStore", "ObjectCounterStore", "build_store", "object_store", "store_layout"]

#: Clock/value payload of a batched ingest.  The columnar store takes NumPy
#: arrays: the clocks exactly, as int or float64 values, and integer
#: weights.  The object store takes plain lists of the original Python
#: objects, so a cell there keeps each clock as it came.
RunPayload = np.ndarray | Sequence[Any]

#: One hash row of a column-grouped batch: ``(row, run_columns, run_starts,
#: run_stops, clocks, values, float_runs)``.  ``float_runs`` marks, for a
#: float64 clock array made from a list of mixed clock types, the runs that
#: hold a clock that is not an int; it is ``None`` when the clock array's
#: dtype says it for every run.
RowPayload = tuple[
    int,
    Sequence[int],
    Sequence[int],
    Sequence[int],
    RunPayload,
    RunPayload | None,
    np.ndarray | None,
]


class CounterStore(abc.ABC):
    """Backing storage for a ``depth x width`` grid of sliding-window counters.

    All mutating entry points must leave the store in exactly the state the
    reference per-cell counters would reach for the same arrival sequence;
    the query entry points must return exactly the reference estimates.
    """

    #: Layout name reported by :attr:`repro.core.ecm_sketch.ECMSketch.backend`.
    backend_name: str

    #: Capability flag consulted by the sketch hot paths: columnar-family
    #: stores consume the batched clock/value payloads as NumPy arrays and
    #: answer multi-cell queries through one gathered ``estimate_cells``
    #: pass; object-per-cell stores receive plain lists and are queried
    #: cell by cell.
    prefers_arrays: bool = False

    depth: int
    width: int

    # ------------------------------------------------------------ mutation
    @abc.abstractmethod
    def add_single(self, row: int, column: int, clock: float, count: int = 1) -> None:
        """Register ``count`` unit arrivals at one cell (scalar hot path)."""

    @abc.abstractmethod
    def ingest_sorted_rows(self, payloads: Sequence[RowPayload]) -> None:
        """Ingest every hash row of one pre-validated, column-grouped batch.

        Each payload is a :data:`RowPayload`.  The caller
        (``ECMSketch.add_many``) has stably sorted the batch by column, so
        ``clocks[start:stop]`` is the in-stream-order arrival run of cell
        ``(row, run_columns[i])``.  Zero values have already been dropped,
        weights are integers and clock order has been validated.  Rows
        address disjoint cells, so their order is immaterial.
        """

    @abc.abstractmethod
    def expire_all(self, now: float) -> None:
        """Drop buckets/entries outside ``(now - window, now]`` in every cell."""

    # ------------------------------------------------------------- queries
    @abc.abstractmethod
    def estimate(
        self, row: int, column: int, range_length: float | None = None, now: float | None = None
    ) -> float:
        """Reference-identical estimate of one cell for a query range."""

    @abc.abstractmethod
    def estimate_cells(
        self, cells: np.ndarray, range_length: float | None, now: float
    ) -> np.ndarray:
        """Estimates for many cells (flat ``row * width + column`` ids).

        Returns a float64 array aligned with ``cells``; every element equals
        exactly what :meth:`estimate` would return for that cell.
        """

    @abc.abstractmethod
    def estimate_grid(self, range_length: float | None, now: float) -> list[list[float]]:
        """Estimates of every cell, as a ``depth x width`` nested list."""

    # ----------------------------------------------------- cell interchange
    @abc.abstractmethod
    def get_counter(self, row: int, column: int) -> SlidingWindowCounter:
        """The cell as a reference counter object: the object store's live
        counter, or ``histogram_from_dict`` of a columnar cell's wire payload
        (a read-only copy, whose mutations do not write back)."""

    # ------------------------------------------------------------ accounting
    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Footprint of the backing storage, in bytes.

        Object store: the paper's analytical 32-bit synopsis model (the
        object graph *is* the synopsis in the reference implementation).
        Columnar store: the bytes its arrays occupy (the pool rows handed
        out, not the spare capacity no access reaches).
        """

    @abc.abstractmethod
    def synopsis_bytes(self) -> int:
        """The paper's analytical 32-bit synopsis footprint, in bytes.

        Layout-independent: both stores report the same number for the same
        logical counter state.  This is what transfer-volume accounting and
        the paper-reproduction figures use.
        """

    @abc.abstractmethod
    def resident_bytes(self) -> int:
        """Estimated true resident memory of the store, in bytes.

        For the object store this walks the Python object graph (counter
        objects, level containers, per-bucket objects); for columnar stores
        it equals :meth:`memory_bytes`.
        """


def _resident_bytes_of_counter(counter: SlidingWindowCounter) -> int:
    """Estimated resident footprint of one reference counter object."""
    resident = getattr(counter, "resident_bytes", None)
    if resident is not None:
        return int(resident())
    # Fallback for counter types without a dedicated accounting method: the
    # shallow object size understates containers but keeps the comparison
    # conservative.
    return sys.getsizeof(counter)


class ObjectCounterStore(CounterStore):
    """Reference store: one Python counter object per grid cell."""

    backend_name = "object"

    def __init__(self, grid: list[list[SlidingWindowCounter]]) -> None:
        self._grid = grid
        self.depth = len(grid)
        self.width = len(grid[0]) if grid else 0

    # ------------------------------------------------------------ mutation
    def add_single(self, row: int, column: int, clock: float, count: int = 1) -> None:
        self._grid[row][column].add(clock, count)

    def ingest_sorted_rows(self, payloads: Sequence[RowPayload]) -> None:
        for row, run_columns, run_starts, run_stops, clocks, values, _ in payloads:
            clocks_list = clocks.tolist() if isinstance(clocks, np.ndarray) else clocks
            values_list = values.tolist() if isinstance(values, np.ndarray) else values
            row_counters = self._grid[row]
            for column, start, stop in zip(run_columns, run_starts, run_stops, strict=False):
                row_counters[column].add_batch(
                    clocks_list[start:stop],
                    None if values_list is None else values_list[start:stop],
                    assume_ordered=True,
                )

    def expire_all(self, now: float) -> None:
        for row_counters in self._grid:
            for counter in row_counters:
                counter.expire(now)

    # ------------------------------------------------------------- queries
    def estimate(
        self, row: int, column: int, range_length: float | None = None, now: float | None = None
    ) -> float:
        return self._grid[row][column].estimate(range_length, now)

    def estimate_cells(
        self, cells: np.ndarray, range_length: float | None, now: float
    ) -> np.ndarray:
        width = self.width
        return np.array(
            [
                self._grid[cell // width][cell % width].estimate(range_length, now)
                for cell in cells.tolist()
            ],
            dtype=np.float64,
        )

    def estimate_grid(self, range_length: float | None, now: float) -> list[list[float]]:
        return [
            [counter.estimate(range_length, now) for counter in row_counters]
            for row_counters in self._grid
        ]

    # ----------------------------------------------------- cell interchange
    def get_counter(self, row: int, column: int) -> SlidingWindowCounter:
        return self._grid[row][column]

    def set_counter(self, row: int, column: int, counter: SlidingWindowCounter) -> None:
        self._grid[row][column] = counter

    # ------------------------------------------------------------ accounting
    def memory_bytes(self) -> int:
        return sum(counter.memory_bytes() for row in self._grid for counter in row)

    def synopsis_bytes(self) -> int:
        return self.memory_bytes()

    def resident_bytes(self) -> int:
        total = sys.getsizeof(self._grid)
        for row_counters in self._grid:
            total += sys.getsizeof(row_counters)
            for counter in row_counters:
                total += _resident_bytes_of_counter(counter)
        return total


# ------------------------------------------------------------ store selection
#: Builds one reference counter for a grid cell; the object store calls it
#: once per cell, the columnar store ignores it.
CounterFactory = Callable[[int, int], SlidingWindowCounter]


def object_store(config: ECMConfig, make_counter: CounterFactory) -> ObjectCounterStore:
    """One reference counter object per cell of ``config``'s grid."""
    return ObjectCounterStore(
        [
            [make_counter(row, column) for column in range(config.width)]
            for row in range(config.depth)
        ]
    )


def build_store(config: ECMConfig, make_counter: CounterFactory) -> CounterStore:
    """The counter store :func:`store_layout` picks for ``config``'s counter type."""
    if store_layout(config.counter_type) == "object":
        return object_store(config, make_counter)
    # Deferred: the columnar module imports this one.
    from ..windows.columnar_eh import ColumnarEHStore

    return ColumnarEHStore(
        depth=config.depth,
        width=config.width,
        epsilon=config.epsilon_sw,
        window=config.window,
        model=config.model,
    )
