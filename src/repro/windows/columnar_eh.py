"""Columnar (structure-of-arrays) storage for exponential-histogram grids.

The reference ECM-sketch layout keeps one
:class:`~repro.windows.exponential_histogram.ExponentialHistogram` object per
Count-Min cell: ``w x d`` independent object graphs of per-bucket
:class:`~repro.windows.exponential_histogram.Bucket` dataclasses in per-level
deques.  That layout is flexible but defeats vectorization — every batched
ingest still walks Python deques cell by cell — and its resident footprint is
dominated by per-bucket object headers.

:class:`ColumnarEHStore` stores *all* ``w x d`` histograms of one sketch in
shared NumPy arrays::

    starts     float64 (rows, slots)     oldest-arrival clock per bucket
    ends       float64 (rows, slots)     newest-arrival clock per bucket
    row_map    int32   (cells, levels)   pool row of each (cell, level)
    counts     int32   (cells, levels)   live buckets per level
    totals     int64   (cells,)          arrivals ever, per cell
    uppers     int64   (cells,)          sum of live bucket sizes
    oldest_end float64 (cells,)          lower bound on the oldest live
                                         bucket end (+inf when empty)
    last_clock float64 (cells,)          clock of the latest arrival
                                         (NaN before the first)
    is_float   bool    (cells,)          the cell's clocks are floats

``cells`` indexes the grid row-major (``row * width + column``).  The slot
arrays are a *row pool*: one row holds the buckets of one ``(cell, level)``,
and ``row_map`` says which.  Row 0 is a permanently empty sentinel that every
``(cell, level)`` maps to until it first stores a bucket, so every read is a
plain gather (``starts[row_map[cells]]``) masked by ``counts``.  Within one
row the live buckets occupy ``slots[0:count]`` oldest-first -- exactly the
deque order of the reference implementation -- so cascaded merges pop from
the left, appends go at ``count``, and expiry is a prefix drop followed by a
left shift.

A cell pays for a level only once it stores a bucket there, so the pool
follows each cell's own ``log(eps * N)`` depth (paper Table 2) instead of the
busiest cell's.  A row stays bound to its ``(cell, level)`` for the life of
the store.  A new level widens only ``row_map`` and ``counts``; slot data is
never copied for it.  The pool grows by rows (doubling its capacity) and its
slot axis doubles toward the ``max_per_level + 2`` cascade bound; both copy
only the rows in use.  A pool of 128 KiB or more (glibc's default mmap
threshold) lives in its own private anonymous mapping, so its unused
capacity is never paged in, and a growth copies it into the larger pool a
chunk at a time, handing each copied stretch of the old mapping back to the
kernel.  A growth then peaks at the new pool's rows in use plus one chunk,
and outgrown pools leave no free holes in the heap.  A store holds at most
two mappings.  Smaller pools, platforms without
``MAP_PRIVATE`` or ``madvise``, and refused mappings use ordinary heap
arrays.

Every bucket at level ``l`` holds exactly ``2**l`` arrivals, so sizes are
implied by the level index and no per-bucket size array exists.  That holds
for every state this codebase produces (inserts, batched ingests,
replay-based merges, serialization of those), and the decoder of
:mod:`repro.serialization` rejects wire payloads that break it.

Clock types follow one rule per cell, the reference histogram's: a cell's
clocks are ints until it takes a clock that is not an int, and floats from
then on.  The pools hold every clock as float64 (exact under the
``MAX_INT_CLOCK`` guard), and ``is_float`` says how a cell's clocks
serialize, so a cell that turns float changes one flag and no bucket;
batched ingests cascade every cell the same way, whatever its clock type.

The three hot loops — the deferred ingest cascade, the expire/compaction
sweep and the multi-cell point-query walk — have two implementations: the
NumPy passes below and the kernels of :mod:`repro.windows._eh_kernels`.
:data:`USE_KERNELS` picks one at import: the kernels when numba compiled
them, NumPy otherwise.  Both give identical bytes; the equivalence suite
flips the flag to run the interpreted kernels too.

Equivalence contract: every operation leaves each cell bucket for bucket in
the state of its object-layout twin, so both layouts serialize to the same
bytes.  The batched ingest cascades every run in segments: the reference
expires only after an arrival's units are in, and a cell's oldest live end
never decreases while units arrive, so a segment can run up to and
including the first arrival whose ``clock - window`` reaches
``min(oldest_end, first clock of the segment)``; the cells whose segment
ended on such a crossing then expire, and the next round continues after
it.  Aggregation replays the inputs' :meth:`~ColumnarEHStore.live_buckets`
through this same ingest; :meth:`~ColumnarEHStore.cell_payload` encodes a
cell from them and :meth:`~ColumnarEHStore.load_payload` decodes one: no
twin is built.  Only :meth:`~ColumnarEHStore.get_counter` builds one, a
copy decoded from the cell's payload.
"""

from __future__ import annotations

import importlib.util
import math
import mmap
import numbers
from collections.abc import Sequence
from typing import Any

import numpy as np

from ..core.counter_store import CounterStore, RowPayload
from ..core.errors import ConfigurationError, OutOfOrderArrivalError
from .base import (
    MAX_INT_CLOCK,
    SlidingWindowCounter,
    WindowModel,
    is_int_clock,
    validate_epsilon,
    validate_window,
)

__all__ = ["ColumnarEHStore", "USE_KERNELS", "exact_clocks"]


def _kernels_compiled() -> bool:
    """True exactly when numba imports, which compiles the kernels.

    Without numba installed the kernels module is not loaded at all: the
    NumPy passes serve every call, and only a caller that sets
    :data:`USE_KERNELS` (the equivalence suite) loads it to run them
    interpreted.
    """
    if importlib.util.find_spec("numba") is None:
        return False
    from ._eh_kernels import HAVE_NUMBA

    return HAVE_NUMBA


#: Route the three hot loops through :mod:`repro.windows._eh_kernels` instead
#: of the NumPy passes.  Chosen once, at import: true exactly when numba
#: compiled the kernels.  The equivalence suite sets it to run the kernels
#: interpreted.
USE_KERNELS = _kernels_compiled()

_CLOCK_RANGE_ERROR = (
    "the columnar layout requires float clocks exactly representable as "
    "float64 and int clocks with |clock| <= 2**53; got %r"
)

#: Initial slot capacity per pool row.  The slot axis grows on demand toward
#: ``max_per_level + 2``, so sparse grids (the tiny-epsilon hierarchical
#: stacks of Section 6.1) never pay for the worst-case per-level bucket cap.
_INITIAL_SLOTS = 8

#: Initial pool capacity in rows, the sentinel included.  The pool doubles
#: as ``(cell, level)`` pairs claim rows, so a sketch whose keys touch few
#: cells (the coarse levels of a dyadic stack) stays this small.
_INITIAL_ROWS = 64

#: Weight from which ``add_single`` cascades an arrival's units as one
#: run of the batched ingest instead of one Python-level insert each: the
#: run's fixed cost (round bookkeeping plus a few dozen NumPy calls per
#: level) only pays off from here.  Timed per add on a 3x55 sketch, window
#: 1e9, the two paths break even near weight 104 through ``ECMSketch.add``
#: and near 144 on one deep cell.
_WEIGHTED_CASCADE_MIN = 128

#: Units one round of the batched ingest expands at most, so its temporaries
#: follow this budget rather than the total weight of a batch.
_ROUND_UNITS = 1 << 16

#: Pools of at least this many bytes get their own anonymous mapping:
#: glibc's default mmap threshold, below which ``malloc`` serves the heap.
_MAP_MIN_BYTES = 128 * 1024

#: Bytes of an outgrown pool one growth step copies (and, when the pool is
#: mapped, hands back to the kernel).
_COPY_CHUNK_BYTES = 64 * 1024

#: Private anonymous mappings and ``madvise`` exist on this platform.
_CAN_MAP = hasattr(mmap, "MAP_PRIVATE") and hasattr(mmap, "MADV_DONTNEED")


def _zeroed_grid(shape: tuple[int, int], dtype: np.dtype) -> np.ndarray:
    """A zeroed ``(rows, slots)`` pool: a private anonymous mapping from
    ``_MAP_MIN_BYTES`` up, a heap array below that or where mapping is
    unavailable or fails."""
    nbytes = shape[0] * shape[1] * dtype.itemsize
    if _CAN_MAP and nbytes >= _MAP_MIN_BYTES:
        try:
            mapping = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
        except OSError:
            pass
        else:
            return np.ndarray(shape, dtype=dtype, buffer=mapping)
    return np.zeros(shape, dtype=dtype)


def _move_grid(source: np.ndarray, target: np.ndarray, rows: int) -> None:
    """Copy the first ``rows`` rows of ``source`` into the leading corner of
    ``target``, a few rows at a time.  A mapped ``source`` gives each copied
    stretch's pages back at once, so a growth holds the larger pool plus one
    chunk, never both pools; rows past ``rows`` are never read, so a mapped
    pool's unused capacity is never paged in."""
    slots = source.shape[1]
    row_bytes = slots * source.itemsize
    step = max(1, _COPY_CHUNK_BYTES // row_bytes)
    # Only a mapped pool's base is its mmap (heap pools own their data).
    release = getattr(source.base, "madvise", None)
    released = 0
    for low in range(0, rows, step):
        high = min(low + step, rows)
        target[low:high, :slots] = source[low:high]
        if release is None:
            continue
        # madvise needs a page-aligned start: release the whole pages copied
        # so far, and the tail once the last row is copied.
        done = high * row_bytes
        if high < rows:
            done -= done % mmap.PAGESIZE
        if done > released:
            release(mmap.MADV_DONTNEED, released, done - released)
            released = done


def _exact_float(value: Any) -> float:
    """A clock as the float64 the store keeps it as, or a clear error.

    An int clock must lie within ``MAX_INT_CLOCK``, even where float64 holds
    it exactly (``2**54``): the batched path takes no more.
    """
    if type(value) is float:
        return value
    if isinstance(value, numbers.Integral):
        if -MAX_INT_CLOCK <= value <= MAX_INT_CLOCK:
            return float(value)
    else:
        try:
            as_float = float(value)
        except OverflowError:
            as_float = math.nan
        if as_float == value:
            return as_float
    raise ConfigurationError(_CLOCK_RANGE_ERROR % (value,))


def exact_clocks(clocks: Sequence[Any]) -> tuple[np.ndarray, np.ndarray]:
    """A clock list of mixed types as the store takes it: its exact float64
    values, and which of them are not ints (the clocks that turn a cell
    float)."""
    return (
        np.array([_exact_float(clock) for clock in clocks], dtype=np.float64),
        np.array([not is_int_clock(clock) for clock in clocks], dtype=bool),
    )


def _ragged(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and in-row index of every element of a ragged array whose rows
    hold ``lengths`` elements, in row-major order."""
    owner = np.repeat(np.arange(lengths.shape[0]), lengths)
    index = np.arange(owner.shape[0]) - (np.cumsum(lengths) - lengths)[owner]
    return owner, index


class ColumnarEHStore(CounterStore):
    """All ``depth x width`` exponential histograms of one sketch, columnar.

    Args:
        depth: Count-Min depth (number of hash rows).
        width: Count-Min width (columns per row).
        epsilon: Relative-error parameter shared by every cell.
        window: Sliding-window length shared by every cell.
        model: Time-based or count-based window model.
    """

    backend_name = "columnar"
    prefers_arrays = True

    def __init__(
        self,
        depth: int,
        width: int,
        epsilon: float,
        window: float,
        model: WindowModel = WindowModel.TIME_BASED,
    ) -> None:
        if depth <= 0 or width <= 0:
            raise ConfigurationError("depth and width must be positive")
        self.depth = depth
        self.width = width
        self.cells = depth * width
        self.epsilon = validate_epsilon(epsilon)
        self.window = validate_window(window)
        if not isinstance(model, WindowModel):
            raise ConfigurationError("model must be a WindowModel, got %r" % (model,))
        self.model = model
        # Same derivation as ExponentialHistogram.__init__, so every cell
        # cascades exactly like its object-layout twin.
        self.k = int(math.ceil(1.0 / self.epsilon))
        self._max_per = int(math.ceil(self.k / 2.0)) + 1
        # The slot axis starts small and grows on demand: a (cell, level)
        # only ever holds up to max_per live buckets, but near-empty grids
        # would waste ~max_per slots per row if allocated eagerly.
        self._slots = min(self._max_per + 2, _INITIAL_SLOTS)
        # One level column to start; _ensure_level adds the ones cells reach.
        self._num_levels = 1
        cells = self.cells
        self._starts = _zeroed_grid((_INITIAL_ROWS, self._slots), np.dtype(np.float64))
        self._ends = _zeroed_grid((_INITIAL_ROWS, self._slots), np.dtype(np.float64))
        #: Pool row of each (cell, level); 0, the empty sentinel row, until
        #: the pair first stores a bucket.
        self._row_map = np.zeros((cells, 1), dtype=np.int32)
        #: Rows handed out so far, the sentinel included: the next free row.
        self._next_row = 1
        self._counts = np.zeros((cells, 1), dtype=np.int32)
        self._totals = np.zeros(cells, dtype=np.int64)
        self._uppers = np.zeros(cells, dtype=np.int64)
        self._oldest_end = np.full(cells, np.inf, dtype=np.float64)
        #: Clock of the most recent arrival per cell; NaN before the first.
        self._last_clocks = np.full(cells, np.nan, dtype=np.float64)
        #: Whether each cell's clocks are floats: set by the cell's first
        #: clock that is not an int, never cleared.
        self._is_float = np.zeros(cells, dtype=bool)

    # ------------------------------------------------------------------ growth
    def _slot_arrays(self) -> list[np.ndarray]:
        """Both ``(rows, slots)`` pool arrays."""
        return [self._starts, self._ends]

    def _ensure_level(self, level: int) -> None:
        # Exactly the levels the deepest cell reached.  A new level is one
        # more int32 column of the row map and of the counts; the pool itself
        # is untouched until a cell stores a bucket there.
        if level < self._num_levels:
            return
        levels = level + 1
        for name in ("_row_map", "_counts"):
            grown = np.zeros((self.cells, levels), dtype=np.int32)
            grown[:, : self._num_levels] = getattr(self, name)
            setattr(self, name, grown)
        self._num_levels = levels

    def _ensure_slots(self, needed: int) -> None:
        if needed <= self._slots:
            return
        # Double toward the canonical ceiling (max_per + 2 covers the scalar
        # cascade's transient max_per + 1 occupancy); only loaded states can
        # demand more.
        self._repool(
            self._starts.shape[0],
            min(max(needed, self._slots * 2), max(self._max_per + 2, needed)),
        )

    def _ensure_rows(self, needed: int) -> None:
        capacity = self._starts.shape[0]
        if needed > capacity:
            self._repool(max(needed, 2 * capacity), self._slots)

    def _repool(self, capacity: int, slots: int) -> None:
        """Move the rows in use of every pool array into a larger pool.

        Reallocation invalidates every alias of the old pools; a mapped old
        pool reads zeros afterwards.
        """
        grown = []
        for array in self._slot_arrays():
            target = _zeroed_grid((capacity, slots), array.dtype)
            _move_grid(array, target, self._next_row)
            grown.append(target)
        self._starts, self._ends = grown
        self._slots = slots

    def _claim_rows(self, cells: np.ndarray, level: int) -> np.ndarray:
        """Pool rows of distinct ``cells`` that store a bucket at ``level``,
        binding a fresh row to each that has none yet."""
        rows = self._row_map[cells, level]
        fresh = rows == 0
        claimed = int(np.count_nonzero(fresh))
        if claimed:
            first = self._next_row
            self._ensure_rows(first + claimed)
            rows[fresh] = np.arange(first, first + claimed, dtype=np.int32)
            self._row_map[cells[fresh], level] = rows[fresh]
            self._next_row = first + claimed
        return rows

    # ------------------------------------------------------------- clock maths
    def _last_clock(self, cell: int) -> float | None:
        """The latest clock of ``cell`` as its clock type prints it."""
        last = float(self._last_clocks[cell])
        if last != last:
            return None
        return last if self._is_float[cell] else int(last)

    @staticmethod
    def _require_exact_ints(clocks: np.ndarray) -> None:
        if clocks.size:
            low, high = int(clocks.min()), int(clocks.max())
            if low < -MAX_INT_CLOCK or high > MAX_INT_CLOCK:
                raise ConfigurationError(
                    _CLOCK_RANGE_ERROR % (low if low < -MAX_INT_CLOCK else high,)
                )

    def _query_start(self, range_length: float | None, now: float) -> float:
        """Query start clock, mirroring ``resolve_query_bounds`` semantics."""
        if range_length is None or range_length > self.window:
            range_length = self.window
        if range_length <= 0:
            raise ConfigurationError("query range must be positive, got %r" % (range_length,))
        return now - range_length

    # ---------------------------------------------------------------- mutation
    def add_single(self, row: int, column: int, clock: float, count: int = 1) -> None:
        if count < 0:
            raise ConfigurationError("count must be non-negative, got %r" % (count,))
        if count == 0:
            return
        cell = row * self.width + column
        clock_f = _exact_float(clock)
        if clock_f < self._last_clocks[cell]:
            raise OutOfOrderArrivalError(
                "arrival clock %r is older than the previous arrival %r"
                % (clock, self._last_clock(cell))
            )
        if not is_int_clock(clock):
            self._is_float[cell] = True
        if count >= _WEIGHTED_CASCADE_MIN:
            # One arrival, as a one-arrival run of the segmented cascade.
            self._ingest_runs(
                np.array([cell]), np.array([clock_f]), np.array([0, 1]), np.array([count])
            )
        else:
            # Light weights insert unit by unit.
            self._totals[cell] += count
            for _ in range(count):
                self._insert_unit(cell, clock_f)
            self._expire_cell(cell, clock_f)
            self._last_clocks[cell] = clock_f

    def _insert_unit(self, cell: int, clock_f: float) -> None:
        """Append one unit bucket at level 0 and cascade overflowing levels."""
        counts = self._counts
        live = int(counts[cell, 0])
        row = int(self._row_map[cell, 0])
        if not row or live >= self._slots:
            self._ensure_slots(live + 1)
            row = row or int(self._claim_rows(np.array([cell]), 0)[0])
        starts, ends = self._starts, self._ends
        starts[row, live] = clock_f
        ends[row, live] = clock_f
        live += 1
        counts[cell, 0] = live
        self._uppers[cell] += 1
        if clock_f < self._oldest_end[cell]:
            self._oldest_end[cell] = clock_f
        max_per = self._max_per
        if live <= max_per:
            return
        level = 0
        while live > max_per:
            merged_start = starts[row, 0]
            merged_end = ends[row, 1]
            for view in (starts[row], ends[row]):
                view[: live - 2] = view[2:live]
            counts[cell, level] = live - 2
            level += 1
            if level >= self._num_levels:
                self._ensure_level(level)
                counts = self._counts
            live = int(counts[cell, level])
            row = int(self._row_map[cell, level])
            if not row or live >= self._slots:
                # Lazy growth; reallocation invalidates every local alias.
                self._ensure_slots(live + 1)
                row = row or int(self._claim_rows(np.array([cell]), level)[0])
                starts, ends = self._starts, self._ends
            starts[row, live] = merged_start
            ends[row, live] = merged_end
            live += 1
            counts[cell, level] = live

    def _expire_cell(self, cell: int, now_f: float) -> None:
        threshold = now_f - self.window
        if self._oldest_end[cell] > threshold:
            # Nothing can have left the window: the scalar reference scan
            # would be a pure no-op.
            return
        counts = self._counts
        rows = self._row_map[cell].tolist()
        ends = self._ends
        oldest = math.inf
        for level, live in enumerate(counts[cell].tolist()):
            if not live:
                continue
            row = rows[level]
            if ends[row, 0] <= threshold:
                # Within-level buckets are time-ordered, so expired ones
                # form a prefix.
                expired = int(np.searchsorted(ends[row, :live], threshold, side="right"))
                self._uppers[cell] -= expired << level
                for array in self._slot_arrays():
                    view = array[row]
                    view[: live - expired] = view[expired:live]
                live -= expired
                counts[cell, level] = live
            if live and ends[row, 0] < oldest:
                oldest = ends[row, 0]
        self._oldest_end[cell] = oldest

    # ------------------------------------------------------------ batched adds
    def ingest_sorted_rows(self, payloads: Sequence[RowPayload]) -> None:
        """All hash rows of one batch in a single vectorized cascade.

        Rows address disjoint cell ranges, so their column-grouped runs can
        be concatenated into one run list and cascaded together — this is
        where the columnar layout pays off: one pass over shared arrays
        instead of ``depth`` separate passes.  A float clock array turns
        the cells of its runs float: all of them, or only those of the runs
        ``float_runs`` marks.
        """
        cell_blocks = []
        offset_blocks = [np.zeros(1, dtype=np.int64)]
        clock_blocks = []
        value_blocks = []
        float_blocks = []
        shift = 0
        for row, run_columns, run_starts, run_stops, clocks, values, float_runs in payloads:
            assert isinstance(clocks, np.ndarray)
            cells = row * self.width + np.asarray(run_columns, dtype=np.int64)
            if clocks.dtype.kind in "iu":
                self._require_exact_ints(clocks)
            else:
                float_blocks.append(cells if float_runs is None else cells[float_runs])
            cell_blocks.append(cells)
            block = np.asarray(list(run_starts[1:]) + [run_stops[-1]], dtype=np.int64)
            offset_blocks.append(block + shift)
            shift += int(run_stops[-1])
            clock_blocks.append(clocks)
            value_blocks.append(values)
        if not cell_blocks:
            return
        self._ingest_runs(
            np.concatenate(cell_blocks),
            np.concatenate(clock_blocks),
            np.concatenate(offset_blocks),
            None if value_blocks[0] is None else np.concatenate(value_blocks),
        )
        if float_blocks:
            self._is_float[np.concatenate(float_blocks)] = True

    def _ingest_runs(
        self,
        cells: np.ndarray,
        clocks: np.ndarray,
        offsets: np.ndarray,
        values: np.ndarray | None,
    ) -> None:
        """Column-grouped runs for distinct cells, cascaded in segments.

        ``clocks[offsets[i]:offsets[i+1]]`` is the arrival run of ``cells[i]``
        (cells are distinct — one run per Count-Min cell); ``values`` holds
        positive weights, or is ``None`` for unit arrivals.

        The reference inserts and cascades all units of an arrival and only
        then expires at ``clock - window``.  Merges keep the newer end, so a
        cell's oldest live end never decreases while units arrive: an
        arrival whose threshold stays below ``min(oldest_end, first clock of
        the segment)`` cannot expire anything.  Each round therefore
        cascades every cell's next segment, up to and including the first
        arrival whose threshold reaches that bound, in one deferred cascade;
        the cells whose segment ended on such a crossing then expire at
        their own thresholds, and cells with arrivals left go round again.

        A round also ends once it has expanded ``_ROUND_UNITS`` units.  A
        split between two units with no expiry between them is exact, even
        inside one arrival, so the temporaries follow the budget, not the
        total weight of the batch.
        """
        clocks_f = np.asarray(clocks, dtype=np.float64)
        window = self.window
        if values is not None:
            unit_bounds = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
        # Per active run: its cell, next arrival, end of run, and units of
        # that arrival already cascaded.
        run_cells, low, high = cells, offsets[:-1], offsets[1:]
        done = np.zeros(cells.shape[0], dtype=np.int64)
        # Built at the first crossing inside a segment: every arrival keyed
        # by (run, rank of its threshold), which rises through the
        # concatenated runs, so one searchsorted finds each run's crossing.
        # A rank counts the thresholds below a value, so two ranks compare
        # exactly as their values do.
        run_keys: np.ndarray | None = None
        span = clocks_f.shape[0] + 1
        while True:
            bound = np.minimum(self._oldest_end[run_cells], clocks_f[low])
            crosses = clocks_f[high - 1] - window >= bound
            crossing = bool(crosses.any())
            end = high
            if crossing:
                end = np.where(crosses, low + 1, high)
                inner = np.flatnonzero(crosses & (clocks_f[low] - window < bound))
                if inner.size:
                    if run_keys is None:
                        thresholds = clocks_f - window
                        ranked = np.sort(thresholds)
                        run_keys = np.searchsorted(ranked, thresholds) + np.repeat(
                            np.arange(0, cells.shape[0] * span, span), np.diff(offsets)
                        )
                    runs = np.searchsorted(offsets, low[inner], side="right") - 1
                    keys = runs * span + np.searchsorted(ranked, bound[inner])
                    end[inner] = np.searchsorted(run_keys, keys) + 1
            if values is None:
                first_unit = low
                whole = end - low
            else:
                first_unit = unit_bounds[low] + done
                whole = unit_bounds[end] - first_unit
            unit_offsets = np.concatenate(([0], np.cumsum(whole)))
            units = whole
            taken = whole.shape[0]
            if unit_offsets[-1] > _ROUND_UNITS:
                # Whole segments while the budget lasts; the one that reaches
                # it is cut there and cannot expire this round.
                taken = int(np.searchsorted(unit_offsets, _ROUND_UNITS))
                unit_offsets = unit_offsets[: taken + 1].copy()
                unit_offsets[-1] = _ROUND_UNITS
                units = np.diff(unit_offsets)
            next_unit = first_unit[:taken] + units
            if values is None:
                if unit_offsets[-1] == clocks_f.shape[0]:
                    unit_clocks = clocks_f  # every arrival of the batch, in order
                else:
                    owner, index = _ragged(units)
                    unit_clocks = clocks_f[first_unit[owner] + index]
                reached = next_unit
            else:
                # The arrivals each segment touches, and the units of each in
                # it: the first may be partly cascaded, the last cut short.
                reached = np.searchsorted(unit_bounds, next_unit, side="right") - 1
                stop = np.searchsorted(unit_bounds, next_unit - 1, side="right")
                owner, index = _ragged(stop - low[:taken])
                touched = low[owner] + index
                counts = np.minimum(unit_bounds[touched + 1], next_unit[owner]) - np.maximum(
                    unit_bounds[touched], first_unit[owner]
                )
                unit_clocks = np.repeat(clocks_f[touched], counts)
                done[:taken] = next_unit - unit_bounds[reached]
            cascaded = run_cells[:taken]
            self._deferred_cascade(cascaded, unit_clocks, unit_offsets, units)
            self._totals[cascaded] += units
            self._uppers[cascaded] += units
            self._oldest_end[cascaded] = bound[:taken]
            if crossing:
                expiring = np.flatnonzero(crosses[:taken] & (units == whole[:taken]))
                if expiring.size:
                    self._expire_cells(cascaded[expiring], clocks_f[end[expiring] - 1] - window)
            low = np.concatenate((reached, low[taken:]))
            left = low < high
            if not left.any():
                break
            run_cells, low, high, done = (array[left] for array in (run_cells, low, high, done))
        self._last_clocks[cells] = clocks_f[offsets[1:] - 1]

    def _deferred_cascade(
        self,
        cells: np.ndarray,
        unit_clocks: np.ndarray,
        unit_offsets: np.ndarray,
        unit_counts: np.ndarray,
    ) -> None:
        """Append each cell's unit run at level 0 and cascade all levels.

        Every run holds at least one unit (``ECMSketch.add_many`` drops zero
        weights), so each cell stores a bucket at every level it reaches and
        claims a pool row there if it has none.

        Equivalent to the reference's unit-by-unit ``add``: appending every
        unit bucket first and then merging each level's oldest pairs greedily
        yields the same final structure as interleaving merges after every
        insert, because arrivals only ever land at the newest end of a level
        while merges only ever consume the two oldest buckets.

        Level-0 buckets are unit buckets (``start == end``, size 1), so level
        0 cascades a single clock field; higher levels cascade ``(start,
        end)`` pairs and sizes stay implied by the level index throughout.
        Each level lays its cells' sequences end to end in one flat array, so
        the temporaries scale with the buckets moved, never with the number
        of runs times the longest run.
        """
        if USE_KERNELS:
            self._kernel_cascade(cells, unit_clocks, unit_offsets, unit_counts)
            return
        max_per = self._max_per
        # Level 0 receives unit buckets, and its live buckets are unit
        # buckets too: one clock field serves as both start and end.
        incoming_starts = incoming_ends = unit_clocks
        incoming_counts = unit_counts.astype(np.int64)
        level = 0
        while True:
            self._ensure_level(level)
            existing = self._counts[cells, level].astype(np.int64)
            totals = existing + incoming_counts
            # (totals - max_per + 1) // 2 clamped at zero: the arithmetic
            # shift floors negatives, so one maximum() replaces the where().
            merges = np.maximum((totals - (max_per - 1)) >> 1, 0)
            retained = totals - 2 * merges
            self._ensure_slots(int(retained.max()))
            rows = self._claim_rows(cells, level)
            # Every cell's level-sequence ``live buckets ++ incoming buckets``,
            # laid end to end in one flat array.  The pools are C-contiguous,
            # so a flat index into them (from each cell's row at this level)
            # reads and writes through a 1-D view.
            slot0 = rows.astype(np.int64) * self._slots
            first = np.cumsum(totals) - totals
            live_owner, live_index = _ragged(existing)
            live_at = first[live_owner] + live_index
            live_from = slot0[live_owner] + live_index
            incoming_at = np.arange(incoming_starts.shape[0]) + np.repeat(
                first + existing - (np.cumsum(incoming_counts) - incoming_counts),
                incoming_counts,
            )
            starts, ends = self._starts.reshape(-1), self._ends.reshape(-1)
            size = int(first[-1] + totals[-1])
            seq_ends = np.empty(size, dtype=np.float64)
            seq_ends[live_at] = ends[live_from]
            seq_ends[incoming_at] = incoming_ends
            seq_starts = seq_ends
            if level:
                seq_starts = np.empty(size, dtype=np.float64)
                seq_starts[live_at] = starts[live_from]
                seq_starts[incoming_at] = incoming_starts
            # The tail after a cell's ``merges`` leading pairs stays here...
            kept_owner, kept_index = _ragged(retained)
            kept_at = first[kept_owner] + 2 * merges[kept_owner] + kept_index
            kept_to = slot0[kept_owner] + kept_index
            starts[kept_to] = seq_starts[kept_at]
            ends[kept_to] = seq_ends[kept_at]
            self._counts[cells, level] = retained
            carried = merges > 0
            if not carried.any():
                return
            # ... and each leading pair merges into one bucket a level up.
            pair_owner, pair_index = _ragged(merges)
            pair_at = first[pair_owner] + 2 * pair_index
            incoming_starts = seq_starts[pair_at]
            incoming_ends = seq_ends[pair_at + 1]
            incoming_counts = merges[carried]
            cells = cells[carried]
            level += 1

    def _kernel_cascade(
        self,
        cells: np.ndarray,
        unit_clocks: np.ndarray,
        unit_offsets: np.ndarray,
        unit_counts: np.ndarray,
    ) -> None:
        """:meth:`_deferred_cascade` through the ``cascade_runs`` kernel."""
        # Pre-size the row map, the pool and the slot axis: merge counts per
        # level follow from the bucket counts alone (totals -> merges ->
        # carried pairs), so the kernel's exact demand is a handful of
        # vectorized passes here and the kernel loop never needs to
        # reallocate.
        max_per = self._max_per
        incoming = unit_counts.astype(np.int64)
        active = cells
        level = 0
        need_slots = 0
        while True:
            self._ensure_level(level)
            totals = self._counts[active, level].astype(np.int64) + incoming
            merges = np.maximum((totals - (max_per - 1)) >> 1, 0)
            retained = totals - 2 * merges
            need_slots = max(need_slots, int(retained.max()))
            self._claim_rows(active, level)
            if not merges.any():
                break
            keep = merges > 0
            active = active[keep]
            incoming = merges[keep]
            level += 1
        self._ensure_slots(need_slots)
        from ._eh_kernels import cascade_runs

        cascade_runs(
            self._starts,
            self._ends,
            self._row_map,
            self._counts,
            cells,
            unit_clocks,
            np.ascontiguousarray(unit_offsets, dtype=np.int64),
            max_per,
        )

    # ------------------------------------------------------------------ expiry
    def expire_all(self, now: float) -> None:
        threshold = now - self.window
        candidates = np.flatnonzero(self._oldest_end <= threshold)
        if candidates.size:
            self._expire_cells(candidates, np.full(candidates.shape[0], threshold))

    def _expire_cells(self, candidates: np.ndarray, thresholds: np.ndarray) -> None:
        """Drop the buckets of each distinct candidate cell whose end is at
        most that cell's threshold, and refresh its ``oldest_end`` exactly."""
        if USE_KERNELS:
            from ._eh_kernels import expire_cells

            expire_cells(
                self._starts,
                self._ends,
                self._row_map,
                self._counts,
                self._uppers,
                self._oldest_end,
                candidates,
                thresholds,
            )
            return
        counts = self._counts[candidates]
        live_levels = np.flatnonzero(counts.any(axis=0))
        if not live_levels.size:
            self._oldest_end[candidates] = np.inf
            return
        # Trim the working set to the occupied corner of the grid: levels
        # beyond the deepest live one and slots beyond the fullest level are
        # all dead weight for this sweep.
        used = int(live_levels[-1]) + 1
        counts = counts[:, :used]
        rows = self._row_map[candidates, :used]
        max_live = int(counts.max())
        lane = np.arange(max_live)
        ends = self._ends[rows[:, :, None], lane]
        valid = lane[None, None, :] < counts[:, :, None]
        # Within-level buckets are time-ordered, so the expired set is a
        # per-level prefix and the sum directly gives the shift distance.
        expired_mask = valid & (ends <= thresholds[:, None, None])
        drop = expired_mask.sum(axis=2, dtype=np.int64)
        if drop.any():
            level_sizes = np.left_shift(np.int64(1), np.arange(used, dtype=np.int64))
            self._uppers[candidates] -= (drop * level_sizes[None, :]).sum(axis=1)
            # Only survivors of (cell, level) rows that dropped a prefix
            # move; gather/scatter exactly those buckets instead of
            # rewriting the whole candidate grid (the fancy-index gather on
            # the right evaluates before the assignment, so overlap between
            # source and target slots is safe).
            surviving = valid & ~expired_mask & (drop > 0)[:, :, None]
            cand_pos, level_idx, slot_idx = np.nonzero(surviving)
            row_idx = rows[cand_pos, level_idx]
            target_idx = slot_idx - drop[cand_pos, level_idx]
            for array in self._slot_arrays():
                array[row_idx, target_idx] = array[row_idx, slot_idx]
            counts = (counts - drop).astype(np.int32)
            self._counts[candidates[:, None], np.arange(used)[None, :]] = counts
        # Exact refresh: the post-shift first end of each level is the
        # pre-shift end at index ``drop`` (clamped for fully-expired levels,
        # which the counts mask discards anyway).
        gather = np.minimum(drop, max_live - 1)[:, :, None]
        first_ends = np.take_along_axis(ends, gather, axis=2)[:, :, 0]
        self._oldest_end[candidates] = np.where(counts > 0, first_ends, np.inf).min(axis=1)

    # ----------------------------------------------------------------- queries
    def estimate(
        self, row: int, column: int, range_length: float | None = None, now: float | None = None
    ) -> float:
        cell = row * self.width + column
        if now is None:
            now = self._last_clock(cell) or 0.0
        start = self._query_start(range_length, now)
        # One cell holds a handful of live levels: walk them in Python.
        # Ends (and starts) rise within a level, so its in-window buckets
        # are a suffix, and the suffix's first bucket is the level's oldest.
        # Across levels the oldest is the minimum end, ties broken by the
        # minimum start, then by the lower level: what estimate_cells picks.
        rows = self._row_map[cell].tolist()
        starts, ends = self._starts, self._ends
        total = 0
        oldest_end = oldest_start = math.inf
        oldest_level = 0
        for level, live in enumerate(self._counts[cell].tolist()):
            if not live:
                continue
            row = rows[level]
            first = 0
            if ends[row, 0] <= start:
                first = int(np.searchsorted(ends[row, :live], start, side="right"))
                if first == live:
                    continue
            total += (live - first) << level
            end = ends[row, first]
            bucket_start = starts[row, first]
            if end < oldest_end or (end == oldest_end and bucket_start < oldest_start):
                oldest_end, oldest_start, oldest_level = end, bucket_start, level
        if not total:
            return 0.0
        if oldest_start <= start:
            return total - float(1 << oldest_level) / 2.0
        return float(total)

    def estimate_cells(
        self, cells: np.ndarray, range_length: float | None, now: float
    ) -> np.ndarray:
        start = self._query_start(range_length, now)
        if USE_KERNELS:
            from ._eh_kernels import estimate_cells_canonical

            out = np.empty(cells.shape[0], dtype=np.float64)
            estimate_cells_canonical(
                self._starts,
                self._ends,
                self._row_map,
                self._counts,
                np.ascontiguousarray(cells, dtype=np.int64),
                start,
                out,
            )
            return out
        counts = self._counts[cells]
        rows = self._row_map[cells]
        ends = np.take(self._ends, rows, axis=0)
        in_window = (np.arange(self._slots) < counts[:, :, None]) & (ends > start)
        window_counts = in_window.sum(axis=2)
        level_sizes = np.left_shift(np.int64(1), np.arange(self._num_levels, dtype=np.int64))
        totals = (window_counts * level_sizes).sum(axis=1).astype(np.float64)
        # Ends and starts rise within a level, so each level's in-window
        # buckets are a suffix of its live ones, and the suffix's first
        # bucket is the level's oldest.  The oldest overall has the minimum
        # end, ties broken by the minimum start, then by the lower level:
        # the bucket the reference and the kernel pick.
        has = window_counts > 0
        first = np.minimum(counts - window_counts, self._slots - 1)
        first_ends = np.where(has, np.take_along_axis(ends, first[:, :, None], axis=2)[:, :, 0], np.inf)
        first_starts = np.where(has, self._starts[rows, first], np.inf)
        tie = first_ends == first_ends.min(axis=1)[:, None]
        tie_starts = np.where(tie, first_starts, np.inf)
        oldest = tie_starts.argmin(axis=1)
        oldest_starts = tie_starts[np.arange(cells.shape[0]), oldest]
        partial = has.any(axis=1) & (oldest_starts <= start)
        return totals - np.where(partial, level_sizes[oldest] / 2.0, 0.0)

    def estimate_grid(self, range_length: float | None, now: float) -> list[list[float]]:
        estimates = self.estimate_cells(np.arange(self.cells, dtype=np.int64), range_length, now)
        return estimates.reshape(self.depth, self.width).tolist()

    # --------------------------------------------------------- cell interchange
    # A cell's wire form is a ``histogram_to_dict`` payload.  The codec is
    # imported where a cell crosses: it imports the sketch, which builds this.
    def get_counter(self, row: int, column: int) -> SlidingWindowCounter:
        from ..serialization import histogram_from_dict

        return histogram_from_dict(self.cell_payload(row * self.width + column))

    def live_buckets(
        self, cells: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every live bucket of ``cells`` in the reference histogram's walk
        order (by cell as given, then level, then oldest first): its cell's
        position in ``cells``, its level, start and end, and whether its
        cell's clocks are floats."""
        owner, slot = _ragged(self._counts[cells].reshape(-1))
        position, level = np.divmod(owner, self._num_levels)
        rows = self._row_map[cells].reshape(-1)[owner]
        floats = self._is_float[cells][position]
        return position, level, self._starts[rows, slot], self._ends[rows, slot], floats

    def cell_payload(self, cell: int) -> dict[str, Any]:
        """The ``histogram_to_dict`` payload of one cell, read from the pools."""
        from ..serialization import _histogram_dict

        _, levels, starts, ends, _ = self.live_buckets(np.array([cell]))
        # ``buckets_oldest_first`` order: by end, then start, then higher level.
        order = np.lexsort((-levels, starts, ends))
        if not self._is_float[cell]:
            starts, ends = starts.astype(np.int64), ends.astype(np.int64)
        sizes, starts, ends = np.left_shift(1, levels[order]), starts[order], ends[order]
        buckets = [list(bucket) for bucket in zip(sizes.tolist(), starts.tolist(), ends.tolist())]
        return _histogram_dict(self, int(self._totals[cell]), self._last_clock(cell), buckets)

    def load_payload(self, cell: int, payload: dict[str, Any]) -> None:
        """Replace one cell's state with a ``histogram_to_dict`` payload,
        written straight into the pools.  It must pass the checks of
        ``histogram_from_dict`` and match this store's epsilon, window and
        model, and an int cell's clocks must lie within ``MAX_INT_CLOCK``."""
        from ..serialization import _histogram_buckets

        levels, starts, ends, total, last_clock, is_float = _histogram_buckets(payload, self)
        if not is_float:
            clocks = [*starts, *ends] if last_clock is None else [*starts, *ends, last_clock]
            self._require_exact_ints(np.asarray(clocks))
        level_of = np.asarray(levels, dtype=np.int64)
        per_level = np.bincount(level_of, minlength=1)
        self._ensure_level(per_level.shape[0] - 1)
        self._ensure_slots(int(per_level.max()))
        for level in np.flatnonzero(per_level).tolist():
            self._claim_rows(np.array([cell]), level)
        # Each bucket's level and slot, the payload's order kept within a level.
        level_index, slot = _ragged(per_level)
        order = np.argsort(level_of, kind="stable")
        rows = self._row_map[cell, level_index]
        self._starts[rows, slot] = np.asarray(starts, dtype=np.float64)[order]
        self._ends[rows, slot] = level_ends = np.asarray(ends, dtype=np.float64)[order]
        self._counts[cell] = 0
        self._counts[cell, : per_level.shape[0]] = per_level
        self._totals[cell] = total
        self._uppers[cell] = int(np.left_shift(per_level, np.arange(per_level.shape[0])).sum())
        self._oldest_end[cell] = level_ends[slot == 0].min(initial=np.inf)
        self._last_clocks[cell] = math.nan if last_clock is None else float(last_clock)
        self._is_float[cell] = is_float

    # -------------------------------------------------------------- accounting
    def total_buckets(self) -> int:
        """Live buckets across the whole grid."""
        return int(self._counts.sum())

    def memory_bytes(self) -> int:
        """Bytes the store occupies: the pool rows handed out and the
        per-cell metadata arrays.

        A pool's spare capacity is not counted.  No read or write reaches
        it, so a mapped pool never pages it in, and a heap pool (under
        ``_MAP_MIN_BYTES``) keeps less than half of its bytes spare.
        """
        rows_bytes = sum(
            self._next_row * array.shape[1] * array.itemsize for array in self._slot_arrays()
        )
        arrays = [
            self._row_map,
            self._counts,
            self._totals,
            self._uppers,
            self._oldest_end,
            self._last_clocks,
            self._is_float,
        ]
        return rows_bytes + sum(array.nbytes for array in arrays)

    def synopsis_bytes(self) -> int:
        """Paper-model footprint: identical to the object layout's report."""
        # Per cell: 3 x 32 bits per bucket plus two 32-bit overhead fields,
        # floor-divided per cell — the exact ExponentialHistogram formula.
        return 12 * self.total_buckets() + 8 * self.cells

    def resident_bytes(self) -> int:
        return self.memory_bytes()
