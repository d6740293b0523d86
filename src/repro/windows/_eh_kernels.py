"""Compiled kernels for the columnar exponential-histogram hot paths.

The three hot loops of :class:`~repro.windows.columnar_eh.ColumnarEHStore` —
the deferred per-level cascade of a batched ingest, the expire/compaction
sweep, and the point-query grid walk — are pure array arithmetic over the
store's structure-of-arrays buffers (the ``starts``/``ends`` float64 row
pools, the int32 ``row_map`` and ``counts``, ``totals``/``uppers`` int64,
``oldest_end`` float64).  This module expresses them as
``numba.njit``-compilable functions operating directly on those arrays.
Bucket ``slot`` of ``(cell, level)`` lives at
``starts[row_map[cell, level], slot]``.

Compilation is optional.  When numba is importable (the ``repro[kernels]``
extra) every kernel is compiled in ``nopython`` mode and
:data:`~repro.windows.columnar_eh.USE_KERNELS` routes the store's hot loops
here.  When numba is absent the identical function bodies are plain Python;
the store then uses its NumPy passes, and only the equivalence suite runs
these bodies interpreted, to prove the algorithms (not just their compiled
forms) byte-identical to the reference.

``nopython`` constraints shaped these functions: no ``None``, no Python
objects, fixed-dtype arrays only, and per-cell scratch buffers allocated with
``np.empty`` inside the loop (numba supports allocation in nopython mode).
They read bucket sizes from the level index (``2**level``).  Clock types
need no kernel work: the pools hold every clock as float64, and a cell's
int or float type is one flag of the store (set on a cell's first clock
that is not an int), so cells of both types cascade and expire here.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, TypeVar

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "cascade_runs",
    "expire_cells",
    "estimate_cells_canonical",
]

_F = TypeVar("_F", bound=Callable[..., Any])

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the container default
    HAVE_NUMBA = False

    def _njit(*args: Any, **kwargs: Any) -> Any:
        """Identity decorator standing in for ``numba.njit``."""
        if args and callable(args[0]):
            return args[0]

        def wrap(function: _F) -> _F:
            return function

        return wrap


@_njit(cache=True)
def cascade_runs(  # pragma: no cover - measured via the equivalence suite
    starts: np.ndarray,
    ends: np.ndarray,
    row_map: np.ndarray,
    counts: np.ndarray,
    cells: np.ndarray,
    unit_clocks: np.ndarray,
    unit_offsets: np.ndarray,
    max_per: int,
) -> None:
    """Deferred per-level cascade of unit runs, one cell at a time.

    ``unit_clocks[unit_offsets[i]:unit_offsets[i+1]]`` is the (expanded,
    non-decreasing) unit-arrival run of ``cells[i]``.  For each level the
    virtual sequence ``existing buckets ++ incoming buckets`` is split into
    ``merges`` leading pairs (carried one level up) and a retained tail of at
    most ``max_per`` buckets — the same arithmetic as the NumPy
    ``_deferred_cascade``/``_apply_level`` pair, so the resulting bucket
    structure is identical bucket-for-bucket.

    Preconditions (established by the caller): level and slot axes
    pre-grown to the cascade's precomputed demand, a pool row bound to every
    ``(cell, level)`` that keeps a bucket, no expiry possible mid-run.
    """
    for i in range(cells.shape[0]):
        cell = cells[i]
        low = unit_offsets[i]
        n_in = unit_offsets[i + 1] - low
        # ---- level 0: unit buckets, start == end == the arrival clock ----
        row = row_map[cell, 0]
        c0 = counts[cell, 0]
        total = c0 + n_in
        merges = (total - (max_per - 1)) >> 1
        if merges < 0:
            merges = 0
        retained = total - 2 * merges
        if merges == 0:
            for j in range(n_in):
                clock = unit_clocks[low + j]
                starts[row, c0 + j] = clock
                ends[row, c0 + j] = clock
            counts[cell, 0] = retained
            continue
        carry_starts = np.empty(merges, np.float64)
        carry_ends = np.empty(merges, np.float64)
        for m in range(merges):
            k = 2 * m
            if k < c0:
                carry_starts[m] = starts[row, k]
            else:
                carry_starts[m] = unit_clocks[low + (k - c0)]
            k += 1
            if k < c0:
                carry_ends[m] = ends[row, k]
            else:
                carry_ends[m] = unit_clocks[low + (k - c0)]
        # Retained tail, shifted left in place (source index 2*merges + r is
        # always strictly ahead of destination r, so ascending order is safe).
        for r in range(retained):
            k = 2 * merges + r
            if k < c0:
                starts[row, r] = starts[row, k]
                ends[row, r] = ends[row, k]
            else:
                clock = unit_clocks[low + (k - c0)]
                starts[row, r] = clock
                ends[row, r] = clock
        counts[cell, 0] = retained
        # ---- higher levels: cascade (start, end) pairs ----
        incoming_starts = carry_starts
        incoming_ends = carry_ends
        n_incoming = merges
        level = 1
        while n_incoming > 0:
            row = row_map[cell, level]
            live = counts[cell, level]
            total = live + n_incoming
            merges = (total - (max_per - 1)) >> 1
            if merges < 0:
                merges = 0
            retained = total - 2 * merges
            if merges == 0:
                for j in range(n_incoming):
                    starts[row, live + j] = incoming_starts[j]
                    ends[row, live + j] = incoming_ends[j]
                counts[cell, level] = retained
                break
            carry_starts = np.empty(merges, np.float64)
            carry_ends = np.empty(merges, np.float64)
            for m in range(merges):
                k = 2 * m
                if k < live:
                    carry_starts[m] = starts[row, k]
                else:
                    carry_starts[m] = incoming_starts[k - live]
                k += 1
                if k < live:
                    carry_ends[m] = ends[row, k]
                else:
                    carry_ends[m] = incoming_ends[k - live]
            for r in range(retained):
                k = 2 * merges + r
                if k < live:
                    starts[row, r] = starts[row, k]
                    ends[row, r] = ends[row, k]
                else:
                    starts[row, r] = incoming_starts[k - live]
                    ends[row, r] = incoming_ends[k - live]
            counts[cell, level] = retained
            incoming_starts = carry_starts
            incoming_ends = carry_ends
            n_incoming = merges
            level += 1


@_njit(cache=True)
def expire_cells(  # pragma: no cover - measured via the equivalence suite
    starts: np.ndarray,
    ends: np.ndarray,
    row_map: np.ndarray,
    counts: np.ndarray,
    uppers: np.ndarray,
    oldest_end: np.ndarray,
    candidates: np.ndarray,
    thresholds: np.ndarray,
) -> None:
    """Prefix-drop expiry sweep over candidate cells.

    Candidate ``i`` drops the buckets whose end is at most ``thresholds[i]``.
    Within one ``(cell, level)`` the buckets are time-ordered, so the expired
    set is a prefix; survivors shift left and the per-cell ``oldest_end``
    cache is refreshed exactly.
    """
    num_levels = counts.shape[1]
    for i in range(candidates.shape[0]):
        cell = candidates[i]
        threshold = thresholds[i]
        removed = np.int64(0)
        new_oldest = np.inf
        for level in range(num_levels):
            live = counts[cell, level]
            if live == 0:
                continue
            row = row_map[cell, level]
            expired = 0
            while expired < live and ends[row, expired] <= threshold:
                expired += 1
            if expired:
                removed += np.int64(expired) << level
                for slot in range(live - expired):
                    starts[row, slot] = starts[row, slot + expired]
                    ends[row, slot] = ends[row, slot + expired]
                live -= expired
                counts[cell, level] = live
            if live > 0 and ends[row, 0] < new_oldest:
                new_oldest = ends[row, 0]
        uppers[cell] -= removed
        oldest_end[cell] = new_oldest


@_njit(cache=True)
def estimate_cells_canonical(  # pragma: no cover - measured via the suite
    starts: np.ndarray,
    ends: np.ndarray,
    row_map: np.ndarray,
    counts: np.ndarray,
    cells: np.ndarray,
    start: float,
    out: np.ndarray,
) -> None:
    """Point-query grid walk for many cells.

    Sums the implied sizes (``2**level``) of in-window buckets, then halves
    the oldest in-window bucket when it straddles the window boundary.  The
    oldest bucket is the minimum-end one, ties broken by minimum start, first
    occurrence in (level, slot) order — the same bucket ``argmin`` picks in
    the NumPy ``estimate_cells``.  Every addend is an integer below 2**53, so
    float64 accumulation is exact and the result matches bit-for-bit.
    """
    num_levels = counts.shape[1]
    for i in range(cells.shape[0]):
        cell = cells[i]
        total = 0.0
        min_end = np.inf
        oldest_start = np.inf
        oldest_size = 0.0
        for level in range(num_levels):
            live = counts[cell, level]
            if live == 0:
                continue
            row = row_map[cell, level]
            size = float(np.int64(1) << level)
            for slot in range(live):
                end = ends[row, slot]
                if end > start:
                    total += size
                    bucket_start = starts[row, slot]
                    if end < min_end or (end == min_end and bucket_start < oldest_start):
                        min_end = end
                        oldest_start = bucket_start
                        oldest_size = size
        if total > 0.0 and oldest_start <= start:
            total -= oldest_size / 2.0
        out[i] = total
