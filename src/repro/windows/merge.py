"""Order-preserving aggregation of sliding-window synopses (paper Section 5).

The paper's second major contribution is an algorithm that combines *n*
deterministic sliding-window synopses — each summarising one local stream —
into a single synopsis of the order-preserving union stream
``S_plus = S_1 (+) S_2 (+) ... (+) S_n``, something previously possible only
with randomized (and therefore much larger) structures.

For exponential histograms the algorithm treats every input bucket as a tiny
log: a bucket of size ``|b|`` spanning ``[s(b), e(b)]`` is replayed as
``|b|/2`` arrivals at ``s(b)`` and ``|b|/2`` arrivals at ``e(b)``.  Replaying
all buckets of all inputs in timestamp order into a fresh exponential
histogram with error parameter ``epsilon_prime`` produces an aggregate whose
relative error is at most ``epsilon + epsilon_prime + epsilon*epsilon_prime``
(Theorem 4).  The same replay idea extends to deterministic waves, whose
checkpoints delimit runs of arrivals with exactly known sizes.

One histogram at a time, :func:`merge_exponential_histograms` is that
replay, event by event.  Whole columnar grids (the layout sketches use)
replay at once: :func:`_merge_columnar_grids` reads every input's buckets
from the slot arrays and hands the ordered events to the result store's
batched ingest, the same cascade that ingests arrivals.  Only aggregation
imports this module, so a single-site server never loads it.

Count-based synopses cannot be aggregated this way (the ordering of the
"false bits" between arrivals is lost — Figure 2 of the paper); attempting to
do so raises :class:`~repro.core.errors.WindowModelError`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.errors import ConfigurationError, IncompatibleSketchError, WindowModelError
from .base import WindowModel
from .deterministic_wave import DeterministicWave
from .exponential_histogram import ExponentialHistogram

if TYPE_CHECKING:
    from ..core.counter_store import RowPayload
    from .columnar_eh import ColumnarEHStore

__all__ = [
    "aggregated_error",
    "multi_level_error",
    "epsilon_for_levels",
    "bucket_replay_events",
    "wave_replay_events",
    "merge_exponential_histograms",
    "merge_deterministic_waves",
]

ReplayEvent = tuple[float, int]


# --------------------------------------------------------------------- errors
def aggregated_error(epsilon: float, epsilon_prime: float) -> float:
    """Worst-case relative error after one aggregation step (Theorem 4).

    ``epsilon`` is the error of the input synopses, ``epsilon_prime`` the
    error parameter of the aggregate synopsis.
    """
    return epsilon + epsilon_prime + epsilon * epsilon_prime


def multi_level_error(epsilon: float, levels: int) -> float:
    """Worst-case relative error after ``levels`` levels of aggregation.

    Follows the paper's hierarchical analysis: ``err <= h*eps*(1+eps) + eps``
    for a hierarchy of height ``h`` whose synopses all use error ``eps``.
    """
    if levels < 0:
        raise ConfigurationError("levels must be non-negative, got %r" % (levels,))
    return levels * epsilon * (1.0 + epsilon) + epsilon


def epsilon_for_levels(target_epsilon: float, levels: int) -> float:
    """Per-synopsis error so that ``levels`` aggregation levels meet a target.

    Inverts :func:`multi_level_error`; the closed form is the paper's
    ``(sqrt(1 + 2h + h**2 + 4*h*eps) - 1 - h) / (2h)`` expression.  With
    ``levels == 0`` the target itself is returned.
    """
    if target_epsilon <= 0:
        raise ConfigurationError("target_epsilon must be positive")
    if levels < 0:
        raise ConfigurationError("levels must be non-negative, got %r" % (levels,))
    if levels == 0:
        return target_epsilon
    h = float(levels)
    return (math.sqrt(1.0 + 2.0 * h + h * h + 4.0 * h * target_epsilon) - 1.0 - h) / (2.0 * h)


# --------------------------------------------------------------------- replay
def bucket_replay_events(histogram: ExponentialHistogram) -> list[ReplayEvent]:
    """Replay events for one exponential histogram.

    Every bucket of size ``c`` contributes ``floor(c/2)`` arrivals at its start
    timestamp and ``ceil(c/2)`` arrivals at its end timestamp, per the paper's
    aggregation algorithm.

    Returns:
        A list of ``(clock, count)`` events, not yet sorted.
    """
    events: list[ReplayEvent] = []
    for bucket in histogram.iter_buckets():
        half_low = bucket.size // 2
        half_high = bucket.size - half_low
        if half_low:
            events.append((bucket.start, half_low))
        if half_high:
            events.append((bucket.end, half_high))
    return events


def wave_replay_events(wave: DeterministicWave) -> list[ReplayEvent]:
    """Replay events for one deterministic wave.

    The retained checkpoints, ordered by rank, delimit runs of arrivals whose
    exact size is the rank difference; each run is replayed half at the clock
    of its older delimiter and half at the clock of its newer delimiter —
    the same halving strategy used for exponential-histogram buckets.
    """
    checkpoints = {}
    for level in wave.levels_snapshot():
        for checkpoint in level:
            checkpoints[checkpoint.rank] = checkpoint.clock
    if not checkpoints:
        return []
    ordered = sorted(checkpoints.items())
    events: list[ReplayEvent] = []
    first_rank, first_clock = ordered[0]
    # Arrivals up to and including the oldest retained checkpoint are replayed
    # at its clock; anything older has already left every window of interest.
    events.append((first_clock, 1))
    previous_rank, previous_clock = first_rank, first_clock
    for rank, clock in ordered[1:]:
        gap = rank - previous_rank
        half_low = gap // 2
        half_high = gap - half_low
        if half_low:
            events.append((previous_clock, half_low))
        if half_high:
            events.append((clock, half_high))
        previous_rank, previous_clock = rank, clock
    return events


def _validate_time_based(
    synopses: Sequence, expected_window: float | None = None
) -> float:
    """Shared validation for order-preserving aggregation inputs."""
    if not synopses:
        raise ConfigurationError("cannot aggregate an empty collection of synopses")
    window = expected_window
    for synopsis in synopses:
        if synopsis.model is not WindowModel.TIME_BASED:
            raise WindowModelError(
                "order-preserving aggregation is only defined for time-based "
                "sliding windows (paper Section 5.1, Figure 2)"
            )
        if window is None:
            window = synopsis.window
        elif synopsis.window != window:
            raise IncompatibleSketchError(
                "all synopses must cover the same window length; got %r and %r"
                % (window, synopsis.window)
            )
    assert window is not None
    return window


# ------------------------------------------------------------------ bulk sort
def _gather_sorted_events(
    sources: Sequence, event_fn: Callable[[object], list[ReplayEvent]]
) -> tuple[list[float], list[int]]:
    """Replay events of all sources, stably sorted by clock, as two lists.

    Produces exactly the event sequence the replay reference builds —
    source by source, then ``sort(key=clock)`` — but orders it with one
    stable NumPy argsort.  Stability makes the permutation unique, so as long
    as the clock keys survive the NumPy round-trip exactly the result matches
    the Python sort; mixed-type clock lists (where a float64 coercion could
    alias distinct keys) fall back to the keyed Python sort.
    """
    clocks: list[float] = []
    counts: list[int] = []
    for source in sources:
        for clock, count in event_fn(source):
            clocks.append(clock)
            counts.append(count)
    if len(clocks) < 32:
        # Tiny cells: the keyed Python sort is cheaper than a NumPy round-trip.
        events = sorted(zip(clocks, counts, strict=False), key=lambda event: event[0])
        return [event[0] for event in events], [event[1] for event in events]
    clocks_array = np.asarray(clocks)
    if clocks_array.dtype.kind == "f" and not all(type(c) is float for c in clocks):
        events = sorted(zip(clocks, counts, strict=False), key=lambda event: event[0])
        return [event[0] for event in events], [event[1] for event in events]
    order = np.argsort(clocks_array, kind="stable")
    return (
        clocks_array[order].tolist(),
        np.asarray(counts, dtype=np.int64)[order].tolist(),
    )


# ---------------------------------------------------------------------- merge
def merge_exponential_histograms(
    histograms: Sequence[ExponentialHistogram],
    epsilon_prime: float | None = None,
) -> ExponentialHistogram:
    """Aggregate time-based exponential histograms into one (paper Section 5.1).

    Every input bucket's replay events, in clock order, go through the
    aggregate's scalar :meth:`~repro.windows.exponential_histogram.ExponentialHistogram.add`:
    the paper's algorithm as written.  :func:`_merge_columnar_grids` runs the
    same replay on whole columnar grids.

    Args:
        histograms: The input histograms.  They must all be time-based and
            cover the same window length.
        epsilon_prime: Error parameter of the aggregate histogram.  Defaults
            to the error parameter of the first input, which yields the
            ``2*eps + eps**2`` special case of Theorem 4.

    Returns:
        A new :class:`ExponentialHistogram` summarising the order-preserving
        union of the input streams.
    """
    return _replay_merge(histograms, epsilon_prime)


def _merge_columnar_grids(stores: Sequence[ColumnarEHStore], result: ColumnarEHStore) -> None:
    """:func:`merge_exponential_histograms` for every cell of columnar grids at once.

    Each live bucket of each input store replays, straight from the slot
    arrays, as ``floor(c/2)`` arrivals at its start and ``ceil(c/2)`` at its
    end.  The events are stably ordered by (cell, clock), so each cell sees
    them in the reference's order, and the fresh ``result`` (same shape and
    window) takes them in one
    :meth:`~repro.windows.columnar_eh.ColumnarEHStore.ingest_sorted_rows`
    call.  A cell turns float when it replays a bucket of a float input
    cell, as the reference turns float at its first float clock.
    """
    every_cell = np.arange(result.cells)
    parts = []
    for store in stores:
        position, level, starts, ends, floats = store.live_buckets(every_cell)
        size = np.left_shift(1, level)
        # Each bucket's start event, then its end event; a unit bucket has
        # no start event.
        counts = np.stack((size >> 1, size - (size >> 1)), axis=1).reshape(-1)
        kept = counts > 0
        clocks = np.stack((starts, ends), axis=1).reshape(-1)
        parts.append(
            (np.repeat(position, 2)[kept], clocks[kept], counts[kept], np.repeat(floats, 2)[kept])
        )
    cells, clocks, counts, floats = (np.concatenate(column) for column in zip(*parts))
    if not cells.size:
        return
    order = np.argsort(clocks, kind="stable")
    order = order[np.argsort(cells[order], kind="stable")]
    cells, clocks, counts, floats = cells[order], clocks[order], counts[order], floats[order]
    run_starts = np.flatnonzero(np.diff(cells, prepend=-1))
    run_stops = np.append(run_starts[1:], cells.shape[0])
    run_cells = cells[run_starts]
    float_runs = np.logical_or.reduceat(floats, run_starts)
    width = result.width
    bounds = np.searchsorted(run_cells, np.arange(result.depth + 1) * width)
    payloads: list[RowPayload] = []
    for row in range(result.depth):
        low, high = bounds[row], bounds[row + 1]
        if low < high:
            first, last = run_starts[low], run_stops[high - 1]
            payloads.append(
                (
                    row,
                    (run_cells[low:high] - row * width).tolist(),
                    (run_starts[low:high] - first).tolist(),
                    (run_stops[low:high] - first).tolist(),
                    clocks[first:last],
                    counts[first:last],
                    float_runs[low:high],
                )
            )
    result.ingest_sorted_rows(payloads)


def merge_deterministic_waves(
    waves: Sequence[DeterministicWave],
    epsilon_prime: float | None = None,
    max_arrivals: int | None = None,
) -> DeterministicWave:
    """Aggregate time-based deterministic waves into one wave.

    Mirrors :func:`merge_exponential_histograms` with checkpoint-delimited
    replay events, gathered and stably sorted as arrays and handed as one
    run to the arithmetic bulk path of
    :meth:`~repro.windows.deterministic_wave.DeterministicWave.add_batch`,
    which materialises only the retained checkpoints of each level.  The
    result is byte-identical to the private :func:`_replay_merge`.
    ``max_arrivals`` of the aggregate defaults to the sum of the inputs'
    bounds (the union stream can carry at most that many arrivals per
    window).
    """
    merged, replay_events = _empty_aggregate(waves, epsilon_prime, max_arrivals)
    clocks, counts = _gather_sorted_events(waves, replay_events)
    if clocks:
        merged.add_batch(clocks, counts, assume_ordered=True)
    return merged


def _empty_aggregate(
    synopses: Sequence, epsilon_prime: float | None, max_arrivals: int | None
) -> tuple[Any, Callable[[Any], list[ReplayEvent]]]:
    """The empty aggregate of validated inputs, plus their replay-event function."""
    window = _validate_time_based(synopses)
    if epsilon_prime is None:
        epsilon_prime = synopses[0].epsilon
    if isinstance(synopses[0], DeterministicWave):
        if max_arrivals is None:
            max_arrivals = sum(wave.max_arrivals for wave in synopses)
        wave = DeterministicWave(
            epsilon=epsilon_prime,
            window=window,
            max_arrivals=max_arrivals,
            model=WindowModel.TIME_BASED,
        )
        return wave, wave_replay_events
    histogram = ExponentialHistogram(
        epsilon=epsilon_prime, window=window, model=WindowModel.TIME_BASED
    )
    return histogram, bucket_replay_events


def _replay_merge(
    synopses: Sequence,
    epsilon_prime: float | None = None,
    max_arrivals: int | None = None,
) -> Any:
    """Reference aggregation: replay every event through the scalar ``add``.

    The paper's algorithm as written — walk the union stream's replay events
    in timestamp order, one insert-and-cascade at a time.  It is the body of
    :func:`merge_exponential_histograms`; :func:`merge_deterministic_waves`
    and :func:`_merge_columnar_grids` must produce byte-identical state.
    """
    merged, replay_events = _empty_aggregate(synopses, epsilon_prime, max_arrivals)
    events: list[ReplayEvent] = []
    for synopsis in synopses:
        events.extend(replay_events(synopsis))
    events.sort(key=lambda event: event[0])
    for clock, count in events:
        merged.add(clock, count)
    return merged
