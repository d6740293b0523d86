"""Centralized-setup experiments: Figure 4 and Table 3 (paper Section 7.2).

Figure 4 plots, for each data set and each ECM-sketch variant, the average and
maximum observed error of point queries and self-join queries against the
memory footprint of the sketch, sweeping the total error budget
``epsilon in [0.05, 0.25]`` at ``delta = 0.1``.

Table 3 reports the sustained update rate of the three variants at
``epsilon = 0.1``.

The runners in this module regenerate both: one row per (variant, epsilon)
for the figure, one row per variant for the table.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from collections.abc import Sequence
from typing import ClassVar

from ..analysis.metrics import evaluate_queries, exponential_query_ranges
from ..analysis.reporting import format_table
from ..baselines.exact import ExactStreamSummary
from ..core.config import CounterType
from ..core.errors import ConfigurationError
from ..streams.stream import Stream
from .common import (
    DEFAULT_DELTA,
    DEFAULT_EPSILONS,
    PAPER_WINDOW_SECONDS,
    VARIANT_LABELS,
    build_sketch,
    load_dataset,
    max_arrivals_bound,
)

__all__ = [
    "CentralizedErrorRow",
    "UpdateRateRow",
    "run_centralized_error_experiment",
    "run_update_rate_experiment",
    "median_rate_ratio",
    "format_centralized_rows",
    "format_update_rate_rows",
]


@dataclass
class CentralizedErrorRow:
    """One point of Figure 4: a (dataset, variant, epsilon, query type) cell."""

    experiment: ClassVar[str] = "figure4"
    dataset: str
    variant: str
    query_type: str
    epsilon: float
    memory_bytes: int
    average_error: float
    maximum_error: float
    queries: int

    @property
    def memory_megabytes(self) -> float:
        """Memory on the figure's X axis, in megabytes."""
        return self.memory_bytes / (1024.0 * 1024.0)


@dataclass
class UpdateRateRow:
    """One cell of Table 3: sustained update rate of a variant on a data set.

    ``round_seconds`` holds one ingest time per round; ``elapsed_seconds``
    is their median.
    """

    experiment: ClassVar[str] = "table3"
    dataset: str
    variant: str
    epsilon: float
    records: int
    elapsed_seconds: float
    round_seconds: list[float]

    @property
    def updates_per_second(self) -> float:
        """Updates per second (the unit of Table 3)."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.records / self.elapsed_seconds


def _evaluate_variant(
    dataset: str,
    stream: Stream,
    exact: ExactStreamSummary,
    counter_type: CounterType,
    epsilon: float,
    query_type: str,
    window: float,
    max_keys_per_range: int | None,
    seed: int,
) -> CentralizedErrorRow:
    """Build, feed and evaluate one sketch variant at one epsilon."""
    sketch = build_sketch(
        counter_type=counter_type,
        epsilon=epsilon,
        delta=DEFAULT_DELTA,
        window=window,
        max_arrivals=max_arrivals_bound(stream),
        query_type=query_type,
        seed=seed,
    )
    for record in stream:
        sketch.add(record.key, record.timestamp, record.value)
    ranges = exponential_query_ranges(window)
    summary = evaluate_queries(sketch, exact, query_type, ranges, stream.end_time(), max_keys_per_range)
    return CentralizedErrorRow(
        dataset=dataset,
        variant=VARIANT_LABELS[counter_type],
        query_type=query_type,
        epsilon=epsilon,
        # The paper's memory axis is the 32-bit synopsis model, independent
        # of how the counter grid is stored locally.
        memory_bytes=sketch.synopsis_bytes(),
        average_error=summary.average,
        maximum_error=summary.maximum,
        queries=summary.count,
    )


def run_centralized_error_experiment(
    dataset: str = "wc98",
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    variants: Sequence[CounterType] | None = None,
    query_types: Sequence[str] = ("point", "self-join"),
    num_records: int | None = None,
    window: float = PAPER_WINDOW_SECONDS,
    max_keys_per_range: int | None = 200,
    seed: int = 0,
) -> list[CentralizedErrorRow]:
    """Regenerate Figure 4 for one data set.

    Randomized-wave sketches are skipped for self-join queries, matching the
    paper ("the ECM-RW structure does not allow probabilistic guarantees for
    self-join queries").
    """
    if variants is None:
        variants = (
            CounterType.EXPONENTIAL_HISTOGRAM,
            CounterType.DETERMINISTIC_WAVE,
            CounterType.RANDOMIZED_WAVE,
        )
    stream = load_dataset(dataset, num_records=num_records)
    exact = ExactStreamSummary.from_stream(stream, window=window)
    rows: list[CentralizedErrorRow] = []
    for query_type in query_types:
        if query_type not in ("point", "self-join"):
            raise ConfigurationError("unknown query type %r" % (query_type,))
        for counter_type in variants:
            if query_type == "self-join" and counter_type is CounterType.RANDOMIZED_WAVE:
                continue
            for epsilon in epsilons:
                rows.append(
                    _evaluate_variant(
                        dataset=dataset,
                        stream=stream,
                        exact=exact,
                        counter_type=counter_type,
                        epsilon=epsilon,
                        query_type=query_type,
                        window=window,
                        max_keys_per_range=max_keys_per_range,
                        seed=seed,
                    )
                )
    return rows


#: Table 3 timing rounds; the claims compare variants by the median round.
#: A multiple of three, so each of the three variants leads equally often.
UPDATE_RATE_ROUNDS = 9


def run_update_rate_experiment(
    dataset: str = "wc98",
    epsilon: float = 0.1,
    variants: Sequence[CounterType] | None = None,
    num_records: int | None = None,
    window: float = PAPER_WINDOW_SECONDS,
    seed: int = 0,
    batch_size: int | None = None,
) -> list[UpdateRateRow]:
    """Regenerate Table 3 (update rates per variant) for one data set.

    Each of :data:`UPDATE_RATE_ROUNDS` rounds times every variant's ingest
    of the whole trace into a fresh sketch, back to back, the round's first
    variant rotating; only the sketch being timed is alive.
    :func:`median_rate_ratio` then compares two variants round by round.

    Args:
        batch_size: When given, ingest through the batched fast path
            (``ECMSketch.add_many``) in chunks of this many records instead of
            per-record ``add`` calls; the sustained rates then reflect the
            batched hot path.
    """
    if variants is None:
        variants = (
            CounterType.EXPONENTIAL_HISTOGRAM,
            CounterType.DETERMINISTIC_WAVE,
            CounterType.RANDOMIZED_WAVE,
        )
    stream = load_dataset(dataset, num_records=num_records)
    seconds: dict[CounterType, list[float]] = {counter_type: [] for counter_type in variants}
    for round_index in range(UPDATE_RATE_ROUNDS):
        lead = round_index % len(variants)
        for counter_type in [*variants[lead:], *variants[:lead]]:
            sketch = build_sketch(
                counter_type=counter_type,
                epsilon=epsilon,
                delta=DEFAULT_DELTA,
                window=window,
                max_arrivals=max_arrivals_bound(stream),
                query_type="point",
                seed=seed,
            )
            start = time.perf_counter()
            if batch_size is None:
                for record in stream:
                    sketch.add(record.key, record.timestamp, record.value)
            else:
                # The pivot is part of the timed region: the scalar loop pays
                # per-record attribute access inside the clock, so the batched
                # number must pay its equivalent too.
                keys, timestamps, values = stream.columns()
                for begin in range(0, len(keys), batch_size):
                    stop = begin + batch_size
                    sketch.add_many(keys[begin:stop], timestamps[begin:stop], values[begin:stop])
            seconds[counter_type].append(time.perf_counter() - start)
    return [
        UpdateRateRow(
            dataset=dataset,
            variant=VARIANT_LABELS[counter_type],
            epsilon=epsilon,
            records=len(stream),
            elapsed_seconds=statistics.median(seconds[counter_type]),
            round_seconds=seconds[counter_type],
        )
        for counter_type in variants
    ]


def median_rate_ratio(faster_seconds: Sequence[float], slower_seconds: Sequence[float]) -> float:
    """Median over rounds of one variant's update rate over another's.

    Both sequences are per-round ingest times of the same trace, paired by
    round (``UpdateRateRow.round_seconds``), so each ratio compares two
    timings taken under the same load.
    """
    return statistics.median(slow / fast for fast, slow in zip(faster_seconds, slower_seconds))


# ------------------------------------------------------------------ reporting
def format_centralized_rows(rows: Sequence[CentralizedErrorRow]) -> str:
    """Render Figure 4 rows as an aligned text table."""
    return format_table(rows, (
        ("data", "dataset", "-6s"), ("variant", "variant", "-8s"), ("query", "query_type", "-10s"),
        ("eps", "epsilon", "6.2f"), ("memory(MB)", "memory_megabytes", "12.3f"),
        ("avg err", "average_error", "10.4f"), ("max err", "maximum_error", "10.4f"),
        ("queries", "queries", "8d"),
    ))


def format_update_rate_rows(rows: Sequence[UpdateRateRow]) -> str:
    """Render Table 3 rows as an aligned text table."""
    return format_table(rows, (
        ("data", "dataset", "-6s"), ("variant", "variant", "-8s"), ("eps", "epsilon", "6.2f"),
        ("records", "records", "10d"), ("updates/sec", "updates_per_second", "14.0f"),
    ))
