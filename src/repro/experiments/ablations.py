"""Ablation studies for design choices called out in DESIGN.md, and one
extension experiment.

Four ablations complement the paper's experiments:

* **epsilon split** — the paper derives the memory-optimal split of the total
  error budget between the Count-Min part and the sliding-window part
  (Section 4.1).  The ablation compares that optimal split against a naive
  50/50 split at equal total error, showing the memory advantage.
* **merge replay strategy** — the aggregation algorithm replays each bucket as
  half of its size at the bucket's start time and half at its end time.  The
  ablation compares this against replaying everything at the bucket end,
  which biases queries that cut through old buckets and inflates the observed
  aggregation error;
* **propagation period** — the continuous-query coordinator re-aggregates the
  site sketches every ``period`` stream-seconds; the sweep trades
  communication against the error of answers read at maximum staleness;
* **window model** — time-based against count-based windows (Section 4.2.1)
  over the same trace: the count-based model carries no accuracy penalty.

The extension closes a gap of the evaluation: Theorem 2 bounds inner
products between two *different* streams, but the paper only measures
self-joins.  Two correlated streams are summarised by separate sketches and
their sliding-window join size is compared with the exact one, the error
normalised by ``||a_r||_1 * ||b_r||_1`` as in the bound.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from collections.abc import Sequence
from typing import ClassVar

from ..analysis.memory import ecm_sketch_bytes
from ..analysis.metrics import ErrorSummary
from ..analysis.reporting import format_table
from ..baselines.exact import ExactStreamSummary
from ..core.config import (
    CounterType,
    ECMConfig,
    point_query_error,
    split_point_query_deterministic,
)
from ..core.ecm_sketch import ECMSketch
from ..core.errors import ConfigurationError
from ..distributed.continuous import PeriodicAggregationCoordinator
from ..streams.generators import WorldCupSyntheticTrace
from ..windows.base import WindowModel
from ..windows.exponential_histogram import ExponentialHistogram
from ..windows.merge import aggregated_error
from .common import DEFAULT_DELTA, PAPER_WINDOW_SECONDS, load_dataset

__all__ = [
    "EpsilonSplitRow",
    "MergeStrategyRow",
    "PropagationPeriodRow",
    "WindowModelRow",
    "InnerProductRow",
    "run_epsilon_split_ablation",
    "run_merge_strategy_ablation",
    "run_propagation_period_ablation",
    "run_window_model_ablation",
    "run_inner_product_experiment",
    "format_epsilon_split_rows",
    "format_merge_strategy_rows",
    "format_propagation_period_rows",
    "format_window_model_rows",
    "format_inner_product_rows",
]


@dataclass
class EpsilonSplitRow:
    """Memory cost of one epsilon-split policy at one total error budget."""

    experiment: ClassVar[str] = "epsilon-split"
    policy: str
    epsilon: float
    epsilon_sw: float
    epsilon_cm: float
    total_error: float
    memory_bytes: float


@dataclass
class MergeStrategyRow:
    """Observed aggregation error of one bucket-replay strategy.

    ``guarantee`` is the Theorem 4 bound of one aggregation step, with the
    inputs and the aggregate both at ``epsilon``.
    """

    experiment: ClassVar[str] = "merge-strategy"
    strategy: str
    epsilon: float
    num_streams: int
    average_error: float
    maximum_error: float
    guarantee: float


@dataclass
class PropagationPeriodRow:
    """Communication and staleness error of one propagation period."""

    experiment: ClassVar[str] = "propagation-period"
    dataset: str
    period: float
    rounds: int
    transfer_bytes: int
    stale_error: float

    @property
    def transfer_megabytes(self) -> float:
        """Cumulative transfer volume, in megabytes."""
        return self.transfer_bytes / (1024.0 * 1024.0)


@dataclass
class WindowModelRow:
    """Accuracy, memory and ingest time of one window model."""

    experiment: ClassVar[str] = "window-model"
    dataset: str
    model: str
    window: float
    epsilon: float
    maximum_error: float
    memory_bytes: int
    elapsed_seconds: float


@dataclass
class InnerProductRow:
    """One cross-stream inner-product query at one epsilon and range."""

    experiment: ClassVar[str] = "inner-product"
    epsilon: float
    range_length: float
    exact: int
    estimate: float
    error: float


def _skewed_split(epsilon: float, sw_share: float) -> tuple[float, float]:
    """Give ``sw_share`` of the budget to the window error, the rest to hashing.

    ``epsilon_cm`` is derived from Theorem 1 so the combined point-query error
    still equals the target budget exactly.
    """
    epsilon_sw = epsilon * sw_share
    epsilon_cm = (epsilon - epsilon_sw) / (1.0 + epsilon_sw)
    return epsilon_sw, epsilon_cm


def run_epsilon_split_ablation(
    epsilons: Sequence[float] = (0.05, 0.1, 0.2),
    window: float = PAPER_WINDOW_SECONDS,
    max_arrivals: int = 100_000,
) -> list[EpsilonSplitRow]:
    """Compare the optimal epsilon split against window-heavy and hash-heavy splits.

    For deterministic counters and point queries the optimum is an even split
    (``eps_sw = eps_cm = sqrt(1+eps) - 1``); the skewed policies spend 80% of
    the budget on one side and show the memory penalty of getting it wrong.
    """
    rows: list[EpsilonSplitRow] = []
    for epsilon in epsilons:
        for policy, splitter in (
            ("optimal", split_point_query_deterministic),
            ("sw-heavy", lambda eps: _skewed_split(eps, 0.8)),
            ("cm-heavy", lambda eps: _skewed_split(eps, 0.2)),
        ):
            epsilon_sw, epsilon_cm = splitter(epsilon)
            rows.append(
                EpsilonSplitRow(
                    policy=policy,
                    epsilon=epsilon,
                    epsilon_sw=epsilon_sw,
                    epsilon_cm=epsilon_cm,
                    total_error=point_query_error(epsilon_sw, epsilon_cm),
                    memory_bytes=ecm_sketch_bytes(
                        counter_type=CounterType.EXPONENTIAL_HISTOGRAM,
                        epsilon_sw=epsilon_sw,
                        epsilon_cm=epsilon_cm,
                        delta=DEFAULT_DELTA,
                        window=window,
                        max_arrivals=max_arrivals,
                    ),
                )
            )
    return rows


def _merge_with_strategy(
    histograms: Sequence[ExponentialHistogram],
    strategy: str,
    epsilon_prime: float,
) -> ExponentialHistogram:
    """Merge exponential histograms replaying buckets per the given strategy."""
    if strategy not in ("half-half", "all-at-end"):
        raise ConfigurationError("unknown merge strategy %r" % (strategy,))
    window = histograms[0].window
    merged = ExponentialHistogram(epsilon=epsilon_prime, window=window, model=WindowModel.TIME_BASED)
    events: list[tuple[float, int]] = []
    for histogram in histograms:
        for bucket in histogram.iter_buckets():
            if strategy == "half-half":
                low = bucket.size // 2
                high = bucket.size - low
                if low:
                    events.append((bucket.start, low))
                if high:
                    events.append((bucket.end, high))
            else:
                events.append((bucket.end, bucket.size))
    events.sort(key=lambda event: event[0])
    for clock, count in events:
        merged.add(clock, count)
    return merged


def run_merge_strategy_ablation(
    epsilon: float = 0.05,
    num_streams: int = 8,
    arrivals_per_stream: int = 4_000,
    window: float = 50_000.0,
    query_ranges: Sequence[float] = (100.0, 1_000.0, 10_000.0, 50_000.0),
    seed: int = 17,
) -> list[MergeStrategyRow]:
    """Compare the paper's half/half bucket replay against an all-at-end replay."""
    rng = random.Random(seed)
    histograms: list[ExponentialHistogram] = []
    arrival_log: list[float] = []
    for _ in range(num_streams):
        histogram = ExponentialHistogram(epsilon=epsilon, window=window, model=WindowModel.TIME_BASED)
        clock = 0.0
        for _ in range(arrivals_per_stream):
            clock += rng.random() * (window / arrivals_per_stream) * 2.0
            histogram.add(clock)
            arrival_log.append(clock)
        histograms.append(histogram)
    now = max(arrival_log)

    rows: list[MergeStrategyRow] = []
    for strategy in ("half-half", "all-at-end"):
        merged = _merge_with_strategy(histograms, strategy, epsilon_prime=epsilon)
        errors: list[float] = []
        for range_length in query_ranges:
            true = sum(1 for t in arrival_log if now - range_length < t <= now)
            if true == 0:
                continue
            estimate = merged.estimate(range_length, now=now)
            errors.append(abs(estimate - true) / true)
        summary = ErrorSummary.from_errors(errors)
        rows.append(
            MergeStrategyRow(
                strategy=strategy,
                epsilon=epsilon,
                num_streams=num_streams,
                average_error=summary.average,
                maximum_error=summary.maximum,
                guarantee=aggregated_error(epsilon, epsilon),
            )
        )
    return rows


def run_propagation_period_ablation(
    dataset: str = "wc98", num_records: int | None = None, num_nodes: int = 16
) -> list[PropagationPeriodRow]:
    """Sweep the coordinator's aggregation period (extension of Section 6.1).

    Sketches are sized for point queries at epsilon = 0.1.  The five most
    frequent keys are queried right before each refresh, at maximum
    staleness; ``stale_error`` is the worst answer, normalised by the
    arrivals in the window.
    """
    window = PAPER_WINDOW_SECONDS
    stream = load_dataset(dataset, num_records=num_records)
    exact = ExactStreamSummary.from_stream(stream, window=window)
    config = ECMConfig.for_point_queries(epsilon=0.1, delta=DEFAULT_DELTA, window=window)
    totals = exact.frequencies_in_range(None, stream.end_time())
    probes = sorted(totals, key=lambda key: -totals[key])[:5]
    rows: list[PropagationPeriodRow] = []
    for period in (200_000.0, 100_000.0, 50_000.0, 25_000.0):
        coordinator = PeriodicAggregationCoordinator(num_nodes=num_nodes, config=config, period=period)
        worst = 0.0
        for record in stream:
            coordinator.observe(record.node, record.key, record.timestamp, record.value)
            last_round = coordinator.last_round_clock
            if last_round is not None and record.timestamp - last_round > 0.9 * period:
                arrivals = max(exact.arrivals(None, record.timestamp), 1)
                for key in probes:
                    truth = exact.frequency(key, now=record.timestamp)
                    estimate = coordinator.query_frequency(key)
                    worst = max(worst, abs(estimate - truth) / arrivals)
        rows.append(
            PropagationPeriodRow(
                dataset=dataset,
                period=period,
                rounds=coordinator.stats.rounds,
                transfer_bytes=coordinator.stats.transfer_bytes,
                stale_error=worst,
            )
        )
    return rows


def run_window_model_ablation(
    dataset: str = "wc98", num_records: int | None = None, max_keys: int = 150
) -> list[WindowModelRow]:
    """Time-based against count-based windows over the same trace, at epsilon = 0.1.

    The count-based window covers the last half of the trace's arrivals; the
    time-based window covers the same share of the trace duration.  Memory
    is the paper's synopsis model, independent of the storage layout.
    """
    stream = load_dataset(dataset, num_records=num_records)
    rows: list[WindowModelRow] = []
    for model, window in (
        (WindowModel.TIME_BASED, stream.duration() / 2.0),
        (WindowModel.COUNT_BASED, float(len(stream) // 2)),
    ):
        sketch = ECMSketch.for_point_queries(
            epsilon=0.1, delta=DEFAULT_DELTA, window=window, model=model,
            counter_type=CounterType.EXPONENTIAL_HISTOGRAM,
        )
        exact = ExactStreamSummary(window=window)
        clocks = [record.timestamp if model is WindowModel.TIME_BASED else float(index)
                  for index, record in enumerate(stream, start=1)]
        start = time.perf_counter()
        for record, clock in zip(stream, clocks):
            sketch.add(record.key, clock)
        elapsed = time.perf_counter() - start
        for record, clock in zip(stream, clocks):
            exact.add(record.key, clock)
        now = stream.end_time() if model is WindowModel.TIME_BASED else float(len(stream))
        arrivals = max(exact.arrivals(None, now), 1)
        worst = 0.0
        for key, truth in list(exact.frequencies_in_range(None, now).items())[:max_keys]:
            worst = max(worst, abs(sketch.point_query(key, now=now) - truth) / arrivals)
        rows.append(
            WindowModelRow(
                dataset=dataset,
                model=model.value,
                window=window,
                epsilon=0.1,
                maximum_error=worst,
                memory_bytes=sketch.synopsis_bytes(),
                elapsed_seconds=elapsed,
            )
        )
    return rows


def _correlated_streams(
    num_records: int, seed: int
) -> tuple[list[tuple[float, str]], list[tuple[float, str]]]:
    """Two streams over the same key universe with shifted popularity.

    Stream B replays A's arrival times but remaps a third of the keys, so
    the join size is well below ``||a|| * ||b||`` yet far from zero.
    """
    base = WorldCupSyntheticTrace(
        num_records=num_records, domain_size=500, seed=seed, duration=PAPER_WINDOW_SECONDS
    ).generate()
    rng = random.Random(seed + 1)
    remapped = []
    for record in base:
        key = record.key
        if rng.random() < 0.33:
            key = "/page/%05d" % rng.randrange(500)
        remapped.append((record.timestamp, key))
    return [(record.timestamp, record.key) for record in base], remapped


def run_inner_product_experiment(
    epsilons: Sequence[float] = (0.05, 0.10, 0.25), num_records: int = 6_000
) -> list[InnerProductRow]:
    """Cross-stream inner-product error per epsilon and query range."""
    window = PAPER_WINDOW_SECONDS
    streams = _correlated_streams(num_records, seed=21)
    exacts = [ExactStreamSummary(window=window), ExactStreamSummary(window=window)]
    for stream, exact in zip(streams, exacts):
        for clock, key in stream:
            exact.add(key, clock)
    now = max(stream[-1][0] for stream in streams)
    rows: list[InnerProductRow] = []
    for epsilon in epsilons:
        sketches = [
            ECMSketch.for_inner_product_queries(epsilon=epsilon, delta=DEFAULT_DELTA, window=window, seed=3)
            for _ in streams
        ]
        for stream, sketch in zip(streams, sketches):
            for clock, key in stream:
                sketch.add(key, clock)
        for range_length in (10_000.0, 100_000.0, window):
            arrivals_a, arrivals_b = (exact.arrivals(range_length, now) for exact in exacts)
            if arrivals_a == 0 or arrivals_b == 0:
                continue
            estimate = sketches[0].inner_product(sketches[1], range_length, now=now)
            truth = exacts[0].inner_product(exacts[1], range_length, now=now)
            rows.append(
                InnerProductRow(
                    epsilon=epsilon,
                    range_length=range_length,
                    exact=truth,
                    estimate=estimate,
                    error=abs(estimate - truth) / (arrivals_a * arrivals_b),
                )
            )
    return rows


# ------------------------------------------------------------------ reporting
def format_epsilon_split_rows(rows: Sequence[EpsilonSplitRow]) -> str:
    """Render the epsilon-split ablation as an aligned text table."""
    return format_table(rows, (
        ("policy", "policy", "-10s"), ("eps", "epsilon", "6.2f"), ("eps_sw", "epsilon_sw", "8.4f"),
        ("eps_cm", "epsilon_cm", "8.4f"), ("total err", "total_error", "10.4f"),
        ("memory(bytes)", "memory_bytes", "16.0f"),
    ))


def format_merge_strategy_rows(rows: Sequence[MergeStrategyRow]) -> str:
    """Render the merge-strategy ablation as an aligned text table."""
    return format_table(rows, (
        ("strategy", "strategy", "-12s"), ("eps", "epsilon", "6.2f"), ("streams", "num_streams", "8d"),
        ("avg err", "average_error", "10.4f"), ("max err", "maximum_error", "10.4f"),
        ("guarantee", "guarantee", "10.4f"),
    ))


def format_propagation_period_rows(rows: Sequence[PropagationPeriodRow]) -> str:
    """Render the propagation-period ablation as an aligned text table."""
    return format_table(rows, (
        ("data", "dataset", "-6s"), ("period (s)", "period", "12.0f"), ("rounds", "rounds", "8d"),
        ("transfer(MB)", "transfer_megabytes", "14.3f"), ("worst stale err", "stale_error", "16.4f"),
    ))


def format_window_model_rows(rows: Sequence[WindowModelRow]) -> str:
    """Render the window-model ablation as an aligned text table."""
    return format_table(rows, (
        ("data", "dataset", "-6s"), ("model", "model", "-12s"), ("window", "window", "14.0f"),
        ("eps", "epsilon", "6.2f"), ("max err", "maximum_error", "10.4f"),
        ("memory(bytes)", "memory_bytes", "14d"), ("ingest(s)", "elapsed_seconds", "10.2f"),
    ))


def format_inner_product_rows(rows: Sequence[InnerProductRow]) -> str:
    """Render the inner-product experiment as an aligned text table."""
    return format_table(rows, (
        ("eps", "epsilon", "6.2f"), ("range (s)", "range_length", "12.0f"), ("exact join", "exact", "14d"),
        ("estimate", "estimate", "14.0f"), ("norm err", "error", "12.5f"),
    ))
