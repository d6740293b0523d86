"""Distributed-setup experiments: Figure 5 and Table 4 (paper Section 7.3).

The servers of each data set (33 world-cup mirrors, 535 SNMP access points)
are placed at the leaves of a balanced binary tree; local ECM-sketches are
aggregated bottom-up, and the root sketch answers point and self-join queries
for the order-preserving union stream.

* Figure 5 plots the observed error of the root sketch against the total
  transfer volume of the aggregation, sweeping epsilon, for ECM-EH and ECM-RW
  (ECM-DW is skipped as in the paper, since it offers no advantage over
  ECM-EH in this setting).
* Table 4 compares the observed error of a centralized sketch against the
  distributed (aggregated) sketch at epsilon in {0.1, 0.2}, reporting the
  degradation ratio caused by iterative aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..analysis.metrics import (
    evaluate_point_queries,
    evaluate_self_join_queries,
    exponential_query_ranges,
)
from ..baselines.exact import ExactStreamSummary
from ..core.config import CounterType, ECMConfig
from ..core.ecm_sketch import ECMSketch
from ..distributed.aggregation import DistributedDeployment
from ..streams.stream import Stream
from ..windows.base import WindowModel
from .common import (
    DEFAULT_DELTA,
    DEFAULT_EPSILONS,
    PAPER_WINDOW_SECONDS,
    VARIANT_LABELS,
    dataset_specs,
    load_dataset,
    max_arrivals_bound,
)

__all__ = [
    "DistributedErrorRow",
    "CentralizedVsDistributedRow",
    "run_distributed_error_experiment",
    "run_centralized_vs_distributed_experiment",
    "format_distributed_rows",
    "format_centralized_vs_distributed_rows",
]


@dataclass
class DistributedErrorRow:
    """One point of Figure 5: observed error vs transfer volume."""

    dataset: str
    variant: str
    query_type: str
    epsilon: float
    num_nodes: int
    transfer_bytes: int
    average_error: float
    maximum_error: float

    @property
    def transfer_megabytes(self) -> float:
        """Transfer volume on the figure's X axis, in megabytes."""
        return self.transfer_bytes / (1024.0 * 1024.0)


@dataclass
class CentralizedVsDistributedRow:
    """One row of Table 4: centralized vs distributed observed error."""

    dataset: str
    variant: str
    query_type: str
    epsilon: float
    centralized_error: float
    distributed_error: float

    @property
    def ratio(self) -> float:
        """Distributed / centralized error ratio (Table 4's "Ratio" column)."""
        if self.centralized_error == 0:
            return float("inf") if self.distributed_error > 0 else 1.0
        return self.distributed_error / self.centralized_error


def _build_config(
    counter_type: CounterType,
    epsilon: float,
    query_type: str,
    window: float,
    max_arrivals: int,
    seed: int,
) -> ECMConfig:
    if query_type == "point" or counter_type is CounterType.RANDOMIZED_WAVE:
        return ECMConfig.for_point_queries(
            epsilon=epsilon,
            delta=DEFAULT_DELTA,
            window=window,
            model=WindowModel.TIME_BASED,
            counter_type=counter_type,
            max_arrivals=max_arrivals,
            seed=seed,
        )
    return ECMConfig.for_inner_product_queries(
        epsilon=epsilon,
        delta=DEFAULT_DELTA,
        window=window,
        model=WindowModel.TIME_BASED,
        counter_type=counter_type,
        max_arrivals=max_arrivals,
        seed=seed,
    )


def _run_deployment(
    stream: Stream,
    num_nodes: int,
    config: ECMConfig,
    workers: int | None = None,
    shards: int | None = None,
) -> DistributedDeployment:
    deployment = DistributedDeployment(num_nodes=num_nodes, config=config)
    # ingest() always runs the sharded runner (in-process when workers is
    # None or 1); the site sketches are identical for every workers/shards.
    deployment.ingest(stream, workers=workers, shards=shards)
    return deployment


def run_distributed_error_experiment(
    dataset: str = "wc98",
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    variants: Sequence[CounterType] | None = None,
    query_types: Sequence[str] = ("point", "self-join"),
    num_records: int | None = None,
    num_nodes: int | None = None,
    window: float = PAPER_WINDOW_SECONDS,
    max_keys_per_range: int | None = 200,
    seed: int = 0,
    workers: int | None = None,
    shards: int | None = None,
) -> list[DistributedErrorRow]:
    """Regenerate Figure 5 for one data set.

    ECM-RW self-join rows are skipped (no guarantee, as in the paper);
    ECM-DW is excluded by default for the same reason the paper excludes it.
    ``workers``/``shards`` spread the sites' simulation over worker
    processes; the measured errors and transfer volumes are identical for
    every setting.
    """
    if variants is None:
        variants = (CounterType.EXPONENTIAL_HISTOGRAM, CounterType.RANDOMIZED_WAVE)
    spec = dataset_specs()[dataset]
    nodes = num_nodes if num_nodes is not None else spec.num_nodes
    stream = load_dataset(dataset, num_records=num_records)
    exact = ExactStreamSummary.from_stream(stream, window=window)
    now = stream.end_time()
    ranges = exponential_query_ranges(window)
    bound = max_arrivals_bound(stream)
    rows: list[DistributedErrorRow] = []
    for query_type in query_types:
        for counter_type in variants:
            if query_type == "self-join" and counter_type is CounterType.RANDOMIZED_WAVE:
                continue
            for epsilon in epsilons:
                config = _build_config(counter_type, epsilon, query_type, window, bound, seed)
                deployment = _run_deployment(stream, nodes, config, workers=workers, shards=shards)
                root = deployment.aggregate()
                report = deployment.last_report
                if query_type == "point":
                    summary = evaluate_point_queries(
                        root, exact, ranges, now=now, max_keys_per_range=max_keys_per_range
                    )
                else:
                    summary = evaluate_self_join_queries(root, exact, ranges, now=now)
                rows.append(
                    DistributedErrorRow(
                        dataset=dataset,
                        variant=VARIANT_LABELS[counter_type],
                        query_type=query_type,
                        epsilon=epsilon,
                        num_nodes=nodes,
                        transfer_bytes=report.transfer_bytes if report else 0,
                        average_error=summary.average,
                        maximum_error=summary.maximum,
                    )
                )
    return rows


def run_centralized_vs_distributed_experiment(
    dataset: str = "wc98",
    epsilons: Sequence[float] = (0.1, 0.2),
    variants: Sequence[CounterType] | None = None,
    query_types: Sequence[str] = ("point", "self-join"),
    num_records: int | None = None,
    num_nodes: int | None = None,
    window: float = PAPER_WINDOW_SECONDS,
    max_keys_per_range: int | None = 200,
    seed: int = 0,
    workers: int | None = None,
    shards: int | None = None,
) -> list[CentralizedVsDistributedRow]:
    """Regenerate Table 4 for one data set."""
    if variants is None:
        variants = (CounterType.EXPONENTIAL_HISTOGRAM, CounterType.RANDOMIZED_WAVE)
    spec = dataset_specs()[dataset]
    nodes = num_nodes if num_nodes is not None else spec.num_nodes
    stream = load_dataset(dataset, num_records=num_records)
    exact = ExactStreamSummary.from_stream(stream, window=window)
    now = stream.end_time()
    ranges = exponential_query_ranges(window)
    bound = max_arrivals_bound(stream)
    rows: list[CentralizedVsDistributedRow] = []
    for query_type in query_types:
        for counter_type in variants:
            if query_type == "self-join" and counter_type is CounterType.RANDOMIZED_WAVE:
                continue
            for epsilon in epsilons:
                config = _build_config(counter_type, epsilon, query_type, window, bound, seed)

                centralized = ECMSketch(config, stream_tag=0)
                for record in stream:
                    centralized.add(record.key, record.timestamp, record.value)

                deployment = _run_deployment(stream, nodes, config, workers=workers, shards=shards)
                distributed = deployment.aggregate()

                if query_type == "point":
                    central_summary = evaluate_point_queries(
                        centralized, exact, ranges, now=now, max_keys_per_range=max_keys_per_range
                    )
                    dist_summary = evaluate_point_queries(
                        distributed, exact, ranges, now=now, max_keys_per_range=max_keys_per_range
                    )
                else:
                    central_summary = evaluate_self_join_queries(centralized, exact, ranges, now=now)
                    dist_summary = evaluate_self_join_queries(distributed, exact, ranges, now=now)
                rows.append(
                    CentralizedVsDistributedRow(
                        dataset=dataset,
                        variant=VARIANT_LABELS[counter_type],
                        query_type=query_type,
                        epsilon=epsilon,
                        centralized_error=central_summary.average,
                        distributed_error=dist_summary.average,
                    )
                )
    return rows


# ------------------------------------------------------------------ reporting
def format_distributed_rows(rows: Sequence[DistributedErrorRow]) -> str:
    """Render Figure 5 rows as an aligned text table."""
    header = "%-6s %-8s %-10s %6s %6s %14s %10s %10s" % (
        "data", "variant", "query", "eps", "nodes", "transfer(MB)", "avg err", "max err",
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "%-6s %-8s %-10s %6.2f %6d %14.3f %10.4f %10.4f"
            % (
                row.dataset,
                row.variant,
                row.query_type,
                row.epsilon,
                row.num_nodes,
                row.transfer_megabytes,
                row.average_error,
                row.maximum_error,
            )
        )
    return "\n".join(lines)


def format_centralized_vs_distributed_rows(rows: Sequence[CentralizedVsDistributedRow]) -> str:
    """Render Table 4 rows as an aligned text table."""
    header = "%-6s %-8s %-10s %6s %12s %12s %8s" % (
        "data", "variant", "query", "eps", "centralized", "distributed", "ratio",
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "%-6s %-8s %-10s %6.2f %12.4f %12.4f %8.3f"
            % (
                row.dataset,
                row.variant,
                row.query_type,
                row.epsilon,
                row.centralized_error,
                row.distributed_error,
                row.ratio,
            )
        )
    return "\n".join(lines)
