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
from typing import ClassVar

from ..analysis.metrics import evaluate_queries, exponential_query_ranges
from ..analysis.reporting import format_table
from ..baselines.exact import ExactStreamSummary
from ..core.config import CounterType, ECMConfig
from ..core.ecm_sketch import ECMSketch
from ..distributed.aggregation import DistributedDeployment
from ..streams.stream import Stream
from .common import (
    DEFAULT_EPSILONS,
    PAPER_WINDOW_SECONDS,
    VARIANT_LABELS,
    dataset_specs,
    experiment_config,
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
    """One point of Figure 5: observed error vs transfer volume.

    ``guarantee`` is the root sketch's normalised error bound, which carries
    the Theorem 4 growth of every aggregation level.
    """

    experiment: ClassVar[str] = "figure5"
    dataset: str
    variant: str
    query_type: str
    epsilon: float
    num_nodes: int
    transfer_bytes: int
    average_error: float
    maximum_error: float
    guarantee: float

    @property
    def transfer_megabytes(self) -> float:
        """Transfer volume on the figure's X axis, in megabytes."""
        return self.transfer_bytes / (1024.0 * 1024.0)


@dataclass
class CentralizedVsDistributedRow:
    """One row of Table 4: centralized vs distributed observed error."""

    experiment: ClassVar[str] = "table4"
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


def _guarantee(root: ECMSketch, query_type: str) -> float:
    """The aggregated sketch's normalised error bound (Theorems 1/2 with the
    Theorem 4 growth of its window error, which the sketch tracks)."""
    if query_type == "point":
        return root.point_error_bound(1.0)
    return root.inner_product_error_bound(1.0, 1.0)


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
                config = experiment_config(counter_type, epsilon, window, bound, query_type, seed)
                deployment = _run_deployment(stream, nodes, config, workers=workers, shards=shards)
                root = deployment.aggregate()
                report = deployment.last_report
                summary = evaluate_queries(root, exact, query_type, ranges, now, max_keys_per_range)
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
                        guarantee=_guarantee(root, query_type),
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
                config = experiment_config(counter_type, epsilon, window, bound, query_type, seed)

                centralized = ECMSketch(config, stream_tag=0)
                for record in stream:
                    centralized.add(record.key, record.timestamp, record.value)

                deployment = _run_deployment(stream, nodes, config, workers=workers, shards=shards)
                distributed = deployment.aggregate()
                central_summary, dist_summary = (
                    evaluate_queries(sketch, exact, query_type, ranges, now, max_keys_per_range)
                    for sketch in (centralized, distributed)
                )
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
    return format_table(rows, (
        ("data", "dataset", "-6s"), ("variant", "variant", "-8s"), ("query", "query_type", "-10s"),
        ("eps", "epsilon", "6.2f"), ("nodes", "num_nodes", "6d"),
        ("transfer(MB)", "transfer_megabytes", "14.3f"), ("avg err", "average_error", "10.4f"),
        ("max err", "maximum_error", "10.4f"), ("guarantee", "guarantee", "10.4f"),
    ))


def format_centralized_vs_distributed_rows(rows: Sequence[CentralizedVsDistributedRow]) -> str:
    """Render Table 4 rows as an aligned text table."""
    return format_table(rows, (
        ("data", "dataset", "-6s"), ("variant", "variant", "-8s"), ("query", "query_type", "-10s"),
        ("eps", "epsilon", "6.2f"), ("centralized", "centralized_error", "12.4f"),
        ("distributed", "distributed_error", "12.4f"), ("ratio", "ratio", "8.3f"),
    ))
