"""Network-size experiment: Figure 6 (paper Section 7.3).

The paper simulates artificial networks of 1, 2, 4, ..., 256 servers, placing
them at the leaves of a balanced binary tree and dividing the requests
uniformly across them.  For ``epsilon = delta = 0.1`` it reports, per network
size, (a) the average observed error of point and self-join queries at the
root and (b) the transfer volume of the aggregation round, for ECM-EH and
ECM-RW sketches.  The expected shape: ECM-EH error grows slowly with the
number of aggregation levels while ECM-RW error is flat (lossless merge), and
ECM-RW transfer volume is roughly an order of magnitude larger.
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
from ..distributed.aggregation import DistributedDeployment
from ..windows.base import WindowModel
from .common import (
    DEFAULT_DELTA,
    PAPER_WINDOW_SECONDS,
    VARIANT_LABELS,
    load_dataset,
    max_arrivals_bound,
)

__all__ = ["NetworkSizeRow", "run_network_size_experiment", "format_network_size_rows"]

#: Paper's artificial network sizes.
DEFAULT_NETWORK_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass
class NetworkSizeRow:
    """One point of Figure 6: error and transfer volume at one network size."""

    dataset: str
    variant: str
    num_nodes: int
    epsilon: float
    point_average_error: float
    self_join_average_error: float | None
    transfer_bytes: int
    aggregation_levels: int

    @property
    def transfer_megabytes(self) -> float:
        """Transfer volume in megabytes."""
        return self.transfer_bytes / (1024.0 * 1024.0)


def run_network_size_experiment(
    dataset: str = "wc98",
    network_sizes: Sequence[int] = DEFAULT_NETWORK_SIZES,
    variants: Sequence[CounterType] | None = None,
    epsilon: float = 0.1,
    num_records: int | None = None,
    window: float = PAPER_WINDOW_SECONDS,
    max_keys_per_range: int | None = 200,
    seed: int = 0,
    workers: int | None = None,
    shards: int | None = None,
) -> list[NetworkSizeRow]:
    """Regenerate Figure 6 for one data set.

    ``workers``/``shards`` spread every simulated network's ingest over
    worker processes (identical results for every setting), which is what
    makes the larger artificial networks tractable.
    """
    if variants is None:
        variants = (CounterType.EXPONENTIAL_HISTOGRAM, CounterType.RANDOMIZED_WAVE)
    stream = load_dataset(dataset, num_records=num_records)
    exact = ExactStreamSummary.from_stream(stream, window=window)
    now = stream.end_time()
    ranges = exponential_query_ranges(window)
    bound = max_arrivals_bound(stream)
    rows: list[NetworkSizeRow] = []
    for counter_type in variants:
        config = ECMConfig.for_point_queries(
            epsilon=epsilon,
            delta=DEFAULT_DELTA,
            window=window,
            model=WindowModel.TIME_BASED,
            counter_type=counter_type,
            max_arrivals=bound,
            seed=seed,
        )
        for size in network_sizes:
            uniform = stream.reassign_round_robin(size)
            deployment = DistributedDeployment(num_nodes=size, config=config)
            deployment.ingest(uniform, workers=workers, shards=shards)
            root = deployment.aggregate()
            report = deployment.last_report
            point_summary = evaluate_point_queries(
                root, exact, ranges, now=now, max_keys_per_range=max_keys_per_range
            )
            if counter_type is CounterType.RANDOMIZED_WAVE:
                self_join_error: float | None = None
            else:
                self_join_error = evaluate_self_join_queries(root, exact, ranges, now=now).average
            rows.append(
                NetworkSizeRow(
                    dataset=dataset,
                    variant=VARIANT_LABELS[counter_type],
                    num_nodes=size,
                    epsilon=epsilon,
                    point_average_error=point_summary.average,
                    self_join_average_error=self_join_error,
                    transfer_bytes=report.transfer_bytes if report else 0,
                    aggregation_levels=deployment.aggregation_levels(),
                )
            )
    return rows


def format_network_size_rows(rows: Sequence[NetworkSizeRow]) -> str:
    """Render Figure 6 rows as an aligned text table."""
    header = "%-6s %-8s %6s %6s %10s %12s %14s %7s" % (
        "data", "variant", "nodes", "eps", "point err", "selfjoin err", "transfer(MB)", "levels",
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        self_join = "%12.4f" % row.self_join_average_error if row.self_join_average_error is not None else "%12s" % "n/a"
        lines.append(
            "%-6s %-8s %6d %6.2f %10.4f %s %14.3f %7d"
            % (
                row.dataset,
                row.variant,
                row.num_nodes,
                row.epsilon,
                row.point_average_error,
                self_join,
                row.transfer_megabytes,
                row.aggregation_levels,
            )
        )
    return "\n".join(lines)
