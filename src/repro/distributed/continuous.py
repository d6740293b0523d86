"""Continuous distributed queries via periodic sketch propagation.

The geometric method (:mod:`repro.distributed.geometric`) answers *threshold*
queries with event-driven communication.  Many deployments instead need the
coordinator to answer arbitrary sliding-window queries *at any time* — the
continuous-query setting that the paper's related work (Chan et al.) addresses
by scheduling the propagation of local synopses.  This module provides that
complementary mode: every site keeps its local ECM-sketch, and the coordinator
re-aggregates the sketches on a fixed period of stream time.  Between rounds
the coordinator answers queries from the most recent aggregate, so its answers
are stale by at most one period plus the usual sketch error.

The class tracks both sides of the trade-off — cumulative transfer volume and
observed staleness — so the period can be chosen quantitatively (see
``benchmarks/bench_ablation_propagation_period.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable, Sequence

from ..core.config import ECMConfig
from ..core.ecm_sketch import ECMSketch
from ..core.errors import ConfigurationError, EmptyStructureError
from ..streams.stream import Stream
from .aggregation import AggregationReport, hierarchical_aggregate
from .node import DEFAULT_BATCH_SIZE, StreamNode, observe_partitioned
from .topology import AggregationTree

__all__ = ["PropagationStats", "PeriodicAggregationCoordinator"]


@dataclass
class PropagationStats:
    """Accounting of a periodic-propagation run."""

    arrivals: int = 0
    rounds: int = 0
    transfer_bytes: int = 0
    messages: int = 0
    round_clocks: list[float] = field(default_factory=list)

    def transfer_megabytes(self) -> float:
        """Cumulative transfer volume in megabytes."""
        return self.transfer_bytes / (1024.0 * 1024.0)


class PeriodicAggregationCoordinator:
    """Answer continuous sliding-window queries from periodically aggregated sketches.

    Args:
        num_nodes: Number of observation sites.
        config: Shared ECM-sketch configuration.
        period: Aggregation period, in stream-clock units.  Smaller periods
            mean fresher answers and more communication.
        branching: Fan-in of the aggregation tree.
        seed: Seed for the tree construction.

    Example:
        >>> from repro.core import ECMConfig
        >>> config = ECMConfig.for_point_queries(epsilon=0.2, delta=0.2, window=1000.0)
        >>> coordinator = PeriodicAggregationCoordinator(num_nodes=2, config=config, period=10.0)
        >>> coordinator.observe(0, "x", clock=1.0)    # arms the first round at t=11
        False
        >>> coordinator.observe(1, "x", clock=12.0)   # crosses t=11: triggers a round
        True
        >>> coordinator.stats.rounds
        1
    """

    def __init__(
        self,
        num_nodes: int,
        config: ECMConfig,
        period: float,
        branching: int = 2,
        seed: int = 0,
    ) -> None:
        if num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive, got %r" % (num_nodes,))
        if period <= 0:
            raise ConfigurationError("period must be positive, got %r" % (period,))
        self.config = config
        self.period = float(period)
        self.nodes: list[StreamNode] = [StreamNode(node_id=i, config=config) for i in range(num_nodes)]
        self.tree = AggregationTree(num_leaves=num_nodes, branching=branching, seed=seed)
        self.stats = PropagationStats()
        self._root: ECMSketch | None = None
        self._last_round_clock: float | None = None
        self._next_round_clock: float | None = None

    # ---------------------------------------------------------------- updates
    @property
    def num_nodes(self) -> int:
        """Number of observation sites."""
        return len(self.nodes)

    def observe(self, node_id: int, key: Hashable, clock: float, value: int = 1) -> bool:
        """Route one arrival to its site; aggregate when the period elapses.

        Returns:
            True when this arrival triggered an aggregation round.
        """
        self.nodes[node_id % len(self.nodes)].observe(key, clock, value)
        self.stats.arrivals += 1
        if self._next_round_clock is None:
            self._next_round_clock = clock + self.period
            return False
        if clock >= self._next_round_clock:
            self.run_round(now=clock)
            return True
        return False

    def observe_stream(self, stream: Stream, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        """Process a whole stream in order, routing each record to its site.

        Rounds, stats and query answers are identical to one :meth:`observe`
        per record; see :meth:`observe_columns`.
        """
        keys, clocks, values = stream.columns()
        sites = [record.node for record in stream]
        self.observe_columns(sites, keys, clocks, values, batch_size)

    def observe_columns(
        self,
        sites: Sequence[int],
        keys: Sequence[Hashable],
        clocks: Sequence[float],
        values: Sequence[int] | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        """Process one in-order run of arrivals, preserving round semantics.

        This is the batched core of :meth:`observe_stream` and the ingest
        path of the live sketch service (:mod:`repro.service`), which feeds
        the coordinator one site's micro-batch at a time.  The arrivals
        between two rounds reach their sites through
        :meth:`~repro.distributed.node.StreamNode.observe_columns`, and
        aggregation rounds fire at exactly the stream clocks where one
        :meth:`observe` per arrival would fire them, regardless of
        ``batch_size``.

        Args:
            sites: The observing site of every arrival.
            keys: Item keys, in stream order.
            clocks: Clock values, one per key.
            values: Optional per-arrival weights (defaults to 1 each).
            batch_size: ``add_many`` chunk size of the sites.
        """
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive, got %r" % (batch_size,))
        position = 0
        total = len(keys)
        while position < total:
            next_round = self._next_round_clock
            if next_round is None:
                # First arrival: observe() establishes the round schedule.
                self.observe(
                    sites[position],
                    keys[position],
                    clocks[position],
                    1 if values is None else values[position],
                )
                position += 1
                continue
            # Extend the segment up to the arrival that crosses the round
            # boundary: it is observed *before* the round runs.
            boundary = next(
                (index for index in range(position, total) if clocks[index] >= next_round),
                None,
            )
            stop = total if boundary is None else boundary + 1
            observe_partitioned(
                self.nodes,
                sites[position:stop],
                keys[position:stop],
                clocks[position:stop],
                None if values is None else values[position:stop],
                batch_size,
            )
            self.stats.arrivals += stop - position
            if boundary is not None:
                self.run_round(now=clocks[boundary])
            position = stop

    # ----------------------------------------------------------------- rounds
    def run_round(self, now: float) -> ECMSketch:
        """Aggregate the current local sketches into a fresh root sketch.

        Before shipping, every site sweeps its whole counter grid with
        :meth:`~repro.core.ecm_sketch.ECMSketch.expire` (one vectorized pass
        on the columnar layout).  Counters only expire lazily on their own
        update path, so a site whose keys went quiet would otherwise ship
        buckets that left the window long ago — dead weight in both transfer
        volume and merge work.  Dropping them cannot change any answer the
        coordinator serves: its queries end at the round clock ``now``, and
        the swept buckets lie entirely outside ``(now - N, now]``.
        """
        for node in self.nodes:
            node.sketch.expire(now)
        report = AggregationReport()
        root = hierarchical_aggregate(
            [node.sketch for node in self.nodes], tree=self.tree, report=report
        )
        self._root = root
        self._last_round_clock = now
        self._next_round_clock = now + self.period
        self.stats.rounds += 1
        self.stats.transfer_bytes += report.transfer_bytes
        self.stats.messages += report.messages
        self.stats.round_clocks.append(now)
        return root

    # ---------------------------------------------------------------- queries
    @property
    def last_round_clock(self) -> float | None:
        """Stream clock of the most recent aggregation round."""
        return self._last_round_clock

    def staleness(self, now: float) -> float:
        """How far the coordinator's view lags the stream, in clock units."""
        if self._last_round_clock is None:
            raise EmptyStructureError("no aggregation round has completed yet")
        return max(0.0, now - self._last_round_clock)

    def root_sketch(self) -> ECMSketch:
        """The most recent aggregated sketch."""
        if self._root is None:
            raise EmptyStructureError("no aggregation round has completed yet")
        return self._root

    def query_frequency(
        self, key: Hashable, range_length: float | None = None
    ) -> float:
        """Sliding-window frequency of ``key`` as of the last aggregation round."""
        root = self.root_sketch()
        return root.point_query(key, range_length, now=self._last_round_clock)

    def query_self_join(self, range_length: float | None = None) -> float:
        """Sliding-window self-join size as of the last aggregation round."""
        root = self.root_sketch()
        return root.self_join(range_length, now=self._last_round_clock)

    def __repr__(self) -> str:
        return "PeriodicAggregationCoordinator(nodes=%d, period=%g, rounds=%d)" % (
            len(self.nodes),
            self.period,
            self.stats.rounds,
        )
