"""Sharded, parallel simulation of distributed ECM-sketch deployments.

The paper's distributed experiments (Sections 5 and 7.3) simulate every
observation site inside one Python process, feeding arrivals one record at a
time.  That serial loop caps the reachable deployment size long before the
algorithms do: the sketches themselves compose freely (Theorems 1 and 4), so
nothing about the *simulation* has to be sequential across sites.

This module exploits exactly that independence.  A run is split into three
phases:

1. **Partition** — the logical stream is routed to its observation sites
   (``record.node % num_nodes``, the same rule the serial path uses) and the
   sites are grouped into *shards*, one work unit per shard.
2. **Ingest** — each shard replays its sites' local streams through the
   batched fast path (:meth:`~repro.distributed.node.StreamNode.observe_columns`,
   built on ``ECMSketch.add_many``).  With ``workers >= 2`` the shards run in
   separate OS processes (:class:`concurrent.futures.ProcessPoolExecutor`);
   site state travels back as the explicit wire format of
   :mod:`repro.serialization`, whose round-trip is exact.
3. **Join** — the filled sites feed the usual aggregation machinery
   (:func:`~repro.distributed.aggregation.hierarchical_aggregate`), which
   merges sketches through ``ECMSketch.aggregate``.

Equivalence guarantee: a site's sketch depends only on its own arrival
subsequence, which partitioning preserves in order; the batched ingestion
path is state-identical to per-record ingestion; and the wire format
round-trips exactly.  A parallel run therefore produces sites — and hence a
root sketch — serialized byte-for-byte the same as the serial simulation
(enforced by ``tests/distributed/test_runner.py``).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Hashable
from typing import Any

from ..core.config import ECMConfig
from ..core.errors import ConfigurationError
from ..streams.stream import Stream
from .node import StreamNode

__all__ = ["ShardPlan", "RunnerReport", "ShardedIngestRunner", "run_sharded_ingest"]

#: Default ``add_many`` chunk size used when replaying a site's local stream.
DEFAULT_BATCH_SIZE = 1_024

#: One site's local stream, pivoted into the picklable column layout.
NodeColumns = tuple[list[Hashable], list[float], list[int]]


@dataclass(frozen=True)
class ShardPlan:
    """Assignment of observation sites to one parallel work unit.

    Attributes:
        shard_id: Index of the shard, in ``[0, num_shards)``.
        node_ids: Site identifiers the shard simulates, in ascending order.
    """

    shard_id: int
    node_ids: tuple[int, ...]


@dataclass
class RunnerReport:
    """Accounting of one sharded ingestion run.

    Attributes:
        workers: Worker processes used (1 means in-process execution).
        shards: Number of work units the sites were grouped into.
        records: Total records routed to sites.
        partition_seconds: Time spent routing records to sites.
        ingest_seconds: Time spent replaying local streams (wall clock,
            including process pool dispatch and state transfer).
        per_shard_records: Records handled by each shard.
    """

    workers: int = 1
    shards: int = 1
    records: int = 0
    partition_seconds: float = 0.0
    ingest_seconds: float = 0.0
    per_shard_records: list[int] = field(default_factory=list)

    def records_per_second(self) -> float:
        """Overall ingestion throughput of the run."""
        if self.ingest_seconds <= 0:
            return float("inf")
        return self.records / self.ingest_seconds


def plan_shards(num_nodes: int, shards: int) -> list[ShardPlan]:
    """Group ``num_nodes`` sites into ``shards`` contiguous work units.

    Contiguous blocks (rather than round-robin) keep each shard's sites
    adjacent, which makes the plan easy to reason about in reports; any
    partition works, since sites are independent.
    """
    if num_nodes <= 0:
        raise ConfigurationError("num_nodes must be positive, got %r" % (num_nodes,))
    if shards <= 0:
        raise ConfigurationError("shards must be positive, got %r" % (shards,))
    shards = min(shards, num_nodes)
    base, extra = divmod(num_nodes, shards)
    plans: list[ShardPlan] = []
    start = 0
    for shard_id in range(shards):
        size = base + (1 if shard_id < extra else 0)
        plans.append(ShardPlan(shard_id=shard_id, node_ids=tuple(range(start, start + size))))
        start += size
    return plans


def _partition_columns(stream: Stream, num_nodes: int) -> dict[int, NodeColumns]:
    """Route every record to its site, as per-site column lists.

    Uses the same ``record.node % num_nodes`` rule as
    :meth:`~repro.distributed.aggregation.DistributedDeployment.ingest`, so a
    trace generated for a different node count lands on the same sites.
    """
    columns: dict[int, NodeColumns] = {}
    for record in stream:
        node_id = record.node % num_nodes
        entry = columns.get(node_id)
        if entry is None:
            entry = ([], [], [])
            columns[node_id] = entry
        entry[0].append(record.key)
        entry[1].append(record.timestamp)
        entry[2].append(record.value)
    return columns


def _ingest_shard_payload(
    payload: tuple[dict[str, Any], list[tuple[int, NodeColumns]], int],
) -> list[tuple[int, int, dict[str, Any]]]:
    """Worker entry point: simulate one shard's sites and ship their state.

    Module-level (picklable) by design.  The configuration and the resulting
    sketches cross the process boundary as the explicit dictionaries of
    :mod:`repro.serialization` — the same wire format a real deployment would
    use — so the parent never depends on pickling sketch internals.
    """
    # Imported here as well so the function stays self-contained under spawn
    # start methods (fork inherits the parent's imports anyway).
    from ..serialization import config_from_dict, ecm_sketch_to_dict

    config_payload, node_columns, batch_size = payload
    config = config_from_dict(config_payload)
    results: list[tuple[int, int, dict[str, Any]]] = []
    for node_id, (keys, clocks, values) in node_columns:
        node = StreamNode(node_id=node_id, config=config)
        node.observe_columns(keys, clocks, values, batch_size=batch_size)
        results.append((node_id, node.records_processed, ecm_sketch_to_dict(node.sketch)))
    return results


class ShardedIngestRunner:
    """Replay a logical stream into a deployment's sites, shard by shard.

    Args:
        config: Shared ECM-sketch configuration of all sites.
        workers: Worker processes.  ``None`` or 1 runs every shard in-process
            (no pickling, no pool); ``>= 2`` fans shards out over a process
            pool.
        shards: Work units to split the sites into; defaults to ``workers``.
            More shards than workers simply queue.
        batch_size: ``add_many`` chunk size used when replaying local streams.

    Example:
        >>> from repro.core import ECMConfig
        >>> from repro.streams import WorldCupSyntheticTrace
        >>> trace = WorldCupSyntheticTrace(num_records=500, num_nodes=4).generate()
        >>> config = ECMConfig.for_point_queries(epsilon=0.2, delta=0.2, window=1e6)
        >>> runner = ShardedIngestRunner(config)
        >>> nodes = runner.ingest(trace, num_nodes=4)
        >>> sum(node.records_processed for node in nodes)
        500
    """

    def __init__(
        self,
        config: ECMConfig,
        workers: int | None = None,
        shards: int | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if workers is not None and workers <= 0:
            raise ConfigurationError("workers must be positive, got %r" % (workers,))
        if shards is not None and shards <= 0:
            raise ConfigurationError("shards must be positive, got %r" % (shards,))
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive, got %r" % (batch_size,))
        self.config = config
        self.workers = 1 if workers is None else workers
        self.shards = self.workers if shards is None else shards
        self.batch_size = batch_size
        self.last_report: RunnerReport | None = None

    def ingest(
        self, stream: Stream, num_nodes: int, nodes: list[StreamNode] | None = None
    ) -> list[StreamNode]:
        """Replay ``stream`` into ``num_nodes`` sites and return them.

        Args:
            stream: The logical stream to partition across sites.
            num_nodes: Number of observation sites.
            nodes: Existing (fresh) sites to fill, e.g. a
                :class:`~repro.distributed.aggregation.DistributedDeployment`'s;
                created when omitted.  Parallel runs replace each listed
                site's sketch with the shard-built one.

        Returns:
            The filled sites, ordered by site id.
        """
        from ..serialization import config_to_dict, ecm_sketch_from_dict

        if nodes is None:
            nodes = [StreamNode(node_id=i, config=self.config) for i in range(num_nodes)]
        elif len(nodes) != num_nodes:
            raise ConfigurationError(
                "%d nodes were provided for a %d-site run" % (len(nodes), num_nodes)
            )
        report = RunnerReport(workers=self.workers, records=len(stream))
        started = time.perf_counter()
        columns = _partition_columns(stream, num_nodes)
        report.partition_seconds = time.perf_counter() - started

        plans = plan_shards(num_nodes, self.shards)
        report.shards = len(plans)
        shard_work: list[list[tuple[int, NodeColumns]]] = []
        for plan in plans:
            work = [
                (node_id, columns[node_id]) for node_id in plan.node_ids if node_id in columns
            ]
            shard_work.append(work)
            report.per_shard_records.append(sum(len(entry[1][0]) for entry in work))

        ingest_started = time.perf_counter()
        if self.workers <= 1:
            for work in shard_work:
                for node_id, (keys, clocks, values) in work:
                    nodes[node_id].observe_columns(
                        keys, clocks, values, batch_size=self.batch_size
                    )
        else:
            config_payload = config_to_dict(self.config)
            payloads = [
                (config_payload, work, self.batch_size) for work in shard_work if work
            ]
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                for shard_results in pool.map(_ingest_shard_payload, payloads):
                    for node_id, processed, sketch_payload in shard_results:
                        node = nodes[node_id]
                        node.sketch = ecm_sketch_from_dict(sketch_payload)
                        node.records_processed += processed
        report.ingest_seconds = time.perf_counter() - ingest_started
        self.last_report = report
        return nodes


def run_sharded_ingest(
    stream: Stream,
    num_nodes: int,
    config: ECMConfig,
    workers: int | None = None,
    shards: int | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    nodes: list[StreamNode] | None = None,
) -> tuple[list[StreamNode], RunnerReport]:
    """Convenience wrapper: build a runner, ingest, return sites and report."""
    runner = ShardedIngestRunner(
        config, workers=workers, shards=shards, batch_size=batch_size
    )
    filled = runner.ingest(stream, num_nodes=num_nodes, nodes=nodes)
    assert runner.last_report is not None
    return filled, runner.last_report
