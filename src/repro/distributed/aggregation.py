"""Hierarchical aggregation of ECM-sketches with network-cost accounting.

This module drives the paper's distributed experiments: every leaf site builds
a local ECM-sketch, sketches flow up a balanced aggregation tree, and each
internal vertex merges its children's sketches with the order-preserving
aggregation of Section 5.  The result at the root summarises the union stream
``S_1 (+) ... (+) S_n``.  Every sketch shipped over an edge is charged its
serialised size, which is how we reproduce the transfer-volume axes of
Figures 5 and 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable, Sequence

from ..core.config import ECMConfig
from ..core.ecm_sketch import ECMSketch
from ..core.errors import ConfigurationError
from ..streams.stream import Stream
from ..windows.merge import epsilon_for_levels, multi_level_error
from .node import StreamNode
from .topology import AggregationTree

__all__ = ["AggregationReport", "hierarchical_aggregate", "DistributedDeployment"]


@dataclass
class AggregationReport:
    """Accounting of one full aggregation round.

    Attributes:
        transfer_bytes: Total bytes shipped over tree edges.
        messages: Number of sketches shipped (one per non-root vertex).
        levels: Height of the aggregation tree.
        per_level_bytes: Bytes shipped per tree level (keyed by the level of
            the *sending* vertex).
    """

    transfer_bytes: int = 0
    messages: int = 0
    levels: int = 0
    per_level_bytes: dict[int, int] = field(default_factory=dict)

    def record_shipment(self, level: int, size: int) -> None:
        """Charge one sketch shipment originating at ``level``."""
        self.transfer_bytes += size
        self.messages += 1
        self.per_level_bytes[level] = self.per_level_bytes.get(level, 0) + size

    def transfer_megabytes(self) -> float:
        """Transfer volume in megabytes (the unit of the paper's figures)."""
        return self.transfer_bytes / (1024.0 * 1024.0)


def hierarchical_aggregate(
    sketches: Sequence[ECMSketch],
    tree: AggregationTree | None = None,
    epsilon_prime: float | None = None,
    report: AggregationReport | None = None,
) -> ECMSketch:
    """Aggregate local sketches up a tree, charging per-edge transfer volume.

    Args:
        sketches: Local sketches, one per leaf site, ordered by site id.
        tree: The aggregation topology; defaults to a balanced binary tree
            over ``len(sketches)`` leaves.
        epsilon_prime: Window-error parameter used at every merge step;
            defaults to the inputs' own window error.
        report: Optional accounting object; a fresh one is created (and
            attached to the returned sketch as ``aggregation_report``) when
            omitted.

    Returns:
        The root ECM-sketch summarising the order-preserving union stream.
        The :class:`AggregationReport` is available as its
        ``aggregation_report`` attribute.
    """
    if not sketches:
        raise ConfigurationError("cannot aggregate an empty list of sketches")
    if tree is None:
        tree = AggregationTree(num_leaves=len(sketches))
    if tree.num_leaves != len(sketches):
        raise ConfigurationError(
            "tree has %d leaves but %d sketches were provided"
            % (tree.num_leaves, len(sketches))
        )
    if report is None:
        report = AggregationReport()
    report.levels = tree.height()

    # Sketch currently held at each tree vertex.
    held: dict[int, ECMSketch] = {}
    for leaf in tree.leaves():
        held[leaf.vertex_id] = sketches[leaf.node_id]

    if len(sketches) == 1:
        root_sketch = sketches[0]
        setattr(root_sketch, "aggregation_report", report)
        return root_sketch

    for vertex in tree.internal_vertices():
        children = tree.children_of(vertex.vertex_id)
        child_sketches: list[ECMSketch] = []
        for child in children:
            sketch = held.pop(child.vertex_id)
            # Every child ships its sketch to the vertex that merges it.
            report.record_shipment(child.level, sketch.serialized_bytes())
            child_sketches.append(sketch)
        held[vertex.vertex_id] = ECMSketch.aggregate(child_sketches, epsilon_prime=epsilon_prime)

    root_sketch = held[tree.root_id]
    setattr(root_sketch, "aggregation_report", report)
    return root_sketch


class DistributedDeployment:
    """A simulated distributed deployment: sites, local streams and aggregation.

    The deployment partitions a logical stream across its observation sites
    (using the record's ``node`` attribute), lets every site build a local
    ECM-sketch, and aggregates the sketches up a balanced binary tree — the
    exact setup of the paper's Section 7.3.

    Args:
        num_nodes: Number of observation sites.
        config: Shared ECM-sketch configuration.
        branching: Fan-in of the aggregation tree.
        seed: Seed for the (randomised) staffing of internal tree vertices.

    Example:
        >>> from repro.core import ECMConfig
        >>> from repro.streams import WorldCupSyntheticTrace
        >>> trace = WorldCupSyntheticTrace(num_records=2000, num_nodes=4).generate()
        >>> config = ECMConfig.for_point_queries(epsilon=0.1, delta=0.1, window=1e6)
        >>> deployment = DistributedDeployment(num_nodes=4, config=config)
        >>> deployment.ingest(trace)
        >>> root = deployment.aggregate()
        >>> root.total_arrivals() == len(trace)
        True
    """

    def __init__(
        self,
        num_nodes: int,
        config: ECMConfig,
        branching: int = 2,
        seed: int = 0,
    ) -> None:
        if num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive, got %r" % (num_nodes,))
        self.config = config
        self.nodes: list[StreamNode] = [StreamNode(node_id=i, config=config) for i in range(num_nodes)]
        self.tree = AggregationTree(num_leaves=num_nodes, branching=branching, seed=seed)
        self.last_report: AggregationReport | None = None
        self.last_ingest_report = None  # RunnerReport of the last sharded ingest

    # ---------------------------------------------------------------- update
    @property
    def num_nodes(self) -> int:
        """Number of observation sites."""
        return len(self.nodes)

    def ingest(
        self, stream: Stream, workers: int | None = None, shards: int | None = None
    ) -> None:
        """Route every record of the stream to the site that observed it.

        Records whose ``node`` exceeds the deployment size are assigned by
        modulo, which lets experiments reuse a trace generated for a different
        node count (Figure 6's artificial networks).  Ingestion runs through
        the sharded runner (:mod:`repro.distributed.runner`): sites are
        grouped into shards and fed through the batched fast path.  The
        resulting site sketches are identical to one :meth:`observe` per
        record, whatever ``workers`` and ``shards`` are.

        Args:
            stream: The logical stream to partition across the sites.
            workers: Worker processes; ``None`` or 1 runs in-process, ``>= 2``
                simulates the shards in parallel worker processes.
            shards: Number of shard work units (defaults to ``workers``).
        """
        from .runner import ShardedIngestRunner

        runner = ShardedIngestRunner(self.config, workers=workers, shards=shards)
        runner.ingest(stream, num_nodes=len(self.nodes), nodes=self.nodes)
        self.last_ingest_report = runner.last_report

    def observe(self, node_id: int, key: Hashable, clock: float, value: int = 1) -> None:
        """Feed a single arrival to one site."""
        self.nodes[node_id % len(self.nodes)].observe(key, clock, value)

    # ----------------------------------------------------------- aggregation
    def local_sketches(self) -> list[ECMSketch]:
        """The local sketches of all sites, ordered by site id."""
        return [node.sketch for node in self.nodes]

    def aggregate(self, epsilon_prime: float | None = None) -> ECMSketch:
        """Run one full aggregation round and return the root sketch."""
        report = AggregationReport()
        root = hierarchical_aggregate(
            self.local_sketches(),
            tree=self.tree,
            epsilon_prime=epsilon_prime,
            report=report,
        )
        self.last_report = report
        return root

    # ------------------------------------------------------------ guarantees
    def aggregation_levels(self) -> int:
        """Height of the aggregation tree."""
        return self.tree.height()

    def worst_case_window_error(self) -> float:
        """Theorem 4 / hierarchical bound on the aggregated window error."""
        return multi_level_error(self.config.epsilon_sw, self.aggregation_levels())

    def per_node_epsilon_for_target(self, target_epsilon: float) -> float:
        """Window error each site should use so the root meets ``target_epsilon``."""
        return epsilon_for_levels(target_epsilon, self.aggregation_levels())

    def total_records(self) -> int:
        """Total number of records processed across all sites."""
        return sum(node.records_processed for node in self.nodes)

    def __repr__(self) -> str:
        return "DistributedDeployment(nodes=%d, height=%d, counter=%s)" % (
            len(self.nodes),
            self.tree.height(),
            self.config.counter_type.value,
        )
