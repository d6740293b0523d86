"""Stream nodes: the local sites of a distributed deployment.

Each node (a web-server mirror, a wireless access point, a NetFlow router...)
observes its own local stream and maintains a local ECM-sketch.  Nodes are the
leaves of the aggregation hierarchy built in
:mod:`repro.distributed.topology`, and the participants of the geometric
monitoring protocol in :mod:`repro.distributed.geometric`.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from itertools import repeat

from ..core.config import ECMConfig
from ..core.ecm_sketch import ECMSketch
from ..core.errors import ConfigurationError
from ..streams.stream import Stream

__all__ = ["StreamNode"]

#: Default ``add_many`` chunk size of the batched ingest paths.
DEFAULT_BATCH_SIZE = 1_024

#: One site's arrivals, pivoted into parallel (keys, clocks, values) lists.
NodeColumns = tuple[list[Hashable], list[float], list[int]]


def partition_columns(
    sites: Sequence[int],
    keys: Sequence[Hashable],
    clocks: Sequence[float],
    values: Sequence[int] | None,
    num_nodes: int,
) -> dict[int, NodeColumns]:
    """Route arrivals to their sites, as per-site columns in stream order.

    Arrival ``i`` lands on site ``sites[i] % num_nodes``, so a trace generated
    for a different node count still lands on valid sites.  ``values``
    defaults to 1 per arrival.
    """
    columns: dict[int, NodeColumns] = {}
    weights = repeat(1) if values is None else values
    for site, key, clock, value in zip(sites, keys, clocks, weights):
        node_id = site % num_nodes
        entry = columns.get(node_id)
        if entry is None:
            entry = columns[node_id] = ([], [], [])
        entry[0].append(key)
        entry[1].append(clock)
        entry[2].append(value)
    return columns


class StreamNode:
    """A site that observes one local stream and maintains a local ECM-sketch.

    Args:
        node_id: Unique identifier of the node (also used as the randomized
            wave stream tag so that distributed samples stay distinct).
        config: ECM-sketch configuration; all nodes of a deployment must share
            the same configuration for their sketches to be mergeable.
    """

    def __init__(self, node_id: int, config: ECMConfig) -> None:
        if node_id < 0:
            raise ConfigurationError("node_id must be non-negative, got %r" % (node_id,))
        self.node_id = node_id
        self.config = config
        self.sketch = ECMSketch(config, stream_tag=node_id)
        self.records_processed = 0

    # ---------------------------------------------------------------- update
    def observe(self, key: Hashable, clock: float, value: int = 1) -> None:
        """Process one local arrival."""
        self.sketch.add(key, clock, value)
        self.records_processed += 1

    def observe_stream(self, stream: Stream, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        """Process every record of a local stream in order, through the batched path.

        The resulting sketch state is identical to one :meth:`observe` per
        record, only faster.
        """
        keys, clocks, values = stream.columns()
        self.observe_columns(keys, clocks, values, batch_size)

    def observe_columns(
        self,
        keys: Sequence[Hashable],
        clocks: Sequence[float],
        values: Sequence[int] | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        """Process pre-pivoted parallel columns through the batched path.

        This is the ingestion seam of every simulated site: the sharded
        runner (:mod:`repro.distributed.runner`), whose worker processes
        receive each node's local stream as plain (keys, clocks, values)
        lists — the cheapest layout to pickle — and the periodic-aggregation
        coordinator both feed it.  The resulting sketch state is identical to
        one :meth:`observe` per arrival.

        Args:
            keys: Item keys, in stream order.
            clocks: Non-decreasing clock values, one per key.
            values: Optional per-arrival weights (defaults to 1 each).
            batch_size: Chunk size for ``add_many``.
        """
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive, got %r" % (batch_size,))
        total = len(keys)
        for start in range(0, total, batch_size):
            stop = start + batch_size
            # add_many itself routes all-unit weights onto the counts-free path.
            self.sketch.add_many(
                keys[start:stop],
                clocks[start:stop],
                None if values is None else values[start:stop],
            )
        self.records_processed += total

    # --------------------------------------------------------------- queries
    def local_point_query(
        self, key: Hashable, range_length: float | None = None, now: float | None = None
    ) -> float:
        """Point query against the node's local sketch only."""
        return self.sketch.point_query(key, range_length, now)

    def local_self_join(
        self, range_length: float | None = None, now: float | None = None
    ) -> float:
        """Self-join query against the node's local sketch only."""
        return self.sketch.self_join(range_length, now)

    # ------------------------------------------------------------ networking
    def snapshot(self) -> ECMSketch:
        """The sketch the node would ship upstream during an aggregation round."""
        return self.sketch

    def upload_bytes(self) -> int:
        """Bytes this node transfers when shipping its sketch upstream."""
        return self.sketch.serialized_bytes()

    def __repr__(self) -> str:
        return "StreamNode(id=%d, records=%d, counter=%s)" % (
            self.node_id,
            self.records_processed,
            self.config.counter_type.value,
        )


def observe_partitioned(
    nodes: Sequence[StreamNode],
    sites: Sequence[int],
    keys: Sequence[Hashable],
    clocks: Sequence[float],
    values: Sequence[int] | None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> None:
    """Feed a run of arrivals to ``nodes``, arrival ``i`` to ``sites[i] % len(nodes)``.

    Each node receives its own arrivals, in stream order, through
    :meth:`StreamNode.observe_columns`, so its state is identical to one
    :meth:`StreamNode.observe` per arrival.
    """
    per_node = partition_columns(sites, keys, clocks, values, len(nodes))
    for node_id, (node_keys, node_clocks, node_values) in per_node.items():
        nodes[node_id].observe_columns(node_keys, node_clocks, node_values, batch_size)
