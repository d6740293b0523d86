"""The sharded parallel runner: serial/parallel equivalence and edge cases.

The runner's contract is that a parallel, sharded, batched simulation
produces site sketches — and therefore a root aggregate — serialized
byte-for-byte the same as feeding every record to its site's ``observe``,
one arrival at a time.  The same guarantee extends to the batched stream
paths of the periodic-aggregation coordinator and the geometric monitor.
Every reference below is that explicit per-arrival ``observe`` loop.
"""

from __future__ import annotations

import pytest

from repro.core import CounterType, ECMConfig, ECMSketch
from repro.core.errors import ConfigurationError
from repro.distributed import (
    DistributedDeployment,
    GeometricMonitor,
    PeriodicAggregationCoordinator,
    ShardedIngestRunner,
    StreamNode,
    hierarchical_aggregate,
)
from repro.distributed.runner import plan_shards
from repro.serialization import dumps
from repro.streams.stream import Stream

WINDOW = 100_000.0


@pytest.fixture(scope="module")
def eh_config():
    return ECMConfig.for_point_queries(epsilon=0.15, delta=0.15, window=WINDOW)


@pytest.fixture(scope="module")
def rw_config_small():
    return ECMConfig.for_point_queries(
        epsilon=0.25,
        delta=0.25,
        window=WINDOW,
        counter_type=CounterType.RANDOMIZED_WAVE,
        max_arrivals=20_000,
    )


class TestShardPlanning:
    def test_even_split(self):
        plans = plan_shards(num_nodes=8, shards=4)
        assert [plan.node_ids for plan in plans] == [(0, 1), (2, 3), (4, 5), (6, 7)]

    def test_uneven_split_spreads_remainder(self):
        plans = plan_shards(num_nodes=7, shards=3)
        assert [len(plan.node_ids) for plan in plans] == [3, 2, 2]
        covered = [node for plan in plans for node in plan.node_ids]
        assert covered == list(range(7))

    def test_more_shards_than_nodes_clamps(self):
        plans = plan_shards(num_nodes=2, shards=8)
        assert len(plans) == 2

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            plan_shards(num_nodes=0, shards=1)
        with pytest.raises(ConfigurationError):
            plan_shards(num_nodes=4, shards=0)


class TestRunnerEquivalence:
    def serial_deployment(self, trace, config, num_nodes=8):
        """The reference: one ``observe`` per record, in stream order."""
        deployment = DistributedDeployment(num_nodes=num_nodes, config=config)
        for record in trace:
            deployment.observe(record.node, record.key, record.timestamp, record.value)
        return deployment

    def test_in_process_sharded_ingest_matches_serial(self, wc98_trace, eh_config):
        serial = self.serial_deployment(wc98_trace, eh_config)
        runner = ShardedIngestRunner(eh_config, workers=1, shards=3, batch_size=256)
        nodes = runner.ingest(wc98_trace, num_nodes=8)
        report = runner.last_report
        assert report is not None
        assert report.shards == 3
        assert report.records == len(wc98_trace)
        assert sum(report.per_shard_records) == len(wc98_trace)
        for mine, theirs in zip(nodes, serial.nodes, strict=False):
            assert mine.records_processed == theirs.records_processed
            assert dumps(mine.sketch) == dumps(theirs.sketch)

    def test_default_ingest_matches_serial(self, wc98_trace, eh_config):
        serial = self.serial_deployment(wc98_trace, eh_config)
        deployment = DistributedDeployment(num_nodes=8, config=eh_config)
        deployment.ingest(wc98_trace)
        assert deployment.last_ingest_report is not None
        assert deployment.last_ingest_report.workers == 1
        for mine, theirs in zip(deployment.nodes, serial.nodes, strict=True):
            assert mine.records_processed == theirs.records_processed
            assert dumps(mine.sketch) == dumps(theirs.sketch)
        assert dumps(deployment.aggregate()) == dumps(serial.aggregate())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_repeat_ingest_continues_from_site_state(self, wc98_trace, eh_config, workers):
        # A second ingest into non-empty sites must extend their sketches,
        # in-process and in worker processes alike.
        records = list(wc98_trace)
        half = len(records) // 2
        serial = self.serial_deployment(wc98_trace, eh_config)
        deployment = DistributedDeployment(num_nodes=8, config=eh_config)
        deployment.ingest(Stream(records[:half]), workers=workers)
        deployment.ingest(Stream(records[half:]), workers=workers)
        assert deployment.total_records() == len(records)
        for mine, theirs in zip(deployment.nodes, serial.nodes, strict=True):
            assert mine.records_processed == theirs.records_processed
            assert dumps(mine.sketch) == dumps(theirs.sketch)
        assert deployment.aggregate().total_arrivals() == wc98_trace.total_arrivals()

    def test_parallel_workers_match_serial(self, wc98_trace, eh_config):
        serial = self.serial_deployment(wc98_trace, eh_config)
        parallel = DistributedDeployment(num_nodes=8, config=eh_config)
        parallel.ingest(wc98_trace, workers=2)
        assert parallel.last_ingest_report is not None
        assert parallel.last_ingest_report.workers == 2
        for mine, theirs in zip(parallel.nodes, serial.nodes, strict=False):
            assert dumps(mine.sketch) == dumps(theirs.sketch)
        assert dumps(parallel.aggregate()) == dumps(serial.aggregate())

    def test_parallel_randomized_wave_root_matches_serial(self, wc98_trace, rw_config_small):
        # Randomized waves carry per-site sample state and stream tags; the
        # round-trip through worker processes must preserve all of it.
        serial = self.serial_deployment(wc98_trace, rw_config_small)
        parallel = DistributedDeployment(num_nodes=8, config=rw_config_small)
        runner = ShardedIngestRunner(rw_config_small, workers=2, shards=4, batch_size=128)
        runner.ingest(wc98_trace, num_nodes=8, nodes=parallel.nodes)
        assert dumps(parallel.aggregate()) == dumps(serial.aggregate())

    def test_empty_stream(self, eh_config):
        runner = ShardedIngestRunner(eh_config, workers=1)
        nodes = runner.ingest(Stream([]), num_nodes=4)
        report = runner.last_report
        assert report is not None
        assert report.records == 0
        assert all(node.records_processed == 0 for node in nodes)

    def test_runner_argument_validation(self, eh_config):
        with pytest.raises(ConfigurationError):
            ShardedIngestRunner(eh_config, workers=0)
        with pytest.raises(ConfigurationError):
            ShardedIngestRunner(eh_config, shards=-1)
        with pytest.raises(ConfigurationError):
            ShardedIngestRunner(eh_config, batch_size=0)

    def test_node_list_length_mismatch_rejected(self, wc98_trace, eh_config):
        runner = ShardedIngestRunner(eh_config)
        with pytest.raises(ConfigurationError):
            runner.ingest(wc98_trace, num_nodes=4, nodes=[StreamNode(0, eh_config)])


class TestAggregationTreeEdgeCases:
    def test_empty_tree_rejected(self):
        with pytest.raises(ConfigurationError):
            hierarchical_aggregate([])

    def test_single_site_tree_returns_the_site_sketch(self, eh_config):
        sketch = ECMSketch(eh_config)
        sketch.add("key", 10.0)
        root = hierarchical_aggregate([sketch])
        assert root is sketch
        assert root.aggregation_report.messages == 0
        assert root.aggregation_report.transfer_bytes == 0

    def test_single_site_deployment(self, wc98_trace, eh_config):
        deployment = DistributedDeployment(num_nodes=1, config=eh_config)
        deployment.ingest(wc98_trace, workers=1)
        root = deployment.aggregate()
        assert root.total_arrivals() == sum(record.value for record in wc98_trace)
        assert deployment.last_report is not None
        assert deployment.last_report.transfer_bytes == 0


class TestBatchedProtocolEquivalence:
    def test_periodic_coordinator_batched_matches_scalar(self, wc98_trace, eh_config):
        scalar = PeriodicAggregationCoordinator(num_nodes=4, config=eh_config, period=WINDOW / 8)
        for record in wc98_trace:
            scalar.observe(record.node, record.key, record.timestamp, record.value)
        batched = PeriodicAggregationCoordinator(num_nodes=4, config=eh_config, period=WINDOW / 8)
        batched.observe_stream(wc98_trace, batch_size=512)
        assert batched.stats.rounds == scalar.stats.rounds
        assert batched.stats.round_clocks == scalar.stats.round_clocks
        assert batched.stats.arrivals == scalar.stats.arrivals
        assert batched.stats.transfer_bytes == scalar.stats.transfer_bytes
        assert dumps(batched.root_sketch()) == dumps(scalar.root_sketch())
        for mine, theirs in zip(batched.nodes, scalar.nodes, strict=False):
            assert dumps(mine.sketch) == dumps(theirs.sketch)

    def test_periodic_coordinator_batch_size_validation(self, eh_config, wc98_trace):
        coordinator = PeriodicAggregationCoordinator(num_nodes=2, config=eh_config, period=10.0)
        with pytest.raises(ConfigurationError):
            coordinator.observe_stream(wc98_trace, batch_size=0)

    @pytest.mark.parametrize("check_every", [1, 40, 400])
    def test_geometric_monitor_batched_matches_scalar(self, wc98_trace, eh_config, check_every):
        threshold = 2e5
        scalar = GeometricMonitor(
            num_sites=4, config=eh_config, threshold=threshold, check_every=check_every
        )
        scalar.initialize(now=0.0)
        for record in wc98_trace:
            scalar.observe(record.node, record.key, record.timestamp, record.value)
        batched = GeometricMonitor(
            num_sites=4, config=eh_config, threshold=threshold, check_every=check_every
        )
        batched.initialize(now=0.0)
        batched.observe_stream(wc98_trace, batch_size=256)
        for attribute in (
            "arrivals",
            "constraint_checks",
            "local_violations",
            "synchronizations",
            "messages",
            "transfer_bytes",
        ):
            assert getattr(batched.stats, attribute) == getattr(scalar.stats, attribute)
        assert batched.current_estimate() == scalar.current_estimate()
        for mine, theirs in zip(batched.sites, scalar.sites, strict=False):
            assert dumps(mine.node.sketch) == dumps(theirs.node.sketch)

    def test_geometric_monitor_requires_initialization(self, wc98_trace, eh_config):
        monitor = GeometricMonitor(num_sites=2, config=eh_config, threshold=1e6)
        with pytest.raises(ConfigurationError):
            monitor.observe_stream(wc98_trace, batch_size=64)
