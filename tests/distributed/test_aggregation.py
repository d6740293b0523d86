"""Unit tests for hierarchical aggregation and the distributed deployment."""

from __future__ import annotations

import pytest

from repro.analysis import evaluate_point_queries, exponential_query_ranges
from repro.core import CounterType, ECMConfig, ECMSketch
from repro.core.errors import ConfigurationError
from repro.distributed import (
    AggregationReport,
    AggregationTree,
    DistributedDeployment,
    StreamNode,
    hierarchical_aggregate,
)


WINDOW = 100_000.0


def _config(epsilon=0.1, counter_type=CounterType.EXPONENTIAL_HISTOGRAM):
    return ECMConfig.for_point_queries(
        epsilon=epsilon, delta=0.1, window=WINDOW,
        counter_type=counter_type, max_arrivals=20_000,
    )


class TestStreamNode:
    def test_observe_and_query(self):
        node = StreamNode(node_id=0, config=_config())
        node.observe("k", clock=1.0)
        node.observe("k", clock=2.0)
        assert node.records_processed == 2
        assert node.local_point_query("k", now=2.0) >= 2.0
        assert node.local_self_join(now=2.0) >= 4.0

    def test_observe_stream(self, uniform_trace):
        node = StreamNode(node_id=1, config=_config())
        node.observe_stream(uniform_trace)
        assert node.records_processed == len(uniform_trace)
        assert node.upload_bytes() == node.sketch.synopsis_bytes()

    def test_invalid_node_id(self):
        with pytest.raises(ConfigurationError):
            StreamNode(node_id=-1, config=_config())

    def test_repr(self):
        assert "StreamNode" in repr(StreamNode(node_id=0, config=_config()))


class TestHierarchicalAggregate:
    def _local_sketches(self, trace, config, num_nodes):
        sketches = [ECMSketch(config, stream_tag=i) for i in range(num_nodes)]
        for record in trace:
            sketches[record.node % num_nodes].add(record.key, record.timestamp, record.value)
        return sketches

    def test_root_covers_union(self, wc98_trace):
        config = _config()
        sketches = self._local_sketches(wc98_trace, config, 8)
        root = hierarchical_aggregate(sketches)
        assert root.total_arrivals() == len(wc98_trace)
        report = root.aggregation_report
        assert isinstance(report, AggregationReport)
        assert report.messages == 8 + 4 + 2  # binary tree over 8 leaves: 14 shipments
        assert report.levels == 3
        assert report.transfer_bytes > 0
        assert report.transfer_megabytes() == pytest.approx(report.transfer_bytes / 2**20)

    def test_transfer_accounts_every_nonroot_vertex(self, uniform_trace):
        config = _config()
        sketches = self._local_sketches(uniform_trace, config, 5)
        tree = AggregationTree(num_leaves=5)
        report = AggregationReport()
        hierarchical_aggregate(sketches, tree=tree, report=report)
        assert report.messages == len(tree.vertices) - 1
        assert sum(report.per_level_bytes.values()) == report.transfer_bytes

    def test_single_sketch_aggregation_is_identity(self, uniform_trace):
        config = _config()
        sketches = self._local_sketches(uniform_trace, config, 1)
        root = hierarchical_aggregate(sketches)
        assert root is sketches[0]
        assert root.aggregation_report.transfer_bytes == 0

    def test_mismatched_tree_rejected(self, uniform_trace):
        config = _config()
        sketches = self._local_sketches(uniform_trace, config, 4)
        with pytest.raises(ConfigurationError):
            hierarchical_aggregate(sketches, tree=AggregationTree(num_leaves=5))

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            hierarchical_aggregate([])

    def test_root_accuracy_within_hierarchical_bound(self, wc98_trace, wc98_exact):
        epsilon = 0.1
        config = _config(epsilon=epsilon)
        sketches = self._local_sketches(wc98_trace, config, 8)
        root = hierarchical_aggregate(sketches)
        ranges = exponential_query_ranges(WINDOW)
        summary = evaluate_point_queries(
            root, wc98_exact, ranges, now=wc98_trace.end_time(), max_keys_per_range=50
        )
        # Observed error is far below the worst-case multi-level bound; the
        # paper reports < 2x the centralized error, we allow some slack.
        assert summary.average <= epsilon
        assert summary.maximum <= 4 * epsilon


class TestDistributedDeployment:
    def test_ingest_routes_by_node(self, wc98_trace):
        deployment = DistributedDeployment(num_nodes=8, config=_config())
        deployment.ingest(wc98_trace)
        assert deployment.total_records() == len(wc98_trace)
        assert sum(node.records_processed for node in deployment.nodes) == len(wc98_trace)

    def test_node_modulo_mapping(self):
        deployment = DistributedDeployment(num_nodes=2, config=_config())
        deployment.observe(5, "k", clock=1.0)  # node 5 maps to 5 % 2 == 1
        assert deployment.nodes[1].records_processed == 1

    def test_aggregate_produces_report(self, uniform_trace):
        deployment = DistributedDeployment(num_nodes=4, config=_config())
        deployment.ingest(uniform_trace)
        root = deployment.aggregate()
        assert root.total_arrivals() == len(uniform_trace)
        assert deployment.last_report is not None
        assert deployment.last_report.levels == deployment.aggregation_levels() == 2

    def test_error_budget_helpers(self):
        deployment = DistributedDeployment(num_nodes=16, config=_config())
        levels = deployment.aggregation_levels()
        assert levels == 4
        assert deployment.worst_case_window_error() > deployment.config.epsilon_sw
        per_node = deployment.per_node_epsilon_for_target(0.1)
        assert 0 < per_node < 0.1

    def test_invalid_node_count(self):
        with pytest.raises(ConfigurationError):
            DistributedDeployment(num_nodes=0, config=_config())

    def test_randomized_wave_deployment(self, uniform_trace):
        config = _config(epsilon=0.2, counter_type=CounterType.RANDOMIZED_WAVE)
        deployment = DistributedDeployment(num_nodes=4, config=config)
        deployment.ingest(uniform_trace)
        root = deployment.aggregate()
        assert root.total_arrivals() == len(uniform_trace)

    def test_transfer_volume_rw_larger_than_eh(self, uniform_trace):
        """The headline distributed result: RW aggregation costs far more network."""
        eh = DistributedDeployment(num_nodes=4, config=_config(epsilon=0.1))
        rw = DistributedDeployment(
            num_nodes=4, config=_config(epsilon=0.1, counter_type=CounterType.RANDOMIZED_WAVE)
        )
        eh.ingest(uniform_trace)
        rw.ingest(uniform_trace)
        eh.aggregate()
        rw.aggregate()
        assert rw.last_report.transfer_bytes > 5 * eh.last_report.transfer_bytes

    def test_repr(self):
        assert "DistributedDeployment" in repr(DistributedDeployment(num_nodes=2, config=_config()))
