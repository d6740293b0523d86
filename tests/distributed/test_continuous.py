"""Unit tests for the periodic-propagation continuous-query coordinator."""

from __future__ import annotations

import pytest

from repro.baselines import ExactStreamSummary
from repro.core import ECMConfig
from repro.core.errors import ConfigurationError, EmptyStructureError
from repro.distributed import PeriodicAggregationCoordinator


WINDOW = 100_000.0


def _config(epsilon=0.1):
    return ECMConfig.for_point_queries(epsilon=epsilon, delta=0.1, window=WINDOW)


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PeriodicAggregationCoordinator(num_nodes=0, config=_config(), period=10.0)
        with pytest.raises(ConfigurationError):
            PeriodicAggregationCoordinator(num_nodes=2, config=_config(), period=0.0)

    def test_queries_before_first_round_rejected(self):
        coordinator = PeriodicAggregationCoordinator(num_nodes=2, config=_config(), period=10.0)
        with pytest.raises(EmptyStructureError):
            coordinator.root_sketch()
        with pytest.raises(EmptyStructureError):
            coordinator.staleness(now=5.0)

    def test_repr(self):
        coordinator = PeriodicAggregationCoordinator(num_nodes=2, config=_config(), period=10.0)
        assert "PeriodicAggregationCoordinator" in repr(coordinator)


class TestRounds:
    def test_rounds_triggered_by_period(self):
        coordinator = PeriodicAggregationCoordinator(num_nodes=2, config=_config(), period=100.0)
        coordinator.observe(0, "x", clock=0.0)        # arms the first deadline at t=100
        assert coordinator.stats.rounds == 0
        triggered = coordinator.observe(1, "x", clock=150.0)
        assert triggered
        assert coordinator.stats.rounds == 1
        assert coordinator.last_round_clock == 150.0
        # Next deadline is 250; an arrival at 200 must not trigger.
        assert not coordinator.observe(0, "x", clock=200.0)
        assert coordinator.observe(1, "x", clock=260.0)
        assert coordinator.stats.rounds == 2

    def test_round_count_scales_with_period(self, uniform_trace):
        fast = PeriodicAggregationCoordinator(num_nodes=4, config=_config(), period=1_000.0)
        slow = PeriodicAggregationCoordinator(num_nodes=4, config=_config(), period=20_000.0)
        fast.observe_stream(uniform_trace)
        slow.observe_stream(uniform_trace)
        assert fast.stats.rounds > slow.stats.rounds
        assert fast.stats.transfer_bytes > slow.stats.transfer_bytes

    def test_transfer_accounted_per_round(self, uniform_trace):
        coordinator = PeriodicAggregationCoordinator(num_nodes=4, config=_config(), period=5_000.0)
        coordinator.observe_stream(uniform_trace)
        assert coordinator.stats.rounds >= 2
        assert coordinator.stats.messages == coordinator.stats.rounds * (
            len(coordinator.tree.vertices) - 1
        )
        assert len(coordinator.stats.round_clocks) == coordinator.stats.rounds
        assert coordinator.stats.transfer_megabytes() > 0

    def test_manual_round(self):
        coordinator = PeriodicAggregationCoordinator(num_nodes=2, config=_config(), period=1e9)
        coordinator.observe(0, "x", clock=1.0)
        root = coordinator.run_round(now=2.0)
        assert root.total_arrivals() == 1
        assert coordinator.staleness(now=10.0) == 8.0


class TestQueries:
    def test_answers_match_root_sketch(self, uniform_trace):
        coordinator = PeriodicAggregationCoordinator(num_nodes=4, config=_config(), period=10_000.0)
        coordinator.observe_stream(uniform_trace)
        coordinator.run_round(now=uniform_trace.end_time())
        exact = ExactStreamSummary.from_stream(uniform_trace, window=WINDOW)
        now = uniform_trace.end_time()
        arrivals = exact.arrivals(now=now)
        for key in list(exact.frequencies_in_range(None, now))[:20]:
            estimate = coordinator.query_frequency(key)
            truth = exact.frequency(key, now=now)
            assert abs(estimate - truth) <= 0.3 * arrivals + 1
        self_join = coordinator.query_self_join()
        assert abs(self_join - exact.self_join(now=now)) <= 0.3 * arrivals ** 2 + 1

    def test_staleness_bounded_by_period(self, uniform_trace):
        period = 5_000.0
        coordinator = PeriodicAggregationCoordinator(num_nodes=4, config=_config(), period=period)
        max_staleness = 0.0
        started = False
        for record in uniform_trace:
            coordinator.observe(record.node, record.key, record.timestamp, record.value)
            if coordinator.stats.rounds > 0:
                started = True
                max_staleness = max(max_staleness, coordinator.staleness(record.timestamp))
        assert started
        # Staleness can exceed the period only by the gap to the next arrival,
        # which for this trace is far smaller than one period.
        assert max_staleness <= 2 * period
