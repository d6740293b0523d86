"""Unit tests for order-preserving aggregation of ECM-sketches (Section 5.3)."""

from __future__ import annotations

import pytest

from repro.baselines import ExactStreamSummary
from repro.core import CounterType, ECMConfig, ECMSketch
from repro.core.errors import ConfigurationError, IncompatibleSketchError, WindowModelError
from repro.windows import WindowModel


WINDOW = 100_000.0


def _partition_and_feed(trace, config, num_parts):
    """Build one local sketch per partition of the trace (by record.node)."""
    sketches = [ECMSketch(config, stream_tag=i) for i in range(num_parts)]
    for record in trace:
        sketches[record.node % num_parts].add(record.key, record.timestamp, record.value)
    return sketches


class TestAggregationBasics:
    def test_total_arrivals_preserved(self, wc98_trace):
        config = ECMConfig.for_point_queries(epsilon=0.1, delta=0.1, window=WINDOW)
        sketches = _partition_and_feed(wc98_trace, config, 4)
        merged = ECMSketch.aggregate(sketches)
        assert merged.total_arrivals() == len(wc98_trace)

    def test_last_clock_is_max(self, wc98_trace):
        config = ECMConfig.for_point_queries(epsilon=0.1, delta=0.1, window=WINDOW)
        sketches = _partition_and_feed(wc98_trace, config, 4)
        merged = ECMSketch.aggregate(sketches)
        assert merged.last_clock == pytest.approx(wc98_trace.end_time())

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            ECMSketch.aggregate([])

    def test_incompatible_dimensions_rejected(self):
        a = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=WINDOW, seed=1)
        b = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=WINDOW, seed=2)
        with pytest.raises(IncompatibleSketchError):
            ECMSketch.aggregate([a, b])

    def test_count_based_deterministic_aggregation_rejected(self):
        """The paper proves order-preserving aggregation is impossible for
        count-based deterministic synopses (Section 5.1, Figure 2)."""
        config = ECMConfig.for_point_queries(
            epsilon=0.1, delta=0.1, window=1_000, model=WindowModel.COUNT_BASED
        )
        sketches = [ECMSketch(config, stream_tag=i) for i in range(2)]
        for sketch in sketches:
            sketch.add("x", clock=1.0)
        with pytest.raises(WindowModelError):
            ECMSketch.aggregate(sketches)


class TestAggregationAccuracy:
    @pytest.mark.parametrize("num_parts", [2, 4, 8])
    def test_point_queries_within_inflated_bound(self, wc98_trace, wc98_exact, num_parts):
        epsilon = 0.1
        config = ECMConfig.for_point_queries(epsilon=epsilon, delta=0.1, window=WINDOW)
        sketches = _partition_and_feed(wc98_trace, config, num_parts)
        merged = ECMSketch.aggregate(sketches)
        now = wc98_trace.end_time()
        # One aggregation step: window error inflates per Theorem 4; total
        # budget becomes roughly 2*eps (plus hashing error).
        bound = 3 * epsilon
        for range_length in (10_000.0, WINDOW):
            arrivals = wc98_exact.arrivals(range_length, now)
            frequencies = wc98_exact.frequencies_in_range(range_length, now)
            for key in list(frequencies)[:40]:
                estimate = merged.point_query(key, range_length, now=now)
                assert abs(estimate - frequencies[key]) <= bound * arrivals + 1.0

    def test_aggregated_error_tracked(self):
        config = ECMConfig.for_point_queries(epsilon=0.1, delta=0.1, window=WINDOW)
        sketches = [ECMSketch(config, stream_tag=i) for i in range(2)]
        for sketch in sketches:
            sketch.add("x", clock=1.0)
        merged = ECMSketch.aggregate(sketches)
        assert merged.effective_epsilon_sw > config.epsilon_sw

    def test_iterative_aggregation_matches_flat_aggregation(self, wc98_trace, wc98_exact):
        """Hierarchical (two-level) merging stays close to single-level merging."""
        config = ECMConfig.for_point_queries(epsilon=0.1, delta=0.1, window=WINDOW)
        sketches = _partition_and_feed(wc98_trace, config, 4)
        flat = ECMSketch.aggregate(sketches)
        two_level = ECMSketch.aggregate([
            ECMSketch.aggregate(sketches[:2]),
            ECMSketch.aggregate(sketches[2:]),
        ])
        now = wc98_trace.end_time()
        arrivals = wc98_exact.arrivals(WINDOW, now)
        frequencies = wc98_exact.frequencies_in_range(WINDOW, now)
        for key in list(frequencies)[:30]:
            delta = abs(flat.point_query(key, now=now) - two_level.point_query(key, now=now))
            assert delta <= 0.1 * arrivals + 1.0

    def test_self_join_after_aggregation(self, wc98_trace, wc98_exact):
        epsilon = 0.1
        config = ECMConfig.for_inner_product_queries(epsilon=epsilon, delta=0.1, window=WINDOW)
        sketches = _partition_and_feed(wc98_trace, config, 4)
        merged = ECMSketch.aggregate(sketches)
        now = wc98_trace.end_time()
        arrivals = wc98_exact.arrivals(WINDOW, now)
        estimate = merged.self_join(WINDOW, now=now)
        truth = wc98_exact.self_join(WINDOW, now)
        assert abs(estimate - truth) <= 3 * epsilon * arrivals ** 2 + 1.0

    def test_custom_epsilon_prime(self, uniform_trace):
        config = ECMConfig.for_point_queries(epsilon=0.1, delta=0.1, window=WINDOW)
        sketches = _partition_and_feed(uniform_trace, config, 2)
        merged = ECMSketch.aggregate(sketches, epsilon_prime=0.02)
        assert merged.config.epsilon_sw == pytest.approx(0.02)


class TestRandomizedWaveAggregation:
    def test_lossless_merge_counts_union(self, uniform_trace):
        config = ECMConfig.for_point_queries(
            epsilon=0.2, delta=0.2, window=WINDOW,
            counter_type=CounterType.RANDOMIZED_WAVE, max_arrivals=10_000,
        )
        sketches = _partition_and_feed(uniform_trace, config, 4)
        merged = ECMSketch.aggregate(sketches)
        assert merged.total_arrivals() == len(uniform_trace)
        now = uniform_trace.end_time()
        exact = ExactStreamSummary.from_stream(uniform_trace, window=WINDOW)
        arrivals = exact.arrivals(WINDOW, now)
        frequencies = exact.frequencies_in_range(WINDOW, now)
        for key in list(frequencies)[:30]:
            estimate = merged.point_query(key, now=now)
            assert abs(estimate - frequencies[key]) <= 3 * 0.2 * arrivals + 2.0

    def test_effective_epsilon_not_inflated(self):
        config = ECMConfig.for_point_queries(
            epsilon=0.2, delta=0.2, window=WINDOW,
            counter_type=CounterType.RANDOMIZED_WAVE, max_arrivals=1_000,
        )
        sketches = [ECMSketch(config, stream_tag=i) for i in range(2)]
        for sketch in sketches:
            sketch.add("x", clock=1.0)
        merged = ECMSketch.aggregate(sketches)
        assert merged.effective_epsilon_sw == pytest.approx(config.epsilon_sw)

    def test_count_based_randomized_aggregation_allowed(self):
        """Randomized waves merge by sample union, which the window model does
        not invalidate; the ECM aggregation therefore accepts them."""
        config = ECMConfig.for_point_queries(
            epsilon=0.3, delta=0.3, window=1_000, model=WindowModel.COUNT_BASED,
            counter_type=CounterType.RANDOMIZED_WAVE, max_arrivals=1_000,
        )
        sketches = [ECMSketch(config, stream_tag=i) for i in range(2)]
        for index, sketch in enumerate(sketches):
            sketch.add("x", clock=float(index + 1))
        merged = ECMSketch.aggregate(sketches)
        assert merged.total_arrivals() == 2
