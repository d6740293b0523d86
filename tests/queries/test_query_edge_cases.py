"""Edge-case coverage for the query layer that the main suites do not hit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CounterType
from repro.core.ecm_sketch import ECMSketch
from repro.core.errors import EmptyStructureError, WindowModelError
from repro.queries import FrequentItemsTracker, HierarchicalECMSketch
from repro.windows import WindowModel


class TestAlternativeCounterBackends:
    def test_tracker_with_deterministic_wave_counters(self):
        tracker = FrequentItemsTracker(
            epsilon=0.1, delta=0.1, window=1_000.0, universe_bits=6,
            counter_type=CounterType.DETERMINISTIC_WAVE, max_arrivals=5_000,
        )
        for clock in range(200):
            tracker.add("/hot", clock=float(clock))
            tracker.add("/cold-%d" % (clock % 20), clock=float(clock))
        hitters = tracker.heavy_hitters(phi=0.3, now=199.0)
        assert "/hot" in hitters

    def test_hierarchical_with_randomized_wave_counters(self):
        sketch = HierarchicalECMSketch(
            universe_bits=5, epsilon=0.2, delta=0.2, window=1_000.0,
            counter_type=CounterType.RANDOMIZED_WAVE, max_arrivals=2_000,
        )
        for clock in range(300):
            sketch.add(clock % 32, clock=float(clock))
        assert sketch.range_query(0, 31, now=299.0) >= 250


class TestWindowModelInteractions:
    def test_count_based_stack_refuses_aggregation(self):
        stacks = []
        for tag in range(2):
            stack = HierarchicalECMSketch(
                universe_bits=4, epsilon=0.2, delta=0.2, window=100,
                model=WindowModel.COUNT_BASED, stream_tag=tag,
            )
            stack.add(3, clock=1.0)
            stacks.append(stack)
        with pytest.raises(WindowModelError):
            HierarchicalECMSketch.aggregate(stacks)

    def test_count_based_tracker_frequency(self):
        tracker = FrequentItemsTracker(
            epsilon=0.1, delta=0.1, window=50, universe_bits=7,
            model=WindowModel.COUNT_BASED,
        )
        for index in range(1, 201):
            tracker.add("even" if index % 2 == 0 else "odd-%d" % (index % 40), clock=float(index))
        # Of the last 50 arrivals, ~25 are "even".
        estimate = tracker.frequency("even", range_length=50, now=200.0)
        assert abs(estimate - 25) <= 0.1 * 50 + 2


class TestQuantileAndRangeBoundaries:
    def test_quantile_of_point_mass(self):
        sketch = HierarchicalECMSketch(universe_bits=6, epsilon=0.1, delta=0.1, window=1_000.0)
        for clock in range(100):
            sketch.add(42, clock=float(clock))
        assert sketch.quantile(0.0, now=99.0) <= 42
        assert sketch.quantile(0.5, now=99.0) == 42
        assert sketch.quantile(1.0, now=99.0) == 42

    def test_range_query_outside_observed_keys_is_small(self):
        sketch = HierarchicalECMSketch(universe_bits=8, epsilon=0.05, delta=0.05, window=1_000.0)
        for clock in range(200):
            sketch.add(clock % 16, clock=float(clock))
        assert sketch.range_query(200, 255, now=199.0) <= 0.2 * 200

    def test_heavy_hitters_on_empty_sketch(self):
        sketch = HierarchicalECMSketch(universe_bits=4, epsilon=0.2, delta=0.2, window=100.0)
        assert sketch.heavy_hitters(phi=0.5, absolute_threshold=1.0) == {}


class TestEmptyWindowRegressions:
    """The zero-threshold blowup: an empty window must never enumerate the universe."""

    def _count_point_queries(self, monkeypatch):
        calls = {"count": 0}
        original_scalar = ECMSketch.point_query
        original_batched = ECMSketch.point_query_many

        def counting_scalar(self, item, range_length=None, now=None):
            calls["count"] += 1
            return original_scalar(self, item, range_length, now)

        def counting_batched(self, items, range_length=None, now=None):
            calls["count"] += len(items)
            return original_batched(self, items, range_length, now)

        monkeypatch.setattr(ECMSketch, "point_query", counting_scalar)
        monkeypatch.setattr(ECMSketch, "point_query_many", counting_batched)
        return calls

    @pytest.mark.parametrize(
        "descent",
        [HierarchicalECMSketch.heavy_hitters, HierarchicalECMSketch._heavy_hitters_scalar],
        ids=["batched", "scalar"],
    )
    def test_empty_16_bit_stack_returns_nothing_without_descending(
        self, monkeypatch, descent
    ):
        # Regression: the threshold phi * ||a_r||_1 is 0.0 on an empty window,
        # and `estimate < threshold` never pruned, so heavy_hitters used to
        # enumerate all 65,536 keys of a 16-bit universe (~0.5 s).  It must
        # now return {} without a single point query.
        stack = HierarchicalECMSketch(
            universe_bits=16, epsilon=0.1, delta=0.1, window=1_000.0
        )
        calls = self._count_point_queries(monkeypatch)
        assert descent(stack, phi=0.1) == {}
        assert calls["count"] == 0

    def test_window_that_slid_past_all_arrivals_returns_nothing(self):
        stack = HierarchicalECMSketch(
            universe_bits=16, epsilon=0.1, delta=0.1, window=10.0
        )
        for clock in range(5):
            stack.add(42, clock=float(clock))
        # Everything has expired from [now - 10, now] at now = 1000.
        assert stack.heavy_hitters(phi=0.5, now=1_000.0) == {}

    @pytest.mark.parametrize("threshold", [0, 0.0, -1.0])
    def test_non_positive_absolute_threshold_returns_nothing(self, monkeypatch, threshold):
        stack = HierarchicalECMSketch(
            universe_bits=16, epsilon=0.1, delta=0.1, window=1_000.0
        )
        stack.add(3, clock=1.0)
        calls = self._count_point_queries(monkeypatch)
        assert stack.heavy_hitters(phi=0.5, absolute_threshold=threshold) == {}
        assert calls["count"] == 0

    def test_tracker_empty_window_returns_nothing(self):
        tracker = FrequentItemsTracker(
            epsilon=0.1, delta=0.1, window=1_000.0, universe_bits=16
        )
        assert tracker.heavy_hitters(phi=0.1) == {}
        assert tracker.heavy_hitters(phi=0.5, absolute_threshold=0) == {}


class TestNumpyIntegerKeys:
    def test_add_accepts_numpy_integers(self):
        from repro.serialization import dumps

        via_numpy = HierarchicalECMSketch(
            universe_bits=8, epsilon=0.1, delta=0.1, window=100.0
        )
        via_python = HierarchicalECMSketch(
            universe_bits=8, epsilon=0.1, delta=0.1, window=100.0
        )
        batch = np.array([7, 200, 7], dtype=np.int64)
        for position, key in enumerate(batch):
            via_numpy.add(key, clock=float(position))  # np.int64 scalars
        for position, key in enumerate([7, 200, 7]):
            via_python.add(key, clock=float(position))
        assert dumps(via_numpy) == dumps(via_python)
        assert via_numpy.point_query(np.int64(7), now=2.0) == via_python.point_query(7, now=2.0)

    def test_out_of_range_numpy_keys_still_rejected(self):
        from repro.core.errors import ConfigurationError

        stack = HierarchicalECMSketch(universe_bits=4, epsilon=0.2, delta=0.2, window=100.0)
        with pytest.raises(ConfigurationError):
            stack.add(np.int64(16), clock=1.0)
        with pytest.raises(ConfigurationError):
            stack.add(np.int64(-1), clock=1.0)
        with pytest.raises(ConfigurationError):
            stack.add(7.5, clock=1.0)  # type: ignore[arg-type]


class TestEmptyWindowQuantiles:
    def test_quantile_of_empty_stack_raises(self):
        stack = HierarchicalECMSketch(universe_bits=6, epsilon=0.1, delta=0.1, window=100.0)
        # Regression: fraction 0 on an empty stack silently returned key 0.
        with pytest.raises(EmptyStructureError):
            stack.quantile(0.0)
        with pytest.raises(EmptyStructureError):
            stack.quantile(0.5)
        with pytest.raises(EmptyStructureError):
            stack.quantiles([0.25, 0.75])

    def test_quantile_of_expired_window_raises(self):
        stack = HierarchicalECMSketch(universe_bits=6, epsilon=0.1, delta=0.1, window=10.0)
        for clock in range(5):
            stack.add(9, clock=float(clock))
        with pytest.raises(EmptyStructureError):
            stack.quantile(0.5, now=1_000.0)

    def test_quantile_still_works_on_populated_stack(self):
        stack = HierarchicalECMSketch(universe_bits=6, epsilon=0.1, delta=0.1, window=1_000.0)
        for clock in range(50):
            stack.add(20, clock=float(clock))
        assert stack.quantile(0.5, now=49.0) == 20
        assert stack.quantiles([0.5, 1.0], now=49.0) == [20, 20]
