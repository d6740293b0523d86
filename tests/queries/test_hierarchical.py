"""Unit tests for the hierarchical (dyadic) ECM-sketch stack."""

from __future__ import annotations

import math
import random
from unittest import mock

import pytest

from repro.core import CounterType, ECMSketch
from repro.core.errors import ConfigurationError, IncompatibleSketchError
from repro.queries import HierarchicalECMSketch
from repro.serialization import dumps
from repro.windows import randomized_wave


WINDOW = 10_000.0


def _build(universe_bits=8, epsilon=0.05, seed=0):
    return HierarchicalECMSketch(
        universe_bits=universe_bits, epsilon=epsilon, delta=0.05, window=WINDOW, seed=seed
    )


def _feed_zipfish(sketch, rng, count=3_000, domain=200):
    """Feed a skewed integer stream; returns exact frequencies and last clock."""
    truth = {}
    clock = 0.0
    for _ in range(count):
        clock += rng.random() * (WINDOW / count / 2)
        key = min(int(rng.paretovariate(1.2)) - 1, domain - 1)
        sketch.add(key, clock)
        truth[key] = truth.get(key, 0) + 1
    return truth, clock


class TestConstruction:
    def test_levels_match_universe_bits(self):
        sketch = _build(universe_bits=10)
        assert sketch.universe_size == 1024
        assert sketch.level_sketch(0) is not sketch.level_sketch(1)

    def test_invalid_universe(self):
        with pytest.raises(ConfigurationError):
            _build(universe_bits=0)

    def test_key_outside_universe_rejected(self):
        sketch = _build(universe_bits=4)
        with pytest.raises(ConfigurationError):
            sketch.add(16, clock=1.0)
        with pytest.raises(ConfigurationError):
            sketch.add(-1, clock=1.0)
        with pytest.raises(ConfigurationError):
            sketch.add("not-an-int", clock=1.0)  # type: ignore[arg-type]

    def test_memory_is_sum_of_levels(self):
        sketch = _build(universe_bits=4)
        sketch.add(3, clock=1.0)
        assert sketch.memory_bytes() == sum(
            sketch.level_sketch(level).memory_bytes() for level in range(4)
        )


class TestQueries:
    def test_point_query_counts(self):
        sketch = _build()
        for clock in range(50):
            sketch.add(7, clock=float(clock))
        assert sketch.point_query(7, now=49.0) >= 50.0
        assert sketch.total_arrivals() == 50

    def test_range_query_matches_exact_on_small_universe(self, rng):
        sketch = _build(universe_bits=6, epsilon=0.02)
        truth, now = _feed_zipfish(sketch, rng, count=2_000, domain=64)
        for lo, hi in [(0, 63), (0, 7), (8, 40), (13, 13)]:
            exact = sum(count for key, count in truth.items() if lo <= key <= hi)
            estimate = sketch.range_query(lo, hi, now=now)
            assert abs(estimate - exact) <= 0.15 * sketch.total_arrivals() + 1

    def test_estimate_total_close(self, rng):
        sketch = _build(universe_bits=8, epsilon=0.05)
        truth, now = _feed_zipfish(sketch, rng, count=2_000)
        total = sum(truth.values())
        assert abs(sketch.estimate_total(now=now) - total) <= 0.2 * total

    def test_prefix_query_level_bounds(self):
        sketch = _build(universe_bits=4)
        sketch.add(3, clock=1.0)
        with pytest.raises(ConfigurationError):
            sketch.prefix_query(0, level=4)

    def test_sliding_window_restriction(self):
        sketch = _build(universe_bits=6, epsilon=0.05)
        for clock in range(100):
            sketch.add(5, clock=float(clock))
        recent = sketch.point_query(5, range_length=10.0, now=99.0)
        assert recent <= 10 * 1.3 + 1


class TestHeavyHitters:
    def test_detects_true_heavy_hitter(self, rng):
        sketch = _build(universe_bits=8, epsilon=0.02)
        clock = 0.0
        for index in range(2_000):
            clock += 1.0
            key = 42 if index % 3 == 0 else rng.randrange(256)
            sketch.add(key, clock)
        hitters = sketch.heavy_hitters(phi=0.2, now=clock)
        assert 42 in hitters

    def test_no_false_heavy_hitters_far_below_threshold(self, rng):
        sketch = _build(universe_bits=8, epsilon=0.02)
        truth, now = _feed_zipfish(sketch, rng, count=3_000, domain=256)
        total = sum(truth.values())
        phi = 0.1
        hitters = sketch.heavy_hitters(phi=phi, now=now)
        # Theorem 5: nothing with true frequency below (phi - eps) * total
        # should be reported (allowing the epsilon slack).
        for key in hitters:
            assert truth.get(key, 0) >= (phi - 0.05) * total

    def test_absolute_threshold(self):
        sketch = _build(universe_bits=6, epsilon=0.05)
        for clock in range(30):
            sketch.add(9, clock=float(clock))
            sketch.add(clock % 64, clock=float(clock))
        hitters = sketch.heavy_hitters(phi=0.0, absolute_threshold=25, now=29.0)
        assert 9 in hitters
        assert all(estimate >= 25 for estimate in hitters.values())

    def test_invalid_phi(self):
        sketch = _build(universe_bits=4)
        sketch.add(1, clock=1.0)
        with pytest.raises(ConfigurationError):
            sketch.heavy_hitters(phi=0.0)

    def test_heavy_hitters_respect_window(self):
        sketch = _build(universe_bits=6, epsilon=0.05)
        for clock in range(100):
            sketch.add(1, clock=float(clock))
        for clock in range(100, 130):
            sketch.add(2, clock=float(clock))
        recent = sketch.heavy_hitters(phi=0.6, range_length=30.0, now=129.0)
        assert 2 in recent
        assert 1 not in recent


class TestQuantiles:
    def test_quantiles_monotone(self, rng):
        sketch = _build(universe_bits=8, epsilon=0.03)
        _truth, now = _feed_zipfish(sketch, rng, count=2_500, domain=256)
        values = sketch.quantiles([0.1, 0.25, 0.5, 0.75, 0.9], now=now)
        assert values == sorted(values)

    def test_median_of_skewed_stream_is_small(self, rng):
        """A Pareto-like stream concentrates mass on small keys."""
        sketch = _build(universe_bits=8, epsilon=0.03)
        truth, now = _feed_zipfish(sketch, rng, count=2_500, domain=256)
        median = sketch.quantile(0.5, now=now)
        total = sum(truth.values())
        exact_below = sum(count for key, count in truth.items() if key <= median)
        assert exact_below >= 0.35 * total

    def test_invalid_fraction(self):
        sketch = _build(universe_bits=4)
        sketch.add(1, clock=1.0)
        with pytest.raises(ConfigurationError):
            sketch.quantile(-0.1)


class TestAggregation:
    def test_aggregate_counts_union(self, rng):
        stacks = [_build(universe_bits=6, epsilon=0.05, seed=9) for _ in range(3)]
        union_truth = {}
        now = 0.0
        for stack in stacks:
            clock = 0.0
            for _ in range(800):
                clock += rng.random() * 5.0
                key = rng.randrange(64)
                stack.add(key, clock)
                union_truth[key] = union_truth.get(key, 0) + 1
            now = max(now, clock)
        merged = HierarchicalECMSketch.aggregate(stacks)
        assert merged.total_arrivals() == sum(union_truth.values())
        total = sum(union_truth.values())
        for key in list(union_truth)[:20]:
            estimate = merged.point_query(key, now=now)
            assert abs(estimate - union_truth[key]) <= 0.3 * total + 1

    def test_aggregate_requires_compatibility(self):
        a = _build(universe_bits=4, seed=1)
        b = _build(universe_bits=4, seed=2)
        a.add(1, clock=1.0)
        b.add(1, clock=1.0)
        with pytest.raises(IncompatibleSketchError):
            HierarchicalECMSketch.aggregate([a, b])

    @pytest.mark.parametrize(
        "changes",
        [{"epsilon": 0.1}, {"delta": 0.01}, {"universe_bits": 5}, {"seed": 3}, {"window": 500.0}],
        ids=["epsilon", "delta", "universe_bits", "seed", "window"],
    )
    def test_mismatched_stacks_are_incompatible(self, changes):
        params = {"universe_bits": 4, "epsilon": 0.05, "delta": 0.05, "window": WINDOW}
        a = HierarchicalECMSketch(**params)
        b = HierarchicalECMSketch(**{**params, **changes})
        a.add(1, clock=1.0)
        b.add(1, clock=1.0)
        assert not a.is_compatible_with(b)
        assert not b.is_compatible_with(a)
        with pytest.raises(IncompatibleSketchError):
            HierarchicalECMSketch.aggregate([a, b])

    @pytest.mark.parametrize(
        "counter_type",
        [CounterType.EXPONENTIAL_HISTOGRAM, CounterType.DETERMINISTIC_WAVE, CounterType.RANDOMIZED_WAVE],
        ids=["eh", "dw", "rw"],
    )
    def test_aggregate_matches_per_level_reference(self, counter_type):
        stacks = []
        for site in range(3):
            rng = random.Random(site)
            stack = HierarchicalECMSketch(
                universe_bits=6,
                epsilon=0.15,
                delta=0.15,
                window=WINDOW,
                counter_type=counter_type,
                max_arrivals=4_000,
                seed=9,
                stream_tag=site,
            )
            clocks = sorted(rng.random() * WINDOW for _ in range(400))
            stack.add_many([rng.randrange(64) for _ in clocks], clocks)
            stacks.append(stack)
        merged = HierarchicalECMSketch.aggregate(stacks)
        with mock.patch.object(randomized_wave, "_SELECTION_CUTOFF", math.inf):
            for level in range(6):
                reference = ECMSketch._aggregate_reference([stack.level_sketch(level) for stack in stacks])
                assert dumps(merged.level_sketch(level)) == dumps(reference)
        assert merged.total_arrivals() == sum(stack.total_arrivals() for stack in stacks)

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchicalECMSketch.aggregate([])

    def test_repr(self):
        assert "HierarchicalECMSketch" in repr(_build(universe_bits=4))
