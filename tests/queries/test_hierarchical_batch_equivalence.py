"""Equivalence tests for the batched hierarchical query engine.

The batched APIs (``HierarchicalECMSketch.add_many`` / ``point_query_many`` /
``prefix_query_many``, the level-synchronized BFS heavy-hitter descent, the
shared-scan ``quantiles`` and ``FrequentItemsTracker.add_many``) promise
results — and, for ingest, *byte-identical* serialized state — equal to the
scalar reference paths.  These tests drive random integer and keyed streams
through both paths across all three counter types and both window models and
compare the full serialized wire format, the detection mappings and the query
answers.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CounterType
from repro.queries import FrequentItemsTracker, HierarchicalECMSketch
from repro.serialization import dumps
from repro.windows import WindowModel

ALL_COUNTER_TYPES = (
    CounterType.EXPONENTIAL_HISTOGRAM,
    CounterType.DETERMINISTIC_WAVE,
    CounterType.RANDOMIZED_WAVE,
)
ALL_MODELS = (WindowModel.TIME_BASED, WindowModel.COUNT_BASED)

UNIVERSE_BITS = 8


def make_stack(counter_type, model, universe_bits=UNIVERSE_BITS, epsilon=0.1):
    window = 600.0 if model is WindowModel.TIME_BASED else 600
    return HierarchicalECMSketch(
        universe_bits=universe_bits,
        epsilon=epsilon,
        delta=0.1,
        window=window,
        model=model,
        counter_type=counter_type,
        max_arrivals=10_000,
        seed=3,
    )


def make_integer_stream(rng: random.Random, count: int, model: WindowModel):
    """Random integer keys with repeated clocks and mixed (incl. zero) weights."""
    clock = 0.0 if model is WindowModel.TIME_BASED else 0
    keys, clocks, values = [], [], []
    for _ in range(count):
        if model is WindowModel.TIME_BASED:
            clock = clock + rng.choice([0.0, 0.5, rng.random() * 3.0])
        else:
            clock = clock + 1
        keys.append(rng.randrange(1 << UNIVERSE_BITS))
        clocks.append(clock)
        values.append(rng.choice([0, 1, 1, 1, 2, 3]))
    return keys, clocks, values


class TestBatchedIngestEquivalence:
    @pytest.mark.parametrize("counter_type", ALL_COUNTER_TYPES, ids=lambda c: c.value)
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.value)
    def test_add_many_state_matches_scalar(self, counter_type, model):
        rng = random.Random(17)
        keys, clocks, values = make_integer_stream(rng, 400, model)
        scalar = make_stack(counter_type, model)
        batched = make_stack(counter_type, model)
        for key, clock, value in zip(keys, clocks, values, strict=False):
            scalar.add(key, clock, value)
        for start in range(0, len(keys), 96):
            stop = start + 96
            batched.add_many(
                np.asarray(keys[start:stop]), clocks[start:stop], values[start:stop]
            )
        assert dumps(batched) == dumps(scalar)
        assert batched.total_arrivals() == scalar.total_arrivals()

    def test_add_many_accepts_lists_and_arrays_identically(self):
        rng = random.Random(5)
        keys, clocks, _values = make_integer_stream(rng, 200, WindowModel.TIME_BASED)
        from_lists = make_stack(CounterType.EXPONENTIAL_HISTOGRAM, WindowModel.TIME_BASED)
        from_arrays = make_stack(CounterType.EXPONENTIAL_HISTOGRAM, WindowModel.TIME_BASED)
        from_lists.add_many(keys, clocks)
        from_arrays.add_many(np.asarray(keys), np.asarray(clocks))
        assert dumps(from_arrays) == dumps(from_lists)

    def test_add_many_numpy_values_serialize(self):
        stack = make_stack(CounterType.EXPONENTIAL_HISTOGRAM, WindowModel.TIME_BASED)
        stack.add_many(
            np.array([1, 2, 3]), [1.0, 2.0, 3.0], np.array([2, 0, 1], dtype=np.int64)
        )
        assert stack.total_arrivals() == 3
        dumps(stack)  # all state is JSON-serializable Python scalars

    def test_add_many_numpy_scalar_clocks_serialize(self):
        # A list assembled by iterating a NumPy array holds np.float64/np.int64
        # scalars; the stack must normalise them before they reach counters.
        reference = make_stack(CounterType.EXPONENTIAL_HISTOGRAM, WindowModel.TIME_BASED)
        reference.add_many([1, 2], [1.0, 2.0], [1, 2])
        stack = make_stack(CounterType.EXPONENTIAL_HISTOGRAM, WindowModel.TIME_BASED)
        stack.add_many(
            [1, 2],
            list(np.array([1.0, 2.0])),
            [np.int64(1), np.int64(2)],
        )
        assert dumps(stack) == dumps(reference)

    def test_add_many_validates_before_mutating(self):
        from repro.core.errors import ConfigurationError, OutOfOrderArrivalError

        stack = make_stack(CounterType.EXPONENTIAL_HISTOGRAM, WindowModel.TIME_BASED)
        stack.add_many([1, 2], [1.0, 2.0])
        before = dumps(stack)
        with pytest.raises(ConfigurationError):
            stack.add_many([1, 1 << UNIVERSE_BITS], [3.0, 4.0])  # key outside universe
        with pytest.raises(ConfigurationError):
            stack.add_many([1, 2], [3.0])  # length mismatch
        with pytest.raises(ConfigurationError):
            stack.add_many([1, 2], [3.0, 4.0], [1])  # values length mismatch
        with pytest.raises(ConfigurationError):
            stack.add_many(["a", "b"], [3.0, 4.0])  # non-integer keys
        with pytest.raises(OutOfOrderArrivalError):
            stack.add_many([1, 2], [5.0, 4.0])  # out-of-order clocks
        assert dumps(stack) == before

    def test_add_many_empty_batch_is_a_noop(self):
        stack = make_stack(CounterType.EXPONENTIAL_HISTOGRAM, WindowModel.TIME_BASED)
        before = dumps(stack)
        stack.add_many([], [])
        assert dumps(stack) == before


class TestBatchedQueryEquivalence:
    @pytest.fixture(scope="class")
    def fed_stack(self):
        rng = random.Random(23)
        stack = make_stack(CounterType.EXPONENTIAL_HISTOGRAM, WindowModel.TIME_BASED)
        keys, clocks, values = make_integer_stream(rng, 1_500, WindowModel.TIME_BASED)
        stack.add_many(np.asarray(keys), clocks, values)
        return stack, clocks[-1]

    def test_point_query_many_matches_scalar(self, fed_stack):
        stack, now = fed_stack
        keys = list(range(64)) + [255, 128]
        batched = stack.point_query_many(keys, now=now)
        assert batched == [stack.point_query(key, now=now) for key in keys]
        # Also across the small-batch cutoff boundary and with a range.
        assert stack.point_query_many(keys, range_length=50.0, now=now) == [
            stack.point_query(key, range_length=50.0, now=now) for key in keys
        ]
        assert stack.point_query_many(keys[:3], now=now) == [
            stack.point_query(key, now=now) for key in keys[:3]
        ]
        assert stack.point_query_many([], now=now) == []

    def test_prefix_query_many_matches_scalar(self, fed_stack):
        stack, now = fed_stack
        for level in (0, 3, UNIVERSE_BITS - 1):
            prefixes = list(range(1 << (UNIVERSE_BITS - level)))
            assert stack.prefix_query_many(prefixes, level, now=now) == [
                stack.prefix_query(prefix, level, now=now) for prefix in prefixes
            ]

    def test_prefix_query_many_validates_level(self, fed_stack):
        from repro.core.errors import ConfigurationError

        stack, now = fed_stack
        with pytest.raises(ConfigurationError):
            stack.prefix_query_many([0], UNIVERSE_BITS, now=now)

    @pytest.mark.parametrize("phi", [0.01, 0.05, 0.2, 0.9])
    def test_batched_descent_matches_scalar(self, fed_stack, phi):
        stack, now = fed_stack
        assert stack.heavy_hitters(phi=phi, now=now) == stack._heavy_hitters_scalar(phi=phi, now=now)

    def test_batched_descent_matches_scalar_in_range(self, fed_stack):
        stack, now = fed_stack
        batched = stack.heavy_hitters(phi=0.1, range_length=100.0, now=now)
        scalar = stack._heavy_hitters_scalar(phi=0.1, range_length=100.0, now=now)
        assert batched == scalar

    def test_batched_descent_with_absolute_threshold(self, fed_stack):
        stack, now = fed_stack
        for threshold in (5.0, 50.0, 1e9):
            batched = stack.heavy_hitters(phi=0.0, absolute_threshold=threshold, now=now)
            scalar = stack._heavy_hitters_scalar(phi=0.0, absolute_threshold=threshold, now=now)
            assert batched == scalar

    def test_shared_scan_quantiles_match_scalar(self, fed_stack):
        stack, now = fed_stack
        fractions = [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        assert stack.quantiles(fractions, now=now) == [
            stack.quantile(fraction, now=now) for fraction in fractions
        ]
        assert stack.quantiles(fractions, range_length=200.0, now=now) == [
            stack.quantile(fraction, range_length=200.0, now=now) for fraction in fractions
        ]


class TestGroupTestingGuarantee:
    """Property coverage of Theorem 5: recall of every true heavy hitter."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=63), min_size=50, max_size=250),
        st.sampled_from([0.1, 0.2, 0.3]),
    )
    def test_every_true_heavy_hitter_above_phi_plus_eps_is_reported(self, keys, phi):
        epsilon = 0.05
        stack = HierarchicalECMSketch(
            universe_bits=6, epsilon=epsilon, delta=0.01, window=1e6, seed=11
        )
        clocks = [float(index) for index in range(len(keys))]
        stack.add_many(np.asarray(keys), clocks)
        now = clocks[-1]
        total = len(keys)
        truth: dict = {}
        for key in keys:
            truth[key] = truth.get(key, 0) + 1
        detected = stack.heavy_hitters(phi=phi, now=now)
        scalar = stack._heavy_hitters_scalar(phi=phi, now=now)
        assert detected == scalar
        # Point estimates never under-count by more than eps * total (w.h.p.),
        # so everything at or above (phi + eps) * total must be detected.
        for key, count in truth.items():
            if count >= (phi + epsilon) * total:
                assert key in detected, (
                    "true heavy hitter %d (%d/%d arrivals) missed at phi=%.2f"
                    % (key, count, total, phi)
                )


class TestTrackerBatchEquivalence:
    def test_add_many_state_matches_scalar(self):
        rng = random.Random(31)
        scalar = FrequentItemsTracker(
            epsilon=0.1, delta=0.1, window=1_000.0, universe_bits=7, seed=2
        )
        batched = FrequentItemsTracker(
            epsilon=0.1, delta=0.1, window=1_000.0, universe_bits=7, seed=2
        )
        keys = ["page-%d" % rng.randrange(60) for _ in range(500)]
        clocks = [float(index) for index in range(500)]
        values = [rng.choice([1, 1, 2]) for _ in range(500)]
        for key, clock, value in zip(keys, clocks, values, strict=False):
            scalar.add(key, clock, value)
        for start in range(0, 500, 128):
            stop = start + 128
            batched.add_many(keys[start:stop], clocks[start:stop], values[start:stop])
        assert dumps(batched) == dumps(scalar)
        assert batched.distinct_keys() == scalar.distinct_keys()
        now = clocks[-1]
        assert batched.heavy_hitters(phi=0.05, now=now) == scalar.heavy_hitters(phi=0.05, now=now)
        detected = batched.sketch().heavy_hitters(phi=0.05, now=now)
        assert detected == scalar.sketch()._heavy_hitters_scalar(phi=0.05, now=now)

    def test_add_many_assigns_codes_in_first_appearance_order(self):
        tracker = FrequentItemsTracker(
            epsilon=0.2, delta=0.2, window=100.0, universe_bits=4
        )
        tracker.add_many(["c", "a", "c", "b"], [1.0, 2.0, 3.0, 4.0])
        reference = FrequentItemsTracker(
            epsilon=0.2, delta=0.2, window=100.0, universe_bits=4
        )
        for key, clock in zip(["c", "a", "c", "b"], [1.0, 2.0, 3.0, 4.0], strict=False):
            reference.add(key, clock)
        assert dumps(tracker) == dumps(reference)

    def test_add_many_validates_lengths(self):
        from repro.core.errors import ConfigurationError

        tracker = FrequentItemsTracker(
            epsilon=0.2, delta=0.2, window=100.0, universe_bits=4
        )
        with pytest.raises(ConfigurationError):
            tracker.add_many(["a"], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            tracker.add_many(["a", "b"], [1.0, 2.0], [1])
        tracker.add_many([], [])
        assert tracker.distinct_keys() == 0

    def test_failed_chunk_rolls_back_dictionary(self):
        from repro.core.errors import ConfigurationError, OutOfOrderArrivalError

        tracker = FrequentItemsTracker(
            epsilon=0.2, delta=0.2, window=100.0, universe_bits=4
        )
        tracker.add_many(["a", "b"], [1.0, 2.0])
        before = dumps(tracker)
        with pytest.raises(OutOfOrderArrivalError):
            tracker.add_many(["x", "y", "z"], [5.0, 1.0, 6.0])  # out-of-order clocks
        with pytest.raises(ConfigurationError):
            # Overflows the 2**4 dictionary mid-scan.
            tracker.add_many(
                ["k%d" % i for i in range(20)], [float(i + 10) for i in range(20)]
            )
        # Atomic failure: no sketch state, no new codes — a retry with
        # corrected input assigns the same codes as a node that never failed.
        assert dumps(tracker) == before
        assert tracker.distinct_keys() == 2
        tracker.add_many(["x", "c"], [5.0, 6.0])
        reference = FrequentItemsTracker(
            epsilon=0.2, delta=0.2, window=100.0, universe_bits=4
        )
        reference.add_many(["a", "b", "x", "c"], [1.0, 2.0, 5.0, 6.0])
        assert dumps(tracker) == dumps(reference)

    def test_frequency_many_matches_scalar(self):
        tracker = FrequentItemsTracker(
            epsilon=0.1, delta=0.1, window=1_000.0, universe_bits=6
        )
        tracker.add_many(
            ["a", "b", "a", "c", "a", "b"], [float(i) for i in range(6)]
        )
        probes = ["a", "unseen", "b", "c", "also-unseen"]
        assert tracker.frequency_many(probes, now=5.0) == [
            tracker.frequency(key, now=5.0) for key in probes
        ]
