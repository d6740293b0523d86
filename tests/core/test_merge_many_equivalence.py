"""Aggregation vs its references: serialized-state equality.

``ECMSketch.aggregate`` and ``CountMinSketch.merged`` run the vectorized
merges.  They promise byte-identical state relative to two references:

* ``ECMSketch._aggregate_reference`` replays every deterministic cell's
  events through the counters' scalar ``add``.  For randomized waves both
  sides take the same sample union, so the reference side forces the
  sort-only trim by setting ``_SELECTION_CUTOFF`` to infinity.
* a left fold of ``CountMinSketch.merge_inplace`` into an empty sketch.

These tests enforce that across all three counter types and both storage
layouts, plus the aggregation edge cases of the distributed layer: empty
inputs, single inputs, mixed window models and incompatible configurations.
Columnar exponential-histogram grids aggregate whole, never through the
object layout; ``TestColumnarGridMerge`` runs them with the store's NumPy
loops and with its kernels (interpreted where numba is absent).
"""

from __future__ import annotations

import math
import random
from unittest import mock

import pytest

from repro.core import CounterType, CountMinSketch, ECMConfig, ECMSketch
from repro.queries.hierarchical import HierarchicalECMSketch
from repro.core.errors import (
    ConfigurationError,
    IncompatibleSketchError,
    WindowModelError,
)
from repro.serialization import dumps
from repro.windows import WindowModel, columnar_eh, randomized_wave

from ..conftest import histograms_built

ALL_COUNTER_TYPES = (
    CounterType.EXPONENTIAL_HISTOGRAM,
    CounterType.DETERMINISTIC_WAVE,
    CounterType.RANDOMIZED_WAVE,
)
LAYOUTS = ("default", "object")

WINDOW = 60_000.0


def build_site_sketches(counter_type, num_sites=5, records=900, epsilon=0.15, seed=0, layout="default"):
    config = ECMConfig.for_point_queries(
        epsilon=epsilon,
        delta=0.15,
        window=WINDOW,
        counter_type=counter_type,
        max_arrivals=10 * records,
    )
    make = ECMSketch._on_object_store if layout == "object" else ECMSketch
    sketches = []
    for site in range(num_sites):
        rng = random.Random(seed * 1000 + site)
        sketch = make(config, stream_tag=site)
        clock = 0.0
        items, clocks, values = [], [], []
        for _ in range(records):
            clock += rng.choice([0.0, rng.random() * 5.0])
            items.append("key-%d" % rng.randrange(60))
            clocks.append(clock)
            values.append(rng.choice([1, 1, 1, 2]))
        sketch.add_many(items, clocks, values)
        sketches.append(sketch)
    return sketches


def reference_aggregate(sketches, epsilon_prime=None):
    """The replay reference, with randomized waves on the sort-only trim."""
    with mock.patch.object(randomized_wave, "_SELECTION_CUTOFF", math.inf):
        return ECMSketch._aggregate_reference(sketches, epsilon_prime)


def fold_merge(sketches):
    """Left fold of ``merge_inplace`` into an empty sketch."""
    base = sketches[0]
    result = CountMinSketch(width=base.width, depth=base.depth, seed=base.seed)
    for sketch in sketches:
        result.merge_inplace(sketch)
    return result


class TestCountMinMerged:
    def test_matches_merge_inplace_fold(self):
        sketches = []
        for seed in range(6):
            rng = random.Random(seed)
            sketch = CountMinSketch(width=64, depth=4, seed=3)
            for _ in range(800):
                sketch.add("key-%d" % rng.randrange(50), rng.choice([1.0, 2.0, 0.25]))
            sketches.append(sketch)
        reference = fold_merge(sketches)
        merged = CountMinSketch.merged(sketches)
        # Bit-exact floating-point counters, not just approximately equal.
        assert dumps(merged) == dumps(reference)
        assert merged.total() == reference.total()

    def test_single_input(self):
        sketch = CountMinSketch(width=16, depth=2)
        sketch.add("x", 3.0)
        assert dumps(CountMinSketch.merged([sketch])) == dumps(fold_merge([sketch]))

    def test_empty_collection_rejected(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch.merged([])

    def test_incompatible_rejected(self):
        one = CountMinSketch(width=16, depth=2, seed=0)
        other = CountMinSketch(width=16, depth=2, seed=1)
        with pytest.raises(IncompatibleSketchError):
            CountMinSketch.merged([one, other])


class TestECMAggregateEquivalence:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("counter_type", ALL_COUNTER_TYPES)
    def test_matches_replay_reference(self, counter_type, layout):
        sketches = build_site_sketches(counter_type, layout=layout)
        reference = reference_aggregate(sketches)
        aggregate = ECMSketch.aggregate(sketches)
        assert aggregate.backend == reference.backend == sketches[0].backend
        assert dumps(aggregate) == dumps(reference)
        assert aggregate.effective_epsilon_sw == reference.effective_epsilon_sw
        assert aggregate.total_arrivals() == reference.total_arrivals()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_selection_trim_matches_sort_reference(self, layout):
        # A zero cutoff sends every over-capacity level union through the
        # O(n) selection, which these small unions would otherwise skip.
        sketches = build_site_sketches(CounterType.RANDOMIZED_WAVE, num_sites=8, layout=layout)
        reference = reference_aggregate(sketches)
        with mock.patch.object(randomized_wave, "_SELECTION_CUTOFF", 0):
            selected = ECMSketch.aggregate(sketches)
        assert dumps(selected) == dumps(reference)

    @pytest.mark.parametrize("counter_type", ALL_COUNTER_TYPES)
    def test_single_site(self, counter_type):
        sketches = build_site_sketches(counter_type, num_sites=1, records=300)
        assert dumps(ECMSketch.aggregate(sketches)) == dumps(reference_aggregate(sketches))

    def test_custom_epsilon_prime(self):
        sketches = build_site_sketches(CounterType.EXPONENTIAL_HISTOGRAM, num_sites=3)
        reference = reference_aggregate(sketches, epsilon_prime=0.05)
        aggregate = ECMSketch.aggregate(sketches, epsilon_prime=0.05)
        assert dumps(aggregate) == dumps(reference)

    def test_identical_query_answers(self):
        sketches = build_site_sketches(CounterType.EXPONENTIAL_HISTOGRAM)
        reference = reference_aggregate(sketches)
        aggregate = ECMSketch.aggregate(sketches)
        now = max(s.last_clock for s in sketches)
        for key in ("key-0", "key-7", "key-59", "missing"):
            for rng in (None, WINDOW / 10.0, WINDOW / 100.0):
                assert aggregate.point_query(key, rng, now=now) == reference.point_query(
                    key, rng, now=now
                )
        assert aggregate.self_join(now=now) == reference.self_join(now=now)


class TestECMAggregateEdgeCases:
    @pytest.mark.parametrize("aggregate", [ECMSketch.aggregate, ECMSketch._aggregate_reference])
    def test_empty_collection_rejected(self, aggregate):
        with pytest.raises(ConfigurationError):
            aggregate([])

    @pytest.mark.parametrize("aggregate", [ECMSketch.aggregate, ECMSketch._aggregate_reference])
    @pytest.mark.parametrize(
        "counter_type",
        (CounterType.EXPONENTIAL_HISTOGRAM, CounterType.DETERMINISTIC_WAVE),
    )
    def test_count_based_deterministic_rejected(self, counter_type, aggregate):
        config = ECMConfig.for_point_queries(
            epsilon=0.2,
            delta=0.2,
            window=1_000,
            model=WindowModel.COUNT_BASED,
            counter_type=counter_type,
            max_arrivals=10_000,
        )
        sketches = [ECMSketch(config, stream_tag=tag) for tag in range(2)]
        with pytest.raises(WindowModelError):
            aggregate(sketches)

    def test_count_based_randomized_wave_allowed(self):
        # Randomized waves are duplicate-insensitive, so even count-based
        # windows aggregate (losslessly) — the paper's Section 5.2 contrast.
        config = ECMConfig.for_point_queries(
            epsilon=0.3,
            delta=0.3,
            window=1_000,
            model=WindowModel.COUNT_BASED,
            counter_type=CounterType.RANDOMIZED_WAVE,
            max_arrivals=10_000,
        )
        sketches = []
        for tag in range(2):
            sketch = ECMSketch(config, stream_tag=tag)
            for index in range(200):
                sketch.add("key-%d" % (index % 11), index + 1)
            sketches.append(sketch)
        assert dumps(ECMSketch.aggregate(sketches)) == dumps(reference_aggregate(sketches))

    def test_mixed_counter_types_rejected(self):
        eh = build_site_sketches(CounterType.EXPONENTIAL_HISTOGRAM, num_sites=1, records=50)[0]
        dw = build_site_sketches(CounterType.DETERMINISTIC_WAVE, num_sites=1, records=50)[0]
        with pytest.raises(IncompatibleSketchError):
            ECMSketch.aggregate([eh, dw])

    def test_mismatched_windows_rejected(self):
        small = ECMConfig.for_point_queries(epsilon=0.2, delta=0.2, window=100.0)
        large = ECMConfig.for_point_queries(epsilon=0.2, delta=0.2, window=200.0)
        with pytest.raises(IncompatibleSketchError):
            ECMSketch.aggregate([ECMSketch(small), ECMSketch(large)])


def build_columnar_sites(clock_kind, num_sites=4, records=500, window=WINDOW, seed=0):
    """Columnar exponential-histogram sites with int, float or mixed clocks.

    ``"mixed"`` gives the even sites float clocks and the odd sites int
    clocks, so some merged cells replay buckets of both types.
    """
    config = ECMConfig.for_point_queries(epsilon=0.15, delta=0.15, window=window)
    sketches = []
    for site in range(num_sites):
        rng = random.Random(seed * 1000 + site)
        floats = clock_kind == "float" or (clock_kind == "mixed" and site % 2 == 0)
        sketch = ECMSketch(config, stream_tag=site)
        clock = 0
        items, clocks, values = [], [], []
        for _ in range(records):
            clock += rng.choice([0, 1, 2, 7])
            items.append("key-%d" % rng.randrange(60))
            clocks.append(clock + 0.5 if floats else clock)
            values.append(rng.choice([1, 1, 1, 3]))
        sketch.add_many(items, clocks, values)
        sketches.append(sketch)
    return sketches


class TestColumnarGridMerge:
    """``ECMSketch.aggregate`` replays columnar grids whole; the per-cell
    replay of ``_aggregate_reference`` is the oracle."""

    @pytest.fixture(autouse=True, params=[False, True], ids=["numpy", "kernels"])
    def _use_kernels(self, request, monkeypatch):
        monkeypatch.setattr(columnar_eh, "USE_KERNELS", request.param)

    @staticmethod
    def assert_matches_reference(sketches, epsilon_prime=None):
        aggregate = ECMSketch.aggregate(sketches, epsilon_prime)
        assert aggregate.backend == "columnar"
        assert dumps(aggregate) == dumps(ECMSketch._aggregate_reference(sketches, epsilon_prime))
        return aggregate

    @pytest.mark.parametrize("clock_kind", ["int", "float", "mixed"])
    def test_clock_types(self, clock_kind):
        aggregate = self.assert_matches_reference(build_columnar_sites(clock_kind))
        assert aggregate._store._is_float.any() == (clock_kind != "int")

    @pytest.mark.parametrize("clock_kind", ["int", "float", "mixed"])
    def test_replay_expires_mid_run(self, clock_kind):
        # The sites span ~1,250 clock units, so the replay of each cell
        # expires its oldest buckets while later events still arrive.
        self.assert_matches_reference(build_columnar_sites(clock_kind, window=300.0))

    def test_float_cell_without_live_bucket_stays_int_in_the_merge(self):
        config = ECMConfig.for_point_queries(epsilon=0.15, delta=0.15, window=100.0)
        expired = ECMSketch(config, stream_tag=0)
        expired.add("key-1", 1.5)
        expired.expire(1_000)
        assert expired._store._is_float.any() and not expired._store.total_buckets()
        live = ECMSketch(config, stream_tag=1)
        live.add_many(["key-1", "key-2"] * 20, list(range(960, 1_000)))
        aggregate = self.assert_matches_reference([expired, live])
        assert not aggregate._store._is_float.any()
        assert type(aggregate.counter(0, aggregate.hashes.hash_all("key-1")[0]).last_clock) is int

    def test_empty_sketches(self):
        config = ECMConfig.for_point_queries(epsilon=0.15, delta=0.15, window=WINDOW)
        empty = [ECMSketch(config, stream_tag=tag) for tag in range(3)]
        aggregate = self.assert_matches_reference(empty)
        assert aggregate.total_arrivals() == 0 and aggregate.last_clock is None

    def test_single_input(self):
        self.assert_matches_reference(build_columnar_sites("mixed", num_sites=1))

    @pytest.mark.parametrize("epsilon_prime", [0.05, 0.3])
    def test_epsilon_prime(self, epsilon_prime):
        self.assert_matches_reference(build_columnar_sites("mixed", window=300.0), epsilon_prime)

    def test_hierarchical_aggregate(self):
        stacks = []
        for site in range(3):
            rng = random.Random(site)
            stack = HierarchicalECMSketch(
                universe_bits=5, epsilon=0.15, delta=0.15, window=500.0, seed=9, stream_tag=site
            )
            clocks = sorted(rng.randrange(2_000) for _ in range(300))
            stack.add_many([rng.randrange(32) for _ in clocks], clocks)
            stacks.append(stack)
        merged = HierarchicalECMSketch.aggregate(stacks)
        for level in range(5):
            levels = [stack.level_sketch(level) for stack in stacks]
            assert dumps(merged.level_sketch(level)) == dumps(ECMSketch._aggregate_reference(levels))

    def test_no_cell_goes_through_the_object_layout(self):
        sketches = build_columnar_sites("mixed")
        with histograms_built() as built:
            aggregate = ECMSketch.aggregate(sketches)
        assert built == []
        assert dumps(aggregate) == dumps(ECMSketch._aggregate_reference(sketches))
