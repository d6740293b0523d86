"""Equivalence tests for the batched ingestion and query fast paths.

The batched APIs (``HashFamily.hash_many``, ``CountMinSketch.add_many`` /
``point_query_many``, ``ECMSketch.add_many`` / ``point_query_many`` and the
``SlidingWindowCounter.add_batch`` seam) promise *byte-identical* sketch state
and answers relative to the scalar path.  These tests drive random streams
through both paths — across all three counter types and both window models —
and compare the full serialized wire format, which captures every bucket,
checkpoint and sample.
"""

from __future__ import annotations

import random

import pytest

from repro.core import CounterType, CountMinSketch, ECMSketch
from repro.core import ecm_sketch as ecm_sketch_module
from repro.core.errors import ConfigurationError, OutOfOrderArrivalError
from repro.core.hashing import HashFamily, MERSENNE_PRIME_61
from repro.serialization import dumps, histogram_to_dict
from repro.windows import ExponentialHistogram, WindowModel

ALL_COUNTER_TYPES = (
    CounterType.EXPONENTIAL_HISTOGRAM,
    CounterType.DETERMINISTIC_WAVE,
    CounterType.RANDOMIZED_WAVE,
)
ALL_MODELS = (WindowModel.TIME_BASED, WindowModel.COUNT_BASED)


def make_keyed_stream(rng: random.Random, count: int, model: WindowModel, distinct: int = 40):
    """A random stream of (item, clock, value) triples with repeated clocks."""
    clock = 0.0 if model is WindowModel.TIME_BASED else 0
    items, clocks, values = [], [], []
    for _ in range(count):
        if model is WindowModel.TIME_BASED:
            clock = clock + rng.choice([0.0, 0.5, rng.random() * 3.0])
        else:
            clock = clock + 1
        items.append("key-%d" % rng.randrange(distinct))
        clocks.append(clock)
        values.append(rng.choice([0, 1, 1, 1, 2, 3]))
    return items, clocks, values


class TestHashManyEquivalence:
    def test_matches_hash_all_for_mixed_items(self):
        rng = random.Random(1)
        family = HashFamily(depth=5, width=277, seed=17)
        items = (
            [rng.randrange(-(2 ** 63), 2 ** 64) for _ in range(64)]
            + ["key-%d" % i for i in range(64)]
            + [0, 1, True, False, b"bytes", (1, "tuple"), 3.5,
               MERSENNE_PRIME_61 - 1, MERSENNE_PRIME_61, MERSENNE_PRIME_61 + 1, 2 ** 64 - 1]
        )
        columns = family.hash_many(items)
        assert columns.shape == (5, len(items))
        for position, item in enumerate(items):
            assert [int(columns[row, position]) for row in range(5)] == family.hash_all(item)

    def test_numpy_integer_arrays_agree_with_scalar_fingerprints(self):
        # A numpy integer array must hash exactly like its elements do when
        # fed one at a time (np.int64 is not a Python int, but fingerprints
        # like one), otherwise batch- and scalar-ingested keys land in
        # different cells.
        import numpy as np

        from repro.core.hashing import stable_fingerprint, stable_fingerprints

        array = np.array([0, 1, 5, -1, 2 ** 62, -(2 ** 62)], dtype=np.int64)
        vectorized = stable_fingerprints(array)
        for position, element in enumerate(array):
            assert int(vectorized[position]) == stable_fingerprint(element)
            assert stable_fingerprint(element) == stable_fingerprint(int(element))

        family = HashFamily(depth=3, width=101, seed=4)
        columns = family.hash_many(array)
        for position, element in enumerate(array):
            assert [int(columns[row, position]) for row in range(3)] == family.hash_all(element)

    def test_numpy_integer_items_roundtrip_through_sketch(self):
        import numpy as np

        sketch = CountMinSketch(width=32, depth=3, seed=2)
        sketch.add(np.int64(5))
        assert sketch.point_query_many(np.array([5], dtype=np.int64)) == [1.0]
        assert sketch.point_query(np.int64(5)) == 1.0
        assert sketch.point_query(5) == 1.0

    @pytest.mark.parametrize("width", [1, 2, 7, 1000, 2 ** 31 - 1])
    def test_matches_hash_all_across_widths(self, width):
        rng = random.Random(width)
        family = HashFamily(depth=3, width=width, seed=5)
        items = [rng.randrange(2 ** 64) for _ in range(200)]
        columns = family.hash_many(items)
        for position, item in enumerate(items):
            assert [int(columns[row, position]) for row in range(3)] == family.hash_all(item)


class TestCountMinBatchEquivalence:
    def test_add_many_matches_scalar_state(self):
        rng = random.Random(2)
        scalar = CountMinSketch(width=50, depth=4, seed=9)
        batched = CountMinSketch(width=50, depth=4, seed=9)
        items = ["item-%d" % rng.randrange(30) for _ in range(500)]
        values = [float(rng.randrange(1, 4)) for _ in items]
        for item, value in zip(items, values, strict=False):
            scalar.add(item, value)
        position = 0
        while position < len(items):
            step = rng.choice([1, 7, 64, 200])
            batched.add_many(items[position : position + step], values[position : position + step])
            position += step
        assert dumps(scalar) == dumps(batched)

    def test_add_many_unit_weights(self):
        items = ["a", "b", "a", "c", "a", "b"]
        scalar = CountMinSketch(width=16, depth=3)
        batched = CountMinSketch(width=16, depth=3)
        for item in items:
            scalar.add(item)
        batched.add_many(items)
        assert dumps(scalar) == dumps(batched)
        assert batched.total() == len(items)

    def test_point_query_many_matches_scalar(self):
        rng = random.Random(3)
        sketch = CountMinSketch(width=40, depth=4, seed=1)
        sketch.add_many(["item-%d" % rng.randrange(25) for _ in range(400)])
        probes = ["item-%d" % i for i in range(30)]
        assert sketch.point_query_many(probes) == [sketch.point_query(p) for p in probes]

    def test_empty_batch_is_a_noop(self):
        sketch = CountMinSketch(width=8, depth=2)
        before = dumps(sketch)
        sketch.add_many([])
        assert dumps(sketch) == before
        assert sketch.point_query_many([]) == []

    def test_rejects_negative_values(self):
        sketch = CountMinSketch(width=8, depth=2)
        with pytest.raises(ConfigurationError):
            sketch.add_many(["a", "b"], [1.0, -2.0])

    def test_rejects_length_mismatch(self):
        sketch = CountMinSketch(width=8, depth=2)
        with pytest.raises(ConfigurationError):
            sketch.add_many(["a", "b"], [1.0])


class TestExponentialHistogramAddBatch:
    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("window", [5.0, 200.0, 1e6])
    def test_matches_scalar_including_mid_run_expiry(self, model, window):
        rng = random.Random(int(window))
        clock, clocks, counts = 0.0, [], []
        for _ in range(400):
            clock += rng.choice([0.0, 0.0, rng.random() * 4.0])
            clocks.append(clock)
            counts.append(rng.choice([0, 1, 1, 2, 5]))
        scalar = ExponentialHistogram(epsilon=0.1, window=window, model=model)
        batched = ExponentialHistogram(epsilon=0.1, window=window, model=model)
        for c, k in zip(clocks, counts, strict=False):
            scalar.add(c, k)
        batched.add_batch(clocks, counts)
        assert histogram_to_dict(scalar) == histogram_to_dict(batched)
        assert scalar.arrivals_in_window_upper_bound() == batched.arrivals_in_window_upper_bound()

    def test_unit_fast_path_matches_scalar(self):
        rng = random.Random(8)
        clocks = []
        clock = 0.0
        for _ in range(600):
            clock += rng.random()
            clocks.append(clock)
        scalar = ExponentialHistogram(epsilon=0.05, window=1e9)
        batched = ExponentialHistogram(epsilon=0.05, window=1e9)
        for c in clocks:
            scalar.add(c)
        position = 0
        while position < len(clocks):
            step = rng.choice([1, 13, 100])
            batched.add_batch(clocks[position : position + step])
            position += step
        assert histogram_to_dict(scalar) == histogram_to_dict(batched)

    def test_out_of_order_batch_raises_before_mutation(self):
        histogram = ExponentialHistogram(epsilon=0.1, window=100.0)
        histogram.add(10.0)
        before = histogram_to_dict(histogram)
        with pytest.raises(OutOfOrderArrivalError):
            histogram.add_batch([11.0, 5.0])
        with pytest.raises(OutOfOrderArrivalError):
            histogram.add_batch([11.0, 5.0], [1, 1])
        with pytest.raises(ConfigurationError):
            histogram.add_batch([11.0, 12.0], [1, -1])
        # Unlike scalar adds (which commit the prefix), a bad batch is atomic.
        assert histogram_to_dict(histogram) == before


class TestECMSketchBatchEquivalence:
    @pytest.mark.parametrize("counter_type", ALL_COUNTER_TYPES, ids=lambda c: c.value)
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.value)
    def test_add_many_state_is_byte_identical(self, counter_type, model):
        rng = random.Random(42)
        kwargs = dict(
            epsilon=0.2,
            delta=0.2,
            window=300.0,
            model=model,
            counter_type=counter_type,
            max_arrivals=5000,
            stream_tag=7,
        )
        scalar = ECMSketch.for_point_queries(**kwargs)
        batched = ECMSketch.for_point_queries(**kwargs)
        items, clocks, values = make_keyed_stream(rng, 800, model)
        for item, clock, value in zip(items, clocks, values, strict=False):
            scalar.add(item, clock, value)
        position = 0
        while position < len(items):
            step = rng.choice([1, 5, 64, 256])
            batched.add_many(
                items[position : position + step],
                clocks[position : position + step],
                values[position : position + step],
            )
            position += step
        # The serialized wire format captures every bucket / checkpoint /
        # sample, so equality here means byte-identical sketch state.
        assert dumps(scalar) == dumps(batched)

    @pytest.mark.parametrize("counter_type", ALL_COUNTER_TYPES, ids=lambda c: c.value)
    def test_point_query_many_matches_scalar(self, counter_type):
        rng = random.Random(13)
        sketch = ECMSketch.for_point_queries(
            epsilon=0.2, delta=0.2, window=500.0,
            counter_type=counter_type, max_arrivals=5000,
        )
        items, clocks, _ = make_keyed_stream(rng, 600, WindowModel.TIME_BASED)
        sketch.add_many(items, clocks)
        probes = ["key-%d" % index for index in range(50)]
        batched_answers = sketch.point_query_many(probes, 200.0)
        scalar_answers = [sketch.point_query(probe, 200.0) for probe in probes]
        assert batched_answers == scalar_answers

    def test_unit_weight_batches_match_scalar(self):
        rng = random.Random(21)
        scalar = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=1e6)
        batched = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=1e6)
        items, clocks, _ = make_keyed_stream(rng, 1000, WindowModel.TIME_BASED, distinct=200)
        for item, clock in zip(items, clocks, strict=False):
            scalar.add(item, clock)
        batched.add_many(items, clocks)
        assert dumps(scalar) == dumps(batched)

    def test_mixed_key_types_do_not_alias(self):
        # 1, 1.0, True and "1" hash differently (or identically) exactly as in
        # the scalar path; the fingerprint memo must not conflate them.
        scalar = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=1e6)
        batched = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=1e6)
        items = [1, 1.0, True, "1", (1,), 1, "1", 1.0] * 20
        clocks = [float(index) for index in range(len(items))]
        for item, clock in zip(items, clocks, strict=False):
            scalar.add(item, clock)
        batched.add_many(items, clocks)
        assert dumps(scalar) == dumps(batched)

    @pytest.mark.parametrize("layout", ["columnar", "object"])
    def test_mixed_int_float_clocks_stay_byte_identical(self, layout):
        # np.asarray would promote a mixed clock list to float64; a cell that
        # took only int clocks must still print them as ints.  NumPy scalar
        # clocks store as the Python scalars a batch stores.
        import numpy as np

        config = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=1e6).config
        make = ECMSketch if layout == "columnar" else ECMSketch._on_object_store
        scalar, batched = make(config), make(config)
        items = ["x", "y", "x", "z"]
        clocks = [1, 2.5, 7, 9]
        for item, clock in zip(items, clocks, strict=False):
            scalar.add(item, np.int64(clock) if type(clock) is int else np.float64(clock))
        batched.add_many(items, clocks)
        assert dumps(scalar) == dumps(batched)
        assert type(scalar.last_clock) is int

    def test_add_batch_rejects_length_mismatch(self):
        histogram = ExponentialHistogram(epsilon=0.1, window=100.0)
        with pytest.raises(ConfigurationError):
            histogram.add_batch([1.0, 2.0, 3.0], [1, 1])
        from repro.windows.exact_window import ExactWindowCounter

        exact = ExactWindowCounter(window=100.0)
        with pytest.raises(ConfigurationError):
            exact.add_batch([1.0, 2.0, 3.0], [5])
        assert exact.total_arrivals() == 0

    def test_zero_values_are_skipped_like_scalar(self):
        scalar = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=1e6)
        batched = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=1e6)
        scalar.add("a", 1.0, 2)
        # a zero-weight arrival never advances the scalar clock
        scalar.add("c", 5.0, 1)
        batched.add_many(["a", "b", "c"], [1.0, 3.0, 5.0], [2, 0, 1])
        assert dumps(scalar) == dumps(batched)
        assert batched.total_arrivals() == 3

    def test_all_zero_batch_is_a_noop(self):
        sketch = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=1e6)
        sketch.add("a", 1.0)
        before = dumps(sketch)
        sketch.add_many(["b", "c"], [2.0, 3.0], [0, 0])
        assert dumps(sketch) == before

    def test_out_of_order_batch_raises_before_mutation(self):
        sketch = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=1e6)
        sketch.add("a", 10.0)
        before = dumps(sketch)
        with pytest.raises(OutOfOrderArrivalError):
            sketch.add_many(["b", "c"], [11.0, 5.0])
        assert dumps(sketch) == before

    def test_negative_value_raises_before_mutation(self):
        sketch = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=1e6)
        before = dumps(sketch)
        with pytest.raises(ConfigurationError):
            sketch.add_many(["a", "b"], [1.0, 2.0], [1, -1])
        assert dumps(sketch) == before

    def test_length_mismatch_raises(self):
        sketch = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=1e6)
        with pytest.raises(ConfigurationError):
            sketch.add_many(["a", "b"], [1.0])
        with pytest.raises(ConfigurationError):
            sketch.add_many(["a", "b"], [1.0, 2.0], [1])

    def test_batched_sketches_still_aggregate(self):
        rng = random.Random(33)
        config_kwargs = dict(epsilon=0.2, delta=0.2, window=1e6)
        locals_scalar = [
            ECMSketch.for_point_queries(stream_tag=tag, **config_kwargs) for tag in range(2)
        ]
        locals_batched = [
            ECMSketch.for_point_queries(stream_tag=tag, **config_kwargs) for tag in range(2)
        ]
        for tag in range(2):
            items, clocks, _ = make_keyed_stream(rng, 300, WindowModel.TIME_BASED)
            for item, clock in zip(items, clocks, strict=False):
                locals_scalar[tag].add(item, clock)
            locals_batched[tag].add_many(items, clocks)
        merged_scalar = ECMSketch.aggregate(locals_scalar)
        merged_batched = ECMSketch.aggregate(locals_batched)
        assert dumps(merged_scalar) == dumps(merged_batched)


class TestRejectedWeights:
    """A weight that is not a non-negative integer fails before any cell moves."""

    LAYOUTS = {
        "columnar": lambda config: ECMSketch(config),
        "object": lambda config: ECMSketch._on_object_store(config),
    }

    @staticmethod
    def _sketch(layout):
        sketch = TestRejectedWeights.LAYOUTS[layout](
            ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=1e6).config
        )
        sketch.add("z", 0.0, 3)
        assert sketch.backend == layout
        return sketch

    @pytest.mark.parametrize("layout", ["columnar", "object"])
    @pytest.mark.parametrize(
        "bad",
        [1.5, 1.0, True, -1, 2**63],
        ids=["float", "integral-float", "bool", "negative", "int64-overflow"],
    )
    def test_add_leaves_the_sketch_untouched(self, layout, bad):
        sketch = self._sketch(layout)
        before = dumps(sketch)
        with pytest.raises(ConfigurationError, match="non-negative integers"):
            sketch.add("q", 5.0, bad)
        assert dumps(sketch) == before
        assert sketch._total_arrivals == 3

    @pytest.mark.parametrize("layout", ["columnar", "object"])
    @pytest.mark.parametrize(
        "length", [3, ecm_sketch_module._SCALAR_RUN_LIMIT + 8], ids=["scalar-run", "vector-run"]
    )
    @pytest.mark.parametrize(
        "bad", [1.5, True, -1, 2**63], ids=["float", "bool", "negative", "int64-overflow"]
    )
    def test_add_many_leaves_the_sketch_untouched(self, layout, length, bad):
        # The bad weight comes last, after weights the store would accept.
        sketch = self._sketch(layout)
        before = dumps(sketch)
        items = ["k%d" % (index % 5) for index in range(length)]
        clocks = [float(index + 1) for index in range(length)]
        values = [1 + index % 3 for index in range(length - 1)] + [bad]
        with pytest.raises(ConfigurationError, match="non-negative integers"):
            sketch.add_many(items, clocks, values)
        assert dumps(sketch) == before
        assert sketch._total_arrivals == 3

    @pytest.mark.parametrize("layout", ["columnar", "object"])
    def test_add_many_rejects_a_float_array(self, layout):
        import numpy as np

        sketch = self._sketch(layout)
        before = dumps(sketch)
        length = ecm_sketch_module._SCALAR_RUN_LIMIT + 8
        with pytest.raises(ConfigurationError, match="non-negative integers"):
            sketch.add_many(["a"] * length, [float(i + 1) for i in range(length)], np.ones(length))
        assert dumps(sketch) == before
        assert sketch._total_arrivals == 3

    @pytest.mark.parametrize("layout", ["columnar", "object"])
    def test_add_many_rejects_a_uint64_array_beyond_int64(self, layout):
        import numpy as np

        sketch = self._sketch(layout)
        before = dumps(sketch)
        length = ecm_sketch_module._SCALAR_RUN_LIMIT + 8
        values = np.ones(length, dtype=np.uint64)
        values[-1] = 2**63
        with pytest.raises(ConfigurationError, match="non-negative integers"):
            sketch.add_many(["a"] * length, [float(i + 1) for i in range(length)], values)
        assert dumps(sketch) == before
        assert sketch._total_arrivals == 3

    @pytest.mark.parametrize("dtype", ["int64", "uint32"])
    def test_integer_arrays_stay_on_the_vector_path(self, dtype, monkeypatch):
        import numpy as np

        length = ecm_sketch_module._SCALAR_RUN_LIMIT + 8
        items = ["k%d" % (index % 5) for index in range(length)]
        clocks = [float(index + 1) for index in range(length)]
        values = [1 + index % 3 for index in range(length)]
        scalar = self._sketch("columnar")
        for item, clock, value in zip(items, clocks, values, strict=False):
            scalar.add(item, clock, value)
        batched = self._sketch("columnar")
        monkeypatch.setattr(
            ECMSketch, "add", lambda *args: pytest.fail("integer weights left the vector path")
        )
        batched.add_many(items, clocks, np.array(values, dtype=dtype))
        assert dumps(batched) == dumps(scalar)
        assert batched._total_arrivals == scalar._total_arrivals


class TestScalarRunLimit:
    """``add_many`` replays runs below ``_SCALAR_RUN_LIMIT`` through ``add``."""

    @pytest.mark.parametrize("counter_type", ALL_COUNTER_TYPES, ids=lambda c: c.value)
    def test_runs_around_the_limit_match_scalar(self, counter_type):
        import numpy as np

        limit = ecm_sketch_module._SCALAR_RUN_LIMIT
        rng = random.Random(5)
        kwargs = dict(epsilon=0.2, delta=0.2, window=300.0, counter_type=counter_type,
                      max_arrivals=5000, stream_tag=3)
        scalar = ECMSketch.for_point_queries(**kwargs)
        batched = ECMSketch.for_point_queries(**kwargs)
        items, clocks, values = make_keyed_stream(rng, 6 * limit, WindowModel.TIME_BASED)
        items = [int(item[4:]) for item in items]
        for item, clock, value in zip(items, clocks, values, strict=False):
            scalar.add(item, clock, value)
        position = 0
        for step in (limit - 1, limit, limit + 1, 1, limit - 1, limit):
            stop = position + step
            # NumPy columns, as the hierarchical stack hands them over.
            batched.add_many(
                np.array(items[position:stop], dtype=np.int64),
                np.array(clocks[position:stop]),
                np.array(values[position:stop], dtype=np.int64),
            )
            position = stop
        batched.add_many(items[position:], clocks[position:], values[position:])
        assert dumps(scalar) == dumps(batched)
        assert type(batched.total_arrivals()) is int
        assert type(batched.last_clock) is float

    def test_short_runs_skip_the_vectorized_pass(self, monkeypatch):
        limit = ecm_sketch_module._SCALAR_RUN_LIMIT
        sketch = ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=1e6)
        calls = []
        original = sketch._store.ingest_sorted_rows
        monkeypatch.setattr(
            sketch._store, "ingest_sorted_rows", lambda rows: calls.append(rows) or original(rows)
        )
        sketch.add_many(["a"] * (limit - 1), [float(i) for i in range(limit - 1)])
        assert calls == []
        sketch.add_many(["a"] * limit, [float(limit + i) for i in range(limit)])
        assert len(calls) == 1
        assert sketch.total_arrivals() == 2 * limit - 1
        # NumPy scalars inside a plain list leave Python ones behind, as on
        # the vectorized pass (the JSON wire format needs them).
        import numpy as np

        sketch.add_many(["b"], [np.float64(3 * limit)], [np.int64(2)])
        assert len(calls) == 1
        assert type(sketch.last_clock) is float
        assert type(sketch.total_arrivals()) is int
        assert sketch.total_arrivals() == 2 * limit + 1

    @pytest.mark.parametrize("counter_type", ALL_COUNTER_TYPES, ids=lambda c: c.value)
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.value)
    def test_vectorized_pass_on_short_runs_matches_scalar(self, counter_type, model, monkeypatch):
        # With the limit off, short runs (and the mixed-clock and zero-weight
        # corners above) still exercise the vectorized pass.
        monkeypatch.setattr(ecm_sketch_module, "_SCALAR_RUN_LIMIT", 0)
        rng = random.Random(17)
        kwargs = dict(epsilon=0.2, delta=0.2, window=300.0, model=model,
                      counter_type=counter_type, max_arrivals=5000, stream_tag=7)
        scalar = ECMSketch.for_point_queries(**kwargs)
        batched = ECMSketch.for_point_queries(**kwargs)
        items, clocks, values = make_keyed_stream(rng, 300, model)
        for item, clock, value in zip(items, clocks, values, strict=False):
            scalar.add(item, clock, value)
        position = 0
        while position < len(items):
            step = rng.choice([1, 2, 5, 13])
            batched.add_many(
                items[position : position + step],
                clocks[position : position + step],
                values[position : position + step],
            )
            position += step
        assert dumps(scalar) == dumps(batched)
        mixed_scalar = ECMSketch.for_point_queries(**kwargs)
        mixed_batched = ECMSketch.for_point_queries(**kwargs)
        mixed_items, mixed_clocks, mixed_values = ["x", "y", "x", "z"], [1, 2.5, 7, 9], [2, 0, 1, 1]
        for item, clock, value in zip(mixed_items, mixed_clocks, mixed_values, strict=False):
            mixed_scalar.add(item, clock, value)
        mixed_batched.add_many(mixed_items, mixed_clocks, mixed_values)
        assert dumps(mixed_scalar) == dumps(mixed_batched)


class TestStreamAndNodeBatching:
    def _make_stream(self, count: int = 500):
        from repro.streams import Stream, StreamRecord

        rng = random.Random(55)
        clock = 0.0
        records = []
        for _ in range(count):
            clock += rng.random()
            records.append(
                StreamRecord(timestamp=clock, key="key-%d" % rng.randrange(30), node=0,
                             value=rng.choice([1, 1, 1, 2]))
            )
        return Stream(records)

    def test_iter_batches_covers_stream_in_order(self):
        stream = self._make_stream(101)
        chunks = list(stream.iter_batches(25))
        assert [len(chunk) for chunk in chunks] == [25, 25, 25, 25, 1]
        flattened = [record for chunk in chunks for record in chunk]
        assert flattened == list(stream)

    def test_iter_batches_rejects_nonpositive_size(self):
        stream = self._make_stream(5)
        with pytest.raises(ConfigurationError):
            list(stream.iter_batches(0))

    def test_columns_pivot_matches_records(self):
        stream = self._make_stream(50)
        keys, timestamps, values = stream.columns()
        assert keys == [record.key for record in stream]
        assert timestamps == [record.timestamp for record in stream]
        assert values == [record.value for record in stream]

    def test_node_batched_observe_matches_scalar(self):
        from repro.core.config import ECMConfig
        from repro.distributed.node import StreamNode

        stream = self._make_stream(400)
        config = ECMConfig.for_point_queries(epsilon=0.2, delta=0.2, window=1e6)
        scalar_node = StreamNode(node_id=1, config=config)
        batched_node = StreamNode(node_id=1, config=config)
        for record in stream:
            scalar_node.observe(record.key, record.timestamp, record.value)
        batched_node.observe_stream(stream, batch_size=64)
        assert dumps(scalar_node.sketch) == dumps(batched_node.sketch)
        assert scalar_node.records_processed == batched_node.records_processed
