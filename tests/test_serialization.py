"""Round-trip tests for the sketch wire format."""

from __future__ import annotations

import io
import json
import random

import numpy as np
import pytest

from repro.core import CountMinSketch, CounterType, ECMConfig, ECMSketch
from repro.core.errors import ConfigurationError
from repro.jsonstream import JSONStream
from repro.queries import FrequentItemsTracker, HierarchicalECMSketch
from repro.serialization import (
    FORMAT_VERSION,
    config_from_dict,
    config_to_dict,
    countmin_from_dict,
    countmin_to_dict,
    dumps,
    ecm_sketch_from_dict,
    ecm_sketch_to_dict,
    hierarchical_from_dict,
    hierarchical_to_dict,
    histogram_from_dict,
    histogram_to_dict,
    loads,
    randomized_wave_from_dict,
    randomized_wave_to_dict,
    read_ecm_sketch,
    read_hierarchical,
    to_json_pieces,
    tracker_from_dict,
    tracker_to_dict,
    wave_from_dict,
    wave_to_dict,
)
from repro.windows import DeterministicWave, ExponentialHistogram, RandomizedWave, columnar_eh

from .conftest import histograms_built, make_arrivals


WINDOW = 50_000.0


class TestWindowCounterRoundTrips:
    def test_exponential_histogram_round_trip(self, rng):
        histogram = ExponentialHistogram(epsilon=0.05, window=WINDOW)
        arrivals = make_arrivals(rng, 3_000, mean_gap=5.0)
        for clock in arrivals:
            histogram.add(clock)
        restored = histogram_from_dict(histogram_to_dict(histogram))
        now = histogram.last_clock
        for range_length in (100, 1_000, 10_000, WINDOW):
            assert restored.estimate(range_length, now=now) == histogram.estimate(range_length, now=now)
        assert restored.total_arrivals() == histogram.total_arrivals()
        assert restored.bucket_count() == histogram.bucket_count()

    def test_restored_histogram_keeps_ingesting(self, rng):
        histogram = ExponentialHistogram(epsilon=0.1, window=WINDOW)
        for clock in make_arrivals(rng, 500, mean_gap=5.0):
            histogram.add(clock)
        restored = histogram_from_dict(histogram_to_dict(histogram))
        follow_up = make_arrivals(rng, 500, mean_gap=5.0)
        base = histogram.last_clock
        for clock in follow_up:
            histogram.add(base + clock)
            restored.add(base + clock)
        now = histogram.last_clock
        assert restored.estimate(None, now=now) == histogram.estimate(None, now=now)

    def test_deterministic_wave_round_trip(self, rng):
        wave = DeterministicWave(epsilon=0.05, window=WINDOW, max_arrivals=10_000)
        for clock in make_arrivals(rng, 3_000, mean_gap=5.0):
            wave.add(clock)
        restored = wave_from_dict(wave_to_dict(wave))
        now = wave.last_clock
        for range_length in (100, 1_000, 10_000, WINDOW):
            assert restored.estimate(range_length, now=now) == wave.estimate(range_length, now=now)
        assert restored.checkpoint_count() == wave.checkpoint_count()

    def test_randomized_wave_round_trip(self, rng):
        wave = RandomizedWave(epsilon=0.15, delta=0.1, window=WINDOW, max_arrivals=10_000, seed=5)
        for clock in make_arrivals(rng, 2_000, mean_gap=5.0):
            wave.add(clock)
        restored = randomized_wave_from_dict(randomized_wave_to_dict(wave))
        now = wave.last_clock
        for range_length in (100, 1_000, 10_000, WINDOW):
            assert restored.estimate(range_length, now=now) == wave.estimate(range_length, now=now)
        assert restored.entry_count() == wave.entry_count()

    def test_restored_randomized_wave_still_merges(self, rng):
        a = RandomizedWave(epsilon=0.2, delta=0.2, window=WINDOW, max_arrivals=5_000, stream_tag=1)
        b = RandomizedWave(epsilon=0.2, delta=0.2, window=WINDOW, max_arrivals=5_000, stream_tag=2)
        for clock in make_arrivals(rng, 500, mean_gap=5.0):
            a.add(clock)
            b.add(clock + 0.5)
        restored = randomized_wave_from_dict(randomized_wave_to_dict(a))
        merged = RandomizedWave.merged([restored, b])
        assert merged.total_arrivals() == a.total_arrivals() + b.total_arrivals()


class TestCountMinAndConfig:
    def test_countmin_round_trip(self):
        rng = random.Random(2)
        sketch = CountMinSketch(width=64, depth=4, seed=9)
        for _ in range(2_000):
            sketch.add("key-%d" % rng.randrange(200))
        restored = countmin_from_dict(countmin_to_dict(sketch))
        assert restored.counters() == sketch.counters()
        assert restored.point_query("key-3") == sketch.point_query("key-3")
        assert restored.total() == sketch.total()

    def test_config_round_trip(self):
        config = ECMConfig.for_point_queries(
            epsilon=0.1, delta=0.1, window=WINDOW,
            counter_type=CounterType.DETERMINISTIC_WAVE, max_arrivals=5_000, seed=3,
        )
        restored = config_from_dict(config_to_dict(config))
        assert restored.epsilon_cm == config.epsilon_cm
        assert restored.epsilon_sw == config.epsilon_sw
        assert restored.counter_type is config.counter_type
        assert restored.width == config.width
        assert restored.depth == config.depth


class TestECMSketchRoundTrips:
    @pytest.mark.parametrize(
        "counter_type",
        [CounterType.EXPONENTIAL_HISTOGRAM, CounterType.DETERMINISTIC_WAVE, CounterType.RANDOMIZED_WAVE],
    )
    def test_round_trip_preserves_queries(self, uniform_trace, counter_type):
        sketch = ECMSketch.for_point_queries(
            epsilon=0.2, delta=0.2, window=WINDOW,
            counter_type=counter_type, max_arrivals=10_000,
        )
        for record in uniform_trace:
            sketch.add(record.key, record.timestamp, record.value)
        restored = ecm_sketch_from_dict(ecm_sketch_to_dict(sketch))
        now = uniform_trace.end_time()
        for key in list(uniform_trace.keys())[:15]:
            assert restored.point_query(key, now=now) == sketch.point_query(key, now=now)
        assert restored.total_arrivals() == sketch.total_arrivals()
        # Logical state is identical; allocation granularity of the columnar
        # arrays may differ, so compare the backend-independent synopsis.
        assert restored.synopsis_bytes() == sketch.synopsis_bytes()

    def test_restored_sketch_still_aggregates(self, uniform_trace):
        config = ECMConfig.for_point_queries(epsilon=0.1, delta=0.1, window=WINDOW)
        parts = [ECMSketch(config, stream_tag=i) for i in range(2)]
        for index, record in enumerate(uniform_trace):
            parts[index % 2].add(record.key, record.timestamp, record.value)
        shipped = [ecm_sketch_from_dict(ecm_sketch_to_dict(part)) for part in parts]
        merged = ECMSketch.aggregate(shipped)
        assert merged.total_arrivals() == len(uniform_trace)

    def test_shape_mismatch_rejected(self, uniform_trace):
        sketch = ECMSketch.for_point_queries(epsilon=0.2, delta=0.2, window=WINDOW)
        sketch.add("x", clock=1.0)
        payload = ecm_sketch_to_dict(sketch)
        payload["counters"] = payload["counters"][:1]
        with pytest.raises(ConfigurationError):
            ecm_sketch_from_dict(payload)


class TestHierarchicalRoundTrips:
    @pytest.mark.parametrize(
        "counter_type",
        [CounterType.EXPONENTIAL_HISTOGRAM, CounterType.DETERMINISTIC_WAVE, CounterType.RANDOMIZED_WAVE],
    )
    def test_round_trip_preserves_queries(self, rng, counter_type):
        stack = HierarchicalECMSketch(
            universe_bits=6, epsilon=0.2, delta=0.2, window=WINDOW,
            counter_type=counter_type, max_arrivals=10_000,
        )
        clocks = make_arrivals(rng, 600, mean_gap=5.0)
        keys = [rng.randrange(64) for _ in clocks]
        stack.add_many(keys, clocks)
        restored = hierarchical_from_dict(hierarchical_to_dict(stack))
        now = clocks[-1]
        for key in range(0, 64, 7):
            assert restored.point_query(key, now=now) == stack.point_query(key, now=now)
        assert restored.heavy_hitters(phi=0.05, now=now) == stack.heavy_hitters(phi=0.05, now=now)
        assert restored.quantiles([0.25, 0.5, 0.75], now=now) == stack.quantiles(
            [0.25, 0.5, 0.75], now=now
        )
        assert restored.range_query(3, 40, now=now) == stack.range_query(3, 40, now=now)
        assert restored.total_arrivals() == stack.total_arrivals()
        assert restored.synopsis_bytes() == stack.synopsis_bytes()

    def test_restored_stack_keeps_ingesting_and_aggregates(self, rng):
        stacks = []
        for tag in range(2):
            stack = HierarchicalECMSketch(
                universe_bits=5, epsilon=0.2, delta=0.2, window=WINDOW,
                seed=4, stream_tag=tag,
            )
            for clock in make_arrivals(rng, 200, mean_gap=5.0):
                stack.add(rng.randrange(32), clock)
            stacks.append(stack)
        shipped = [hierarchical_from_dict(hierarchical_to_dict(stack)) for stack in stacks]
        shipped[0].add(1, clock=1e9)
        merged = HierarchicalECMSketch.aggregate(shipped)
        assert merged.total_arrivals() == sum(stack.total_arrivals() for stack in stacks) + 1

    def test_level_count_mismatch_rejected(self):
        stack = HierarchicalECMSketch(universe_bits=4, epsilon=0.2, delta=0.2, window=WINDOW)
        stack.add(3, clock=1.0)
        payload = hierarchical_to_dict(stack)
        payload["levels"] = payload["levels"][:2]
        with pytest.raises(ConfigurationError):
            hierarchical_from_dict(payload)


class TestTrackerRoundTrips:
    def test_round_trip_preserves_dictionary_and_queries(self, rng):
        tracker = FrequentItemsTracker(
            epsilon=0.2, delta=0.2, window=WINDOW, universe_bits=6, seed=8
        )
        clocks = make_arrivals(rng, 400, mean_gap=5.0)
        keys = ["/page/%d" % rng.randrange(40) for _ in clocks]
        tracker.add_many(keys, clocks)
        restored = tracker_from_dict(tracker_to_dict(tracker))
        now = clocks[-1]
        assert restored.distinct_keys() == tracker.distinct_keys()
        assert restored.heavy_hitters(phi=0.05, now=now) == tracker.heavy_hitters(phi=0.05, now=now)
        for key in set(keys[:10]):
            assert restored.frequency(key, now=now) == tracker.frequency(key, now=now)
        # The restored tracker keeps encoding new keys after the old ones.
        restored.add("/page/new", clock=now + 1.0)
        assert restored.distinct_keys() == tracker.distinct_keys() + 1

    def test_duplicate_keys_rejected(self):
        tracker = FrequentItemsTracker(epsilon=0.2, delta=0.2, window=WINDOW, universe_bits=4)
        tracker.add("a", clock=1.0)
        tracker.add("b", clock=2.0)
        payload = tracker_to_dict(tracker)
        payload["keys"] = ["a", "a"]
        with pytest.raises(ConfigurationError):
            tracker_from_dict(payload)

    def test_non_json_keys_rejected_at_serialize_time(self):
        # A tuple key would survive dumps() as a JSON list and only explode at
        # load time; serialization must refuse it up front instead.
        tracker = FrequentItemsTracker(epsilon=0.2, delta=0.2, window=WINDOW, universe_bits=4)
        tracker.add(("src", "dst"), clock=1.0)
        with pytest.raises(ConfigurationError):
            tracker_to_dict(tracker)

    def test_unhashable_payload_keys_rejected_at_load_time(self):
        tracker = FrequentItemsTracker(epsilon=0.2, delta=0.2, window=WINDOW, universe_bits=4)
        tracker.add("a", clock=1.0)
        payload = tracker_to_dict(tracker)
        payload["keys"] = [["src", "dst"]]  # what a hand-written payload could hold
        with pytest.raises(ConfigurationError):
            tracker_from_dict(payload)


class TestJsonLayer:
    def test_dumps_loads_all_kinds(self, rng):
        histogram = ExponentialHistogram(epsilon=0.1, window=WINDOW)
        histogram.add(1.0)
        wave = DeterministicWave(epsilon=0.1, window=WINDOW, max_arrivals=100)
        wave.add(1.0)
        rw = RandomizedWave(epsilon=0.3, delta=0.3, window=WINDOW, max_arrivals=100)
        rw.add(1.0)
        cm = CountMinSketch(width=8, depth=2)
        cm.add("x")
        ecm = ECMSketch.for_point_queries(epsilon=0.2, delta=0.2, window=WINDOW)
        ecm.add("x", clock=1.0)
        config = ECMConfig.for_point_queries(epsilon=0.2, delta=0.2, window=WINDOW)
        stack = HierarchicalECMSketch(universe_bits=4, epsilon=0.2, delta=0.2, window=WINDOW)
        stack.add(3, clock=1.0)
        tracker = FrequentItemsTracker(epsilon=0.2, delta=0.2, window=WINDOW, universe_bits=4)
        tracker.add("x", clock=1.0)
        for obj, kind in [
            (histogram, ExponentialHistogram),
            (wave, DeterministicWave),
            (rw, RandomizedWave),
            (cm, CountMinSketch),
            (ecm, ECMSketch),
            (config, ECMConfig),
            (stack, HierarchicalECMSketch),
            (tracker, FrequentItemsTracker),
        ]:
            data = dumps(obj)
            assert isinstance(data, bytes)
            assert json.loads(data.decode())["version"] == FORMAT_VERSION
            restored = loads(data)
            assert isinstance(restored, kind)

    def test_loads_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            loads(b"not json at all {")
        with pytest.raises(ConfigurationError):
            loads(b'{"no": "kind"}')
        with pytest.raises(ConfigurationError):
            loads(b'{"kind": "mystery", "version": 1}')

    def test_version_mismatch_rejected(self):
        histogram = ExponentialHistogram(epsilon=0.1, window=WINDOW)
        payload = histogram_to_dict(histogram)
        payload["version"] = 999
        with pytest.raises(ConfigurationError):
            histogram_from_dict(payload)

    @pytest.mark.parametrize(
        "bucket, message",
        [
            ([3, 1, 2.5], "powers of two"),
            ([0, 1, 1], "powers of two"),
            ([-2, 1, 2], "powers of two"),
            ([2.0, 1, 2], "powers of two"),
            ([True, 1, 1], "powers of two"),
            ([1, 1, 2], "start and end must match"),
        ],
    )
    def test_histogram_rejects_buckets_no_eh_can_hold(self, bucket, message):
        payload = histogram_to_dict(ExponentialHistogram(epsilon=0.1, window=WINDOW))
        payload["buckets"] = [bucket]
        with pytest.raises(ConfigurationError, match=message):
            histogram_from_dict(payload)
        # The same cell in a sketch, decoded whole and streamed.
        sketch = ecm_sketch_to_dict(ECMSketch.for_point_queries(epsilon=0.1, delta=0.1, window=WINDOW))
        sketch["counters"][0][0]["buckets"] = [bucket]
        with pytest.raises(ConfigurationError, match=message):
            ecm_sketch_from_dict(sketch)
        with pytest.raises(ConfigurationError, match=message):
            read_ecm_sketch(JSONStream(io.StringIO(json.dumps(sketch))))

    def test_dumps_rejects_unknown_type(self):
        with pytest.raises(ConfigurationError):
            dumps(object())  # type: ignore[arg-type]

    def test_wire_size_tracks_memory_model(self, uniform_trace):
        """The JSON payload should be the same order of magnitude as the
        analytical 32-bit footprint (it is a textual encoding, so larger,
        but not wildly so)."""
        sketch = ECMSketch.for_point_queries(epsilon=0.2, delta=0.2, window=WINDOW)
        for record in uniform_trace:
            sketch.add(record.key, record.timestamp, record.value)
        payload = dumps(sketch)
        assert len(payload) < 40 * sketch.synopsis_bytes()


class TestColumnarCellsBuildNoHistogram:
    """An exponential-histogram grid is encoded from, decoded into and
    aggregated on its columnar store's arrays: no ``ExponentialHistogram``
    is built on the way."""

    @pytest.fixture(autouse=True, params=[False, True], ids=["numpy", "kernels"])
    def _use_kernels(self, request, monkeypatch):
        monkeypatch.setattr(columnar_eh, "USE_KERNELS", request.param)

    @staticmethod
    def _sites() -> list[ECMSketch]:
        """Two sketches of one configuration: int clocks with weights, and
        mixed clocks (so float cells) that cross the window."""
        config = ECMConfig.for_point_queries(epsilon=0.1, delta=0.1, window=300.0)
        rng = np.random.default_rng(4)
        sites = [ECMSketch(config, stream_tag=tag) for tag in range(2)]
        keys = rng.integers(0, 200, 3_000).tolist()
        sites[0].add_many(keys, list(range(3_000)), rng.integers(1, 5, 3_000).tolist())
        sites[1].add_many(keys, [index if index % 3 else index + 0.5 for index in range(3_000)])
        return sites

    def test_codec_and_aggregation_build_no_histogram(self):
        sites = self._sites()
        stack = HierarchicalECMSketch(universe_bits=5, epsilon=0.15, delta=0.15, window=300.0)
        stack.add_many([index % 32 for index in range(2_000)], list(range(2_000)))
        expected = [dumps(site) for site in sites]
        stack_text = dumps(stack).decode()
        operations = {
            "dumps": lambda: [dumps(site) for site in sites],
            "to_json_pieces": lambda: ["".join(to_json_pieces(site)) for site in sites],
            "loads": lambda: [loads(data) for data in expected],
            "read_ecm_sketch": lambda: [
                read_ecm_sketch(JSONStream(io.StringIO(data.decode()))) for data in expected
            ],
            "read_hierarchical": lambda: read_hierarchical(JSONStream(io.StringIO(stack_text))),
            "aggregate": lambda: ECMSketch.aggregate(sites),
            "hierarchical aggregate": lambda: HierarchicalECMSketch.aggregate([stack, stack]),
        }
        built = {}
        results = {}
        for name, operation in operations.items():
            with histograms_built() as histograms:
                results[name] = operation()
            built[name] = len(histograms)
        assert built == dict.fromkeys(operations, 0)
        assert [data.decode() for data in results["dumps"]] == results["to_json_pieces"]
        assert results["dumps"] == expected
        for name in ("loads", "read_ecm_sketch"):
            assert [dumps(sketch) for sketch in results[name]] == expected
        assert dumps(results["read_hierarchical"]).decode() == stack_text
        assert dumps(results["aggregate"]) == dumps(ECMSketch._aggregate_reference(sites))
        # The spy does see histograms: a cell read through ``counter`` is one.
        with histograms_built() as histograms:
            sites[1].counter(0, 0)
        assert len(histograms) == 1
