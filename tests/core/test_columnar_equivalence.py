"""Cross-layout equivalence: columnar vs object counter stores.

The columnar store is a pure storage/execution change: for every counter
lifecycle — scalar adds, batched adds (weighted and unweighted, int and float
clocks, window-crossing runs), whole-grid expiry sweeps, merges and
serialization round-trips — the sketch must be *observably identical* to the
object-per-cell reference layout (``ECMSketch._on_object_store``, which no
configuration reaches): identical estimates (bitwise), identical
per-cell bucket structures, and byte-identical serialized state.

Every scenario runs twice, once with the columnar store's NumPy hot loops and
once with its kernels (``columnar_eh.USE_KERNELS`` set for the test).
Without numba the kernels then run as interpreted Python, so the equivalence
contract covers the kernel algorithms, not just their compiled forms.

The deterministic tests pin the named scenarios; the hypothesis driver
(``slow`` marker) explores random interleavings of the whole lifecycle.
"""

from __future__ import annotations

import contextlib
import errno
import io
import json
import math
import mmap
import random
import time
import tracemalloc
from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ECMConfig, ECMSketch
from repro.core.errors import ConfigurationError
from repro.jsonstream import JSONStream
from repro.serialization import (
    dumps,
    ecm_sketch_from_dict,
    ecm_sketch_to_dict,
    histogram_from_dict,
    loads,
    read_ecm_sketch,
)
from repro.windows import ColumnarEHStore, WindowModel, columnar_eh
from repro.windows._eh_kernels import HAVE_NUMBA

from ..conftest import histograms_built

WINDOW = 400.0


@contextlib.contextmanager
def _kernels(use_kernels: bool) -> Iterator[None]:
    """Run the columnar hot loops through the kernels (or NumPy) inside the block."""
    previous = columnar_eh.USE_KERNELS
    columnar_eh.USE_KERNELS = use_kernels
    try:
        yield
    finally:
        columnar_eh.USE_KERNELS = previous


def _pair(
    epsilon: float = 0.15,
    delta: float = 0.2,
    window: float = WINDOW,
    model: WindowModel = WindowModel.TIME_BASED,
    seed: int = 3,
) -> tuple[ECMSketch, ECMSketch]:
    """The same configuration on the object reference and the columnar layout."""
    config = ECMConfig.for_point_queries(
        epsilon=epsilon, delta=delta, window=window, model=model, seed=seed
    )
    return ECMSketch._on_object_store(config), ECMSketch(config)


class _KernelSettingsCase:
    """Runs every test of a subclass with the kernels off and on."""

    @pytest.fixture(autouse=True, params=[False, True], ids=["numpy", "kernels"])
    def _use_kernels(self, request, monkeypatch) -> None:
        monkeypatch.setattr(columnar_eh, "USE_KERNELS", request.param)


def _forbid_replay(monkeypatch) -> None:
    """Fail the test if a batched ingest replays a cell through the reference
    (builds an ``ExponentialHistogram``)."""
    ingest = ColumnarEHStore.ingest_sorted_rows

    def guarded(self, payloads):
        with histograms_built() as built:
            ingest(self, payloads)
        assert built == [], "a cell replayed through the reference"

    monkeypatch.setattr(ColumnarEHStore, "ingest_sorted_rows", guarded)


def _assert_twins(reference: ECMSketch, columnar: ECMSketch, keys) -> None:
    """Full observational equality of the two sketches."""
    assert dumps(reference) == dumps(columnar)
    for row in range(reference.depth):
        for column in range(reference.width):
            assert (
                reference.counter(row, column).bucket_count()
                == columnar.counter(row, column).bucket_count()
            )
    for key in keys:
        for range_length in (None, WINDOW / 7, WINDOW / 2, WINDOW):
            assert reference.point_query(key, range_length) == columnar.point_query(
                key, range_length
            )
    assert reference.self_join() == columnar.self_join()
    assert reference.estimate_arrivals() == columnar.estimate_arrivals()
    assert reference.synopsis_bytes() == columnar.synopsis_bytes()
    assert reference.serialized_bytes() == columnar.serialized_bytes()


class TestDeterministicLifecycles(_KernelSettingsCase):
    def test_layouts(self):
        reference, columnar = _pair()
        assert reference.backend == "object"
        assert columnar.backend == "columnar"
        assert isinstance(columnar._store, ColumnarEHStore)

    def test_scalar_adds(self):
        reference, columnar = _pair()
        for t in range(200):
            for sketch in (reference, columnar):
                sketch.add("k%d" % (t % 17), clock=float(t), value=1 + t % 3)
        _assert_twins(reference, columnar, ["k%d" % i for i in range(17)])

    def test_scalar_adds_integer_clocks(self):
        reference, columnar = _pair()
        for t in range(150):
            for sketch in (reference, columnar):
                sketch.add(t % 11, clock=t)
        _assert_twins(reference, columnar, list(range(11)))

    @pytest.mark.parametrize("integer_clocks", [False, True], ids=["float", "int"])
    def test_batched_adds_window_crossing(self, integer_clocks, monkeypatch):
        """Batches spanning several windows cascade in segments that end on
        the arrivals crossing the window; no run replays."""
        _forbid_replay(monkeypatch)
        reference, columnar = _pair()
        rng = random.Random(7)
        clock = 0 if integer_clocks else 0.0
        for _ in range(12):
            items, clocks = [], []
            for _ in range(256):
                # Crosses the 400-unit window often.
                clock += rng.randrange(9) if integer_clocks else rng.random() * 8.0
                items.append("k%d" % rng.randrange(23))
                clocks.append(clock)
            for sketch in (reference, columnar):
                sketch.add_many(items, clocks)
        _assert_twins(reference, columnar, ["k%d" % i for i in range(23)])

    @pytest.mark.parametrize("integer_clocks", [False, True], ids=["float", "int"])
    def test_batched_weighted_adds(self, integer_clocks, monkeypatch):
        """Light weights, then weights of 96 and up in batches that span
        about three windows each, so segments end on crossings mid-batch and
        the round budget cuts inside arrivals; no run replays."""
        _forbid_replay(monkeypatch)
        monkeypatch.setattr(columnar_eh, "_ROUND_UNITS", 1000)
        reference, columnar = _pair()
        rng = random.Random(11)
        clock = 0 if integer_clocks else 0.0
        for batch in range(12):
            heavy = batch >= 8
            items, clocks, values = [], [], []
            for _ in range(128):
                step = rng.randrange(5, 15) if heavy else rng.randrange(0, 3)
                clock += step if integer_clocks else step * 0.75
                items.append(rng.randrange(19))
                clocks.append(clock)
                # Light batches include zero weights.
                values.append(rng.randrange(96, 256) if heavy else rng.randrange(0, 4))
            for sketch in (reference, columnar):
                sketch.add_many(items, clocks, values)
        _assert_twins(reference, columnar, list(range(19)))

    def test_mixed_scalar_batched_and_expire(self):
        reference, columnar = _pair()
        rng = random.Random(13)
        clock = 0.0
        for step in range(30):
            clock += rng.random() * 20
            if step % 3 == 0:
                for sketch in (reference, columnar):
                    sketch.add("k%d" % (step % 9), clock)
            elif step % 3 == 1:
                items = ["k%d" % rng.randrange(9) for _ in range(64)]
                clocks = []
                for _ in range(64):
                    clock += rng.random()
                    clocks.append(clock)
                for sketch in (reference, columnar):
                    sketch.add_many(items, clocks)
            else:
                now = clock + rng.random() * 100
                for sketch in (reference, columnar):
                    sketch.expire(now)
        _assert_twins(reference, columnar, ["k%d" % i for i in range(9)])

    def test_expire_sweep_drops_dead_buckets(self):
        """expire() removes out-of-window state without changing answers."""
        _, columnar = _pair()
        for t in range(100):
            columnar.add("key", clock=float(t))
        before = columnar.point_query("key", now=99.0)
        columnar.expire(99.0 + WINDOW * 3)
        for row in range(columnar.depth):
            for column in range(columnar.width):
                assert columnar.counter(row, column).bucket_count() == 0
        assert columnar.point_query("key", now=99.0 + WINDOW * 3) == 0.0
        assert before > 0

    def test_merges_across_layouts(self):
        """Merging object- and columnar-backed inputs gives identical roots."""
        ref_a, col_a = _pair(seed=5)
        ref_b, col_b = _pair(seed=5)
        for t in range(120):
            for sketch in (ref_a, col_a):
                sketch.add("a%d" % (t % 7), clock=float(t))
            for sketch in (ref_b, col_b):
                sketch.add("b%d" % (t % 5), clock=float(t))
        merged_ref = ECMSketch.aggregate([ref_a, ref_b])
        merged_col = ECMSketch.aggregate([col_a, col_b])
        merged_mixed = ECMSketch.aggregate([ref_a, col_b])
        assert dumps(merged_ref) == dumps(merged_col) == dumps(merged_mixed)
        assert dumps(ECMSketch._aggregate_reference([col_a, col_b])) == dumps(merged_col)

    def test_serialization_roundtrip_keeps_ingesting(self):
        reference, columnar = _pair()
        for t in range(100):
            for sketch in (reference, columnar):
                sketch.add("k%d" % (t % 6), clock=float(t))
        restored_ref = loads(dumps(reference))
        restored_col = loads(dumps(columnar))
        for t in range(100, 160):
            for sketch in (reference, columnar, restored_ref, restored_col):
                sketch.add("k%d" % (t % 6), clock=float(t))
        assert dumps(reference) == dumps(columnar)
        assert dumps(restored_ref) == dumps(restored_col) == dumps(reference)

    def test_count_based_windows(self):
        reference, columnar = _pair(model=WindowModel.COUNT_BASED)
        for index in range(300):
            for sketch in (reference, columnar):
                sketch.add("k%d" % (index % 13), clock=index)
        _assert_twins(reference, columnar, ["k%d" % i for i in range(13)])

    def test_counter_accessor_materialises_equal_histograms(self):
        reference, columnar = _pair()
        for t in range(80):
            for sketch in (reference, columnar):
                sketch.add("x%d" % (t % 4), clock=float(t))
        for row in range(reference.depth):
            for column in range(reference.width):
                ref_counter = reference.counter(row, column)
                col_counter = columnar.counter(row, column)
                assert ref_counter.buckets_oldest_first() == col_counter.buckets_oldest_first()
                assert ref_counter.total_arrivals() == col_counter.total_arrivals()
                assert ref_counter.last_clock == col_counter.last_clock
                assert col_counter.check_invariant()

    def test_huge_integer_clock_rejected(self):
        """Clocks beyond float64's exact-int range raise instead of drifting."""
        _, columnar = _pair()
        with pytest.raises(ConfigurationError):
            columnar.add("k", clock=(1 << 60) + 1)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("length", [1, 40])
    def test_int_clocks_beyond_2_53_rejected_on_every_path(self, length, sign):
        """One bound for the scalar replay of a short batch and the vector
        cascade of a long one, though float64 holds ``2**54`` exactly."""
        _, columnar = _pair()
        columnar.add("warm", clock=-(2.0**60))  # a float clock: no bound
        before = dumps(columnar)
        with pytest.raises(ConfigurationError, match="2\\*\\*53"):
            columnar.add_many(["k%d" % i for i in range(length)], [sign * 2**54] * length)
        assert dumps(columnar) == before
        if sign == 1:
            # A short batch fails before its replay adds the clocks ahead of the bad one.
            with pytest.raises(ConfigurationError):
                columnar.add_many(["a", "b"], [2, 2**54])
            assert dumps(columnar) == before
        columnar.add_many(["edge"] * 3, [-(2**53), 2**53, 2.0**60])
        assert columnar.total_arrivals() == 4

    def test_snapshot_with_an_int_clock_beyond_2_53_fails_to_load(self):
        """Only the old scalar path could write such a clock; decoding it now
        fails with the same error as ingesting it."""
        _, columnar = _pair()
        columnar.add("k", clock=1)
        payload = ecm_sketch_to_dict(columnar)
        cell = next(cell for cells in payload["counters"] for cell in cells if cell["buckets"])
        cell["buckets"][0][1] = cell["buckets"][0][2] = cell["last_clock"] = 2**54
        payload["last_clock"] = 2**54
        with pytest.raises(ConfigurationError, match="2\\*\\*53"):
            ecm_sketch_from_dict(payload)


class TestWirePayloads(_KernelSettingsCase):
    """Every bucket at level ``l`` holds ``2**l`` arrivals, so the columnar
    store implies sizes from levels.  Payloads breaking that are rejected
    when decoded; a cell whose clocks mix int and float (written before a
    cell's clocks took one type) loads float on both layouts."""

    def _load(self, layout: str, buckets: list, last_clock, **cell_fields) -> ECMSketch:
        """Decode a payload whose cell ``(0, 0)`` holds ``buckets`` (and
        ``cell_fields``) onto ``layout``: the object reference, or the
        columnar store from the payload whole or streamed from its text."""
        config = ECMConfig.for_point_queries(epsilon=0.15, delta=0.2, window=WINDOW)
        payload = ecm_sketch_to_dict(ECMSketch(config))
        cell = payload["counters"][0][0]
        cell["buckets"] = buckets
        cell["total_arrivals"] = sum(bucket[0] for bucket in buckets)
        cell["last_clock"] = last_clock
        cell.update(cell_fields)
        if layout == "columnar":
            return ecm_sketch_from_dict(payload)
        if layout == "streamed":
            return read_ecm_sketch(JSONStream(io.StringIO(json.dumps(payload))))
        reference = ECMSketch._on_object_store(config)
        for row, cells in enumerate(payload["counters"]):
            for column, counter in enumerate(cells):
                reference._set_counter(row, column, histogram_from_dict(counter))
        reference._total_arrivals = payload["total_arrivals"]
        reference._last_clock = payload["last_clock"]
        return reference

    @pytest.mark.parametrize("layout", ["object", "columnar", "streamed"])
    def test_non_power_of_two_bucket_rejected(self, layout):
        with pytest.raises(ConfigurationError, match="powers of two"):
            self._load(layout, [[3, 1, 2.5], [1, 4, 4]], 4)

    @pytest.mark.parametrize("layout", ["object", "columnar", "streamed"])
    def test_unit_bucket_spanning_two_clocks_rejected(self, layout):
        with pytest.raises(ConfigurationError, match="start and end must match"):
            self._load(layout, [[2, 1, 2], [1, 3, 4]], 4)

    @pytest.mark.parametrize("layout", ["object", "columnar", "streamed"])
    @pytest.mark.parametrize(
        "buckets, last_clock",
        [
            ([[1, None, None]], 4),
            ([[2, 1, None], [1, 4, 4]], 4),
            ([[2, 1.5, 2.5], [1, None, None]], 4.0),
            ([[1, "4", "4"]], 4),
            ([[1, True, True]], 4),
            ([[1, 4, 4]], "4"),
        ],
    )
    def test_a_clock_that_is_not_a_real_number_is_rejected(self, layout, buckets, last_clock):
        with pytest.raises(ConfigurationError, match="must be a real number"):
            self._load(layout, buckets, last_clock)

    @pytest.mark.parametrize("layout", ["columnar", "streamed"])
    @pytest.mark.parametrize(
        "field, value", [("epsilon", 0.3), ("window", 2 * WINDOW), ("model", "count")]
    )
    def test_a_cell_of_another_epsilon_window_or_model_is_rejected(self, layout, field, value):
        with pytest.raises(ConfigurationError, match="different epsilon/window/model"):
            self._load(layout, [[1, 4, 4]], 4, **{field: value})

    @pytest.mark.parametrize("layout", ["columnar", "streamed"])
    @pytest.mark.parametrize("clock", [2**54, 2**70, -(2**54)])
    def test_an_int_clock_beyond_2_53_is_rejected(self, layout, clock):
        with pytest.raises(ConfigurationError, match="2\\*\\*53; got %d" % clock):
            self._load(layout, [[1, clock, clock]], clock)

    @pytest.mark.parametrize("layout", ["columnar", "streamed"])
    def test_a_mixed_cell_may_hold_ints_beyond_2_53(self, layout):
        # Its clocks load as floats, which hold 2**54 exactly.
        sketch = self._load(layout, [[1, 2**54, 2**54]], 2.0**54)
        assert ecm_sketch_to_dict(sketch)["counters"][0][0]["buckets"] == [[1, 2.0**54, 2.0**54]]

    def test_mixed_clock_payload_roundtrip_and_updates(self):
        buckets = [[2, 1, 2.5], [1, 4, 4]]
        reference = self._load("object", buckets, 4)
        columnar = self._load("columnar", buckets, 4)
        assert reference.backend == "object"
        assert dumps(reference) == dumps(columnar) == dumps(self._load("streamed", buckets, 4))
        cell = ecm_sketch_to_dict(columnar)["counters"][0][0]
        assert cell["buckets"] == [[2, 1.0, 2.5], [1, 4.0, 4.0]]
        assert type(cell["last_clock"]) is float
        # Keep mutating the mixed-clock state: scalar, batched, expiry.
        for t in range(5, 40):
            for sketch in (reference, columnar):
                sketch.add("k%d" % (t % 3), clock=float(t))
        items = ["k0"] * 40
        clocks = [40.0 + 0.25 * i for i in range(40)]
        for sketch in (reference, columnar):
            sketch.add_many(items, clocks)
            sketch.expire(500.0)
        assert dumps(reference) == dumps(columnar)

    def test_mixed_clock_types_stay_identical(self):
        reference, columnar = _pair()
        # Alternate int-clock and float-clock batches, then a mixed batch.
        for sketch in (reference, columnar):
            sketch.add_many(["a", "b", "a"], [1, 2, 3])
            sketch.add_many(["a", "c"], [4.5, 5.5])
            sketch.add_many(["b", "c", "b"], [6, 6.5, 7])
            sketch.add("a", 8)
            sketch.add("a", 9.5)
        assert dumps(reference) == dumps(columnar)

    def test_a_cell_turns_float_at_its_first_float_clock(self, monkeypatch):
        """Only the cells that took a float clock print floats, and a store
        holding both cell types stays on the vector cascade: a mixed batch
        and a later pure-float batch reach ``_ingest_runs`` and build no
        ``ExponentialHistogram``."""
        reference, columnar = _pair(window=1e6)
        store = _columnar_store(columnar)
        for sketch in (reference, columnar):
            sketch.add("k", 0)
            sketch.add("k", 0.5)
            sketch.add("j", 1)
        row, column = 0, int(columnar.hashes.hash_all("j")[0])
        if store._is_float[row * columnar.width + column]:
            pytest.skip("'j' shares its row-0 cell with 'k'")
        assert type(columnar.counter(row, column).last_clock) is int
        assert store._is_float.sum() == columnar.depth
        calls = {"_ingest_runs": 0}
        items = ["k%d" % (index % 7) for index in range(64)]
        mixed = [2 + index if index % 3 else 2.25 + index for index in range(64)]
        floats = [70.0 + 0.25 * index for index in range(64)]
        ingest_runs = ColumnarEHStore._ingest_runs

        def spy(self, *args):
            calls["_ingest_runs"] += 1
            return ingest_runs(self, *args)

        with monkeypatch.context() as patch, histograms_built() as built:
            patch.setattr(ColumnarEHStore, "_ingest_runs", spy)
            for clocks in (mixed, floats):
                for sketch in (reference, columnar):
                    sketch.add_many(items, clocks)
        assert calls == {"_ingest_runs": 2}
        assert built == []
        _assert_twins(reference, columnar, ["k", "j"] + sorted(set(items)))


class TestMemoryAccounting(_KernelSettingsCase):
    def test_columnar_reports_true_array_footprint(self):
        _, columnar = _pair()
        store = columnar._store
        assert isinstance(store, ColumnarEHStore)
        baseline = columnar.memory_bytes()
        assert baseline > 0
        for t in range(3000):
            columnar.add("k%d" % (t % 97), clock=float(t))
        # Growth happens in array-allocation steps, not per bucket.
        assert columnar.memory_bytes() >= baseline
        assert columnar.memory_bytes() == store.memory_bytes() + (
            columnar.depth * 2 * 32 + 8 * 32
        ) // 8

    def test_columnar_memory_below_object_resident_at_equal_config(self):
        """The satellite regression pin: at equal config and equal state, the
        columnar layout's reported footprint (true array allocation) must be
        well below what the object layout actually holds resident — that is
        the point of eliminating per-bucket Python objects.  The object
        layout's ``memory_bytes()`` itself still reports the paper's 32-bit
        synopsis model, so the honest comparison is against its
        ``resident_memory_bytes()`` walk."""
        reference, columnar = _pair(epsilon=0.1)
        rng = random.Random(2)
        clock = 0.0
        for _ in range(40):
            items, clocks = [], []
            for _ in range(512):
                clock += rng.random()
                items.append("k%d" % rng.randrange(301))
                clocks.append(clock)
            for sketch in (reference, columnar):
                sketch.add_many(items, clocks)
        assert dumps(reference) == dumps(columnar)
        assert columnar.memory_bytes() < reference.resident_memory_bytes()
        assert columnar.resident_memory_bytes() < reference.resident_memory_bytes()
        # Identical synopsis accounting (the paper model is storage-agnostic).
        assert columnar.synopsis_bytes() == reference.synopsis_bytes()


def _deepest_live_level(store: ColumnarEHStore) -> int:
    """Deepest level at which some cell of ``store`` holds a live bucket."""
    return int(np.flatnonzero(store._counts.any(axis=0))[-1])


def _held_pairs(store: ColumnarEHStore) -> set[tuple[int, int]]:
    """``(cell, level)`` pairs of ``store`` holding a live bucket now."""
    cells, levels = np.nonzero(store._counts)
    return set(zip(cells.tolist(), levels.tolist(), strict=True))


def _assert_rows_match(store: ColumnarEHStore, held: set[tuple[int, int]]) -> None:
    """Exactly the pairs in ``held`` own a pool row, one distinct row each
    after the sentinel, and the row map has one column per level reached."""
    cells, levels = np.nonzero(store._row_map)
    assert set(zip(cells.tolist(), levels.tolist(), strict=True)) == held
    assert store._next_row == len(held) + 1
    rows = np.sort(store._row_map[cells, levels])
    assert np.array_equal(rows, np.arange(1, store._next_row))
    deepest = max(level for _, level in held)
    assert store._row_map.shape == store._counts.shape == (store.cells, deepest + 1)
    assert store._num_levels == deepest + 1
    # The sentinel row stays empty.
    assert not store._starts[0].any() and not store._ends[0].any()


def _columnar_store(sketch: ECMSketch) -> ColumnarEHStore:
    store = sketch._store
    assert isinstance(store, ColumnarEHStore)
    return store


def _skewed_batch(rng: random.Random, start: float, size: int) -> tuple[list, list]:
    """A batch where one key takes about four arrivals in five."""
    items = ["hot" if rng.random() < 0.8 else "k%d" % rng.randrange(50) for _ in range(size)]
    return items, [start + 0.5 * index for index in range(size)]


def _is_mapped(array: np.ndarray) -> bool:
    return isinstance(array.base, mmap.mmap)


class TestGridGrowth(_KernelSettingsCase):
    """A ``(cell, level)`` claims a pool row the first time it stores a
    bucket; the row map has exactly the levels the cells reached; large pools
    live in their own mapping, and a refused mapping falls back to the heap."""

    def test_level_axis_is_one_past_the_deepest_level_reached(self):
        # The window outlasts the stream, so nothing expires while the
        # arrivals come in: a pair that held a bucket keeps one until the
        # explicit expiry, and snapshots between operations see every pair.
        reference, columnar = _pair(window=1e6)
        store = _columnar_store(columnar)
        # Zero weights store no bucket, so they claim no row.
        cold = ["cold%d" % index for index in range(64)]
        for sketch in (reference, columnar):
            sketch.add_many(cold, [-100.0 + index for index in range(64)], [0] * 64)
        assert store._row_map.shape == (store.cells, 1)
        assert store._next_row == 1
        held: set[tuple[int, int]] = set()
        rng = random.Random(21)
        items, clocks = _skewed_batch(rng, 0.0, 3000)
        for sketch in (reference, columnar):
            sketch.add_many(items, clocks)
        held |= _held_pairs(store)
        assert _deepest_live_level(store) >= 5
        _assert_rows_match(store, held)
        # Weighted adds: light ones insert unit by unit, heavy ones cascade.
        for t in range(3000, 5000):
            value = 3 if t % 100 else 500
            for sketch in (reference, columnar):
                sketch.add("hot" if t % 7 else "k%d" % (t % 60), clock=float(t), value=value)
            if t % 50 == 0:
                held |= _held_pairs(store)
                _assert_rows_match(store, held)
        held |= _held_pairs(store)
        _assert_rows_match(store, held)
        deepest = _deepest_live_level(store)
        # Expiry empties the top levels but keeps the rows and the levels
        # they reached.
        for sketch in (reference, columnar):
            sketch.expire(4000.0 + 1e6)
        assert _deepest_live_level(store) < deepest
        _assert_rows_match(store, held)
        _assert_twins(reference, columnar, ["hot", "k1", "k2"])
        # A restore claims rows for the levels its payload holds.
        restored = ecm_sketch_from_dict(ecm_sketch_to_dict(columnar))
        restored_store = _columnar_store(restored)
        _assert_rows_match(restored_store, _held_pairs(restored_store))
        assert dumps(restored) == dumps(columnar)
        # So does an aggregate of two live sketches.
        other_ref, other = _pair(window=1e6)
        items, clocks = _skewed_batch(rng, 0.0, 2000)
        for sketch in (other_ref, other):
            sketch.add_many(items, clocks)
        merged = ECMSketch.aggregate([restored, other])
        merged_store = _columnar_store(merged)
        _assert_rows_match(merged_store, _held_pairs(merged_store))
        assert dumps(merged) == dumps(ECMSketch.aggregate([reference, other_ref]))

    def test_a_new_level_leaves_the_pool_in_place(self):
        store = ColumnarEHStore(2, 16, 0.1, WINDOW)
        pool = store._slot_arrays()
        capacity, slots = store._starts.shape
        # Seven units overflow level 0 (at most six per level at eps 0.1),
        # so the scalar cascade opens level 1 ...
        for t in range(7):
            store.add_single(0, 3, float(t))
        assert store._row_map.shape[1] == 2
        # ... and a batched run of 60 units two more through the vector
        # cascade, claiming rows at levels 0-3 of its cell.
        store.ingest_sorted_rows([(1, [5], [0], [60], np.arange(10.0, 70.0), None, None)])
        assert store._row_map.shape[1] == 4
        assert store._next_row == 1 + 2 + 4
        assert store._starts.shape == (capacity, slots)
        assert all(grown is kept for grown, kept in zip(store._slot_arrays(), pool, strict=True))

    @pytest.mark.skipif(not columnar_eh._CAN_MAP, reason="no anonymous private mappings")
    def test_large_grids_are_mapped_small_grids_are_heap_arrays(self):
        small = ColumnarEHStore(2, 16, 0.1, WINDOW)
        assert small._starts.base is None and small._ends.base is None
        # An empty store starts with a small heap pool, whatever its width.
        large = ColumnarEHStore(4, 1024, 0.1, WINDOW)
        assert large._starts.nbytes < columnar_eh._MAP_MIN_BYTES
        assert large._starts.base is None
        for cell in range(0, large.cells, 7):
            large.add_single(cell // 1024, cell % 1024, 1.0, count=40)
        # Some 2,300 rows of 8 slots: the pool grew past the threshold.
        assert large._starts.nbytes >= columnar_eh._MAP_MIN_BYTES
        assert large._num_levels > 1
        assert _is_mapped(large._starts) and _is_mapped(large._ends)
        assert large._starts.base is not large._ends.base

    @pytest.mark.skipif(not columnar_eh._CAN_MAP, reason="no anonymous private mappings")
    def test_growth_returns_the_outgrown_mapping(self):
        source = columnar_eh._zeroed_grid((2048, 16), np.dtype(np.float64))
        assert _is_mapped(source)
        source[...] = np.arange(source.size, dtype=np.float64).reshape(source.shape) + 1
        expected = source.copy()
        target = columnar_eh._zeroed_grid((4096, 24), np.dtype(np.float64))
        in_use = 1500
        columnar_eh._move_grid(source, target, in_use)
        assert np.array_equal(target[:in_use, :16], expected[:in_use])
        assert not target[:in_use, 16:].any()
        # Rows past the ones in use are neither copied nor read.
        assert not target[in_use:].any()
        # Every copied page went back to the kernel: a stale alias reads 0.
        assert not source[:in_use].any()
        tail = -(-in_use * source[0].nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
        untouched = -(-tail // source[0].nbytes)
        assert np.array_equal(source[untouched:], expected[untouched:])

    def test_large_sketch_stays_identical_on_mapped_grids(self):
        reference, columnar = _pair(epsilon=0.01, delta=0.05)
        self._drive(reference, columnar)
        store = _columnar_store(columnar)
        if columnar_eh._CAN_MAP:
            assert _is_mapped(store._starts)
            for array in store._slot_arrays():
                assert _is_mapped(array) == (array.nbytes >= columnar_eh._MAP_MIN_BYTES)

    def test_refused_mappings_fall_back_to_heap_arrays(self, monkeypatch):
        class RefusedMapping(mmap.mmap):
            def __new__(cls, *args, **kwargs):
                raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", RefusedMapping)
        reference, columnar = _pair(epsilon=0.01, delta=0.05)
        self._drive(reference, columnar)
        store = _columnar_store(columnar)
        assert store._starts.nbytes >= columnar_eh._MAP_MIN_BYTES
        assert all(array.base is None for array in store._slot_arrays())

    @staticmethod
    def _drive(reference: ECMSketch, columnar: ECMSketch) -> None:
        """Grow a wide grid past the mapping threshold through every path."""
        rng = random.Random(5)
        items, clocks = _skewed_batch(rng, 0.0, 4000)
        for sketch in (reference, columnar):
            sketch.add_many(items, clocks)
        for t in range(200):
            for sketch in (reference, columnar):
                sketch.add("k%d" % (t % 50), clock=2000.0 + t, value=1 + t % 3)
        for sketch in (reference, columnar):
            sketch.expire(2199.0 + WINDOW / 2)
        # Cells of both clock types share the pools.
        for sketch in (reference, columnar):
            sketch.add("hot", clock=2500)
            sketch.add_many(["hot", "k3"], [2501.5, 2502])
        _assert_twins(reference, columnar, ["hot", "k1", "k3"])
        assert _columnar_store(columnar)._starts.nbytes >= columnar_eh._MAP_MIN_BYTES


class TestHeavyRuns(_KernelSettingsCase):
    def test_one_heavy_run_allocates_like_spread_runs(self):
        """A batch whose runs differ wildly in length pads none of them to the
        longest: one weight of 16,384 among 999 unit weights peaks like the
        same units spread evenly, and matches the per-arrival replay."""
        config = ECMConfig.for_point_queries(epsilon=0.05, delta=0.05, window=1e9)
        keys = list(range(1000))
        clocks = [float(t) for t in range(1000)]
        heavy = [1] * 999 + [16_384]
        peaks = {}
        sketches = {}
        for name, values in (("heavy", heavy), ("spread", [17] * 1000)):
            sketch = ECMSketch(config)
            sketch.add("warm", clock=-1.0)
            tracemalloc.start()
            try:
                sketch.add_many(keys, clocks, values)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            sketches[name] = sketch
        assert peaks["heavy"] <= 2 * peaks["spread"]
        replay = ECMSketch(config)
        replay.add("warm", clock=-1.0)
        for key, clock, value in zip(keys, clocks, heavy, strict=True):
            replay.add(key, clock, value)
        assert dumps(sketches["heavy"]) == dumps(replay)

    def test_weighted_batch_peaks_with_the_round_budget(self):
        """A batch's temporaries follow the round's unit budget, not its
        total weight: 1,024 arrivals of weight 4,096 peak like the same
        arrivals at weight 256, and match one ``add`` per arrival."""
        if columnar_eh.USE_KERNELS and not HAVE_NUMBA:
            pytest.skip("interpreted kernels would cascade 12.6M units one by one")
        config = ECMConfig.for_point_queries(epsilon=0.05, delta=0.05, window=1e9)
        keys = list(range(1024))
        clocks = [float(t) for t in range(1024)]
        peaks = {}
        for weight in (256, 4096):
            sketch = ECMSketch(config)
            tracemalloc.start()
            try:
                sketch.add_many(keys, clocks, [weight] * 1024)
                peaks[weight] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4096] <= 1.25 * peaks[256]
        replay = ECMSketch(config)
        for key, clock in zip(keys, clocks, strict=True):
            replay.add(key, clock, 4096)
        assert dumps(sketch) == dumps(replay)

    def test_weighted_add_cascades_its_units_in_one_run(self):
        """Ten arrivals of weight 16,384 replay through ``add`` (the batch is
        under the scalar-run limit) and cascade each weight as one run."""
        config = ECMConfig.for_point_queries(epsilon=0.05, delta=0.05, window=1e9)
        keys = list(range(10))
        clocks = [float(t) for t in range(10)]
        values = [16_384] * 10
        reference, columnar = ECMSketch._on_object_store(config), ECMSketch(config)
        started = time.perf_counter()
        columnar.add_many(keys, clocks, values)
        elapsed = time.perf_counter() - started
        reference.add_many(keys, clocks, values)
        assert dumps(reference) == dumps(columnar)
        # Interpreted kernels prove the algorithm, not its speed.
        if not columnar_eh.USE_KERNELS or HAVE_NUMBA:
            assert elapsed < 0.3

    def test_weighted_cascade_threshold_boundary(self, monkeypatch):
        """Weights just below ``_WEIGHTED_CASCADE_MIN`` insert unit by unit,
        weights at it cascade as one run, and both stay byte-identical to
        the object store (a spy on ``_ingest_runs`` tells the paths apart)."""
        limit = columnar_eh._WEIGHTED_CASCADE_MIN
        assert limit == 128
        runs = []
        ingest_runs = ColumnarEHStore._ingest_runs

        def spy(self, cells, clocks, offsets, values):
            runs.append(values.tolist())
            return ingest_runs(self, cells, clocks, offsets, values)

        monkeypatch.setattr(ColumnarEHStore, "_ingest_runs", spy)
        reference, columnar = _pair(window=1e9)
        weights = [limit - 1, limit, limit - 1, limit + 1, 1, limit]
        paths = []
        for clock, weight in enumerate(weights, start=1):
            before = len(runs)
            for sketch in (reference, columnar):
                sketch.add("k%d" % (clock % 2), clock=float(clock), value=weight)
            paths.append(runs[before:])
            assert dumps(reference) == dumps(columnar)
        depth = columnar.depth
        assert paths == [[] if weight < limit else [[weight]] * depth for weight in weights]
        _assert_twins(reference, columnar, ["k0", "k1"])

    def test_weighted_adds_that_expire_stay_identical(self):
        """Heavy weights whose cell has buckets leaving the window: the units
        cascade first and the expiry follows, as in the scalar path, on int,
        float and then mixed clocks."""
        reference, columnar = _pair()
        for t in range(0, 3000, 37):
            for sketch in (reference, columnar):
                sketch.add("k%d" % (t % 5), clock=t, value=96 + t % 300)
        _assert_twins(reference, columnar, ["k%d" % i for i in range(5)])
        _, floats = _pair()
        reference_floats, _ = _pair()
        for t in range(0, 3000, 41):
            for sketch in (reference_floats, floats):
                sketch.add("k%d" % (t % 3), clock=t + 0.5, value=200)
        for sketch in (reference_floats, floats):
            sketch.add("k1", clock=3100, value=150)
            sketch.add("k1", clock=3200.25, value=150)
        _assert_twins(reference_floats, floats, ["k0", "k1", "k2"])


# --------------------------------------------------------------- hypothesis
operation_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "add_many", "add_many_weighted", "expire", "estimate"]),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=25,
)


@pytest.mark.slow
@pytest.mark.parametrize("use_kernels", [False, True], ids=["numpy", "kernels"])
@settings(max_examples=40, deadline=None)
@given(
    ops=operation_strategy,
    clock_kind=st.sampled_from(["int", "float", "mixed"]),
    merge_at_end=st.booleans(),
)
def test_random_interleavings_stay_identical(use_kernels, ops, clock_kind, merge_at_end):
    """Random add_many/expire/estimate/merge interleavings on both layouts
    produce identical estimates, bucket counts and serialized state, with
    int, float or mixed clocks (cells turn float at their first float)."""
    with _kernels(use_kernels):
        _random_interleaving(ops, clock_kind, merge_at_end)


def _random_interleaving(ops, clock_kind: str, merge_at_end: bool) -> None:
    reference, columnar = _pair(epsilon=0.25, window=120.0)
    rng = random.Random(4242)
    clock: float = 0.0 if clock_kind == "float" else 0

    def advance(step_seed: int) -> float:
        nonlocal clock
        step = random.Random(step_seed)
        gap = step.randrange(0, 12)
        # Mixed clocks are mostly ints, so cells that took only int clocks
        # sit beside cells that turned float.
        if clock_kind == "int" or (clock_kind == "mixed" and step.random() < 0.9):
            clock = math.ceil(clock) + gap
        else:
            clock = clock + gap + 0.5
        return clock

    for op, op_seed in ops:
        op_rng = random.Random(op_seed)
        if op == "add":
            key = "k%d" % op_rng.randrange(8)
            value = op_rng.randrange(1, 4)
            now = advance(op_seed)
            reference.add(key, now, value)
            columnar.add(key, now, value)
        elif op in ("add_many", "add_many_weighted"):
            count = op_rng.randrange(1, 80)
            items = ["k%d" % op_rng.randrange(8) for _ in range(count)]
            clocks = [advance(op_seed * 31 + i) for i in range(count)]
            values = (
                [op_rng.randrange(0, 3) for _ in range(count)]
                if op == "add_many_weighted"
                else None
            )
            reference.add_many(items, clocks, values)
            columnar.add_many(items, clocks, values)
        elif op == "expire":
            now = clock + op_rng.randrange(0, 200)
            reference.expire(now)
            columnar.expire(now)
        else:  # estimate
            range_length = op_rng.choice([None, 10, 60, 120])
            keys = ["k%d" % i for i in range(8)]
            assert reference.point_query_many(keys, range_length) == columnar.point_query_many(
                keys, range_length
            )
    assert dumps(reference) == dumps(columnar)
    for row in range(reference.depth):
        for column in range(reference.width):
            assert (
                reference.counter(row, column).bucket_count()
                == columnar.counter(row, column).bucket_count()
            )
    if merge_at_end:
        assert dumps(ECMSketch.aggregate([reference, reference])) == dumps(
            ECMSketch.aggregate([columnar, columnar])
        )
