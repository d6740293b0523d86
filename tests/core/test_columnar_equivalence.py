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
import random
from collections.abc import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ECMConfig, ECMSketch
from repro.core.errors import ConfigurationError
from repro.serialization import (
    dumps,
    ecm_sketch_from_dict,
    ecm_sketch_to_dict,
    histogram_from_dict,
    loads,
)
from repro.windows import ColumnarEHStore, WindowModel, columnar_eh

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

    def test_batched_adds_window_crossing(self):
        """Batches spanning several windows exercise the expiring slow path."""
        reference, columnar = _pair()
        rng = random.Random(7)
        clock = 0.0
        for _ in range(12):
            items, clocks = [], []
            for _ in range(256):
                clock += rng.random() * 8.0  # crosses the 400-unit window often
                items.append("k%d" % rng.randrange(23))
                clocks.append(clock)
            for sketch in (reference, columnar):
                sketch.add_many(items, clocks)
        _assert_twins(reference, columnar, ["k%d" % i for i in range(23)])

    def test_batched_weighted_adds(self):
        reference, columnar = _pair()
        rng = random.Random(11)
        clock = 0
        for _ in range(8):
            items, clocks, values = [], [], []
            for _ in range(128):
                clock += rng.randrange(0, 3)
                items.append(rng.randrange(19))
                clocks.append(clock)
                values.append(rng.randrange(0, 4))  # includes zero weights
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


class TestWirePayloads(_KernelSettingsCase):
    """Every bucket at level ``l`` holds ``2**l`` arrivals, so the columnar
    store implies sizes from levels.  Payloads breaking that are rejected
    when decoded; mixed int/float clocks are legal and stay byte-identical."""

    def _load(self, layout: str, buckets: list, last_clock) -> ECMSketch:
        """Decode a payload whose cell ``(0, 0)`` holds ``buckets`` onto ``layout``."""
        config = ECMConfig.for_point_queries(epsilon=0.15, delta=0.2, window=WINDOW)
        payload = ecm_sketch_to_dict(ECMSketch(config))
        cell = payload["counters"][0][0]
        cell["buckets"] = buckets
        cell["total_arrivals"] = sum(bucket[0] for bucket in buckets)
        cell["last_clock"] = last_clock
        if layout == "columnar":
            return ecm_sketch_from_dict(payload)
        reference = ECMSketch._on_object_store(config)
        for row, cells in enumerate(payload["counters"]):
            for column, counter in enumerate(cells):
                reference._set_counter(row, column, histogram_from_dict(counter))
        reference._total_arrivals = payload["total_arrivals"]
        reference._last_clock = payload["last_clock"]
        return reference

    @pytest.mark.parametrize("layout", ["object", "columnar"])
    def test_non_power_of_two_bucket_rejected(self, layout):
        with pytest.raises(ConfigurationError, match="powers of two"):
            self._load(layout, [[3, 1, 2.5], [1, 4, 4]], 4)

    def test_mixed_clock_payload_roundtrip_and_updates(self):
        buckets = [[2, 1, 2.5], [1, 4, 4]]
        reference = self._load("object", buckets, 4)
        columnar = self._load("columnar", buckets, 4)
        assert reference.backend == "object"
        assert dumps(reference) == dumps(columnar)
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
@given(ops=operation_strategy, integer_clocks=st.booleans(), merge_at_end=st.booleans())
def test_random_interleavings_stay_identical(use_kernels, ops, integer_clocks, merge_at_end):
    """Random add_many/expire/estimate/merge interleavings on both layouts
    produce identical estimates, bucket counts and serialized state."""
    with _kernels(use_kernels):
        _random_interleaving(ops, integer_clocks, merge_at_end)


def _random_interleaving(ops, integer_clocks: bool, merge_at_end: bool) -> None:
    reference, columnar = _pair(epsilon=0.25, window=120.0)
    rng = random.Random(4242)
    clock: float = 0 if integer_clocks else 0.0

    def advance(step_seed: int) -> float:
        nonlocal clock
        gap = random.Random(step_seed).randrange(0, 12)
        clock = clock + gap if integer_clocks else clock + gap + 0.5
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
