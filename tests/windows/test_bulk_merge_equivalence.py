"""Serialized-state equality of the window merges vs the replay reference.

The public merges (``merge_exponential_histograms`` and
``merge_deterministic_waves``, one sorted ``add_batch`` run each) promise
*byte-identical* synopsis state relative to the private replay reference
``_replay_merge``, which walks every replay event through the scalar
``add``.  The randomized-wave sample union's O(n) selection trim is compared
with its sort-only reference by patching ``_SELECTION_CUTOFF``.  These tests
drive varied workloads — int and float clocks, tied clocks, expiring windows
that defeat the deferred cascade, degenerate inputs — through both
implementations and compare the full serialized wire format.
"""

from __future__ import annotations

import math
import random
from unittest import mock

import pytest

from repro.core.errors import ConfigurationError, IncompatibleSketchError, WindowModelError
from repro.serialization import dumps
from repro.windows import (
    DeterministicWave,
    ExponentialHistogram,
    RandomizedWave,
    WindowModel,
    merge_deterministic_waves,
    merge_exponential_histograms,
    randomized_wave,
)
from repro.windows.merge import _replay_merge


def make_clocks(rng: random.Random, count: int, int_clocks: bool, mean_gap: float = 4.0):
    """Monotone clocks with frequent ties (ties stress sort stability)."""
    clock = 0 if int_clocks else 0.0
    out = []
    for _ in range(count):
        if int_clocks:
            clock += rng.choice([0, 0, 1, 2, 5])
        else:
            clock += rng.choice([0.0, 0.0, rng.random() * mean_gap])
        out.append(clock)
    return out


def build_histograms(rng, num, count, window, epsilon=0.05, int_clocks=False):
    histograms = []
    for _ in range(num):
        histogram = ExponentialHistogram(epsilon=epsilon, window=window)
        for clock in make_clocks(rng, count, int_clocks):
            histogram.add(clock)
        histograms.append(histogram)
    return histograms


def build_waves(rng, num, count, window, epsilon=0.05, int_clocks=False):
    waves = []
    for _ in range(num):
        wave = DeterministicWave(epsilon=epsilon, window=window, max_arrivals=4 * count)
        for clock in make_clocks(rng, count, int_clocks):
            wave.add(clock)
        waves.append(wave)
    return waves


class TestBulkHistogramMerge:
    @pytest.mark.parametrize("int_clocks", [False, True])
    @pytest.mark.parametrize("window", [1e6, 800.0])
    def test_matches_replay_reference(self, int_clocks, window):
        # The small window forces expiry during the replay, which disables the
        # deferred-cascade fast path and exercises the exact fallback.
        rng = random.Random(7)
        histograms = build_histograms(rng, 6, 1_500, window, int_clocks=int_clocks)
        reference = _replay_merge(histograms)
        bulk = merge_exponential_histograms(histograms)
        assert dumps(bulk) == dumps(reference)

    def test_custom_epsilon_prime(self):
        rng = random.Random(11)
        histograms = build_histograms(rng, 3, 800, 1e6)
        reference = _replay_merge(histograms, epsilon_prime=0.02)
        bulk = merge_exponential_histograms(histograms, epsilon_prime=0.02)
        assert dumps(bulk) == dumps(reference)
        assert bulk.epsilon == 0.02

    def test_single_input_and_empty_inputs(self):
        rng = random.Random(3)
        (histogram,) = build_histograms(rng, 1, 400, 1e6)
        assert dumps(merge_exponential_histograms([histogram])) == dumps(_replay_merge([histogram]))
        empty = ExponentialHistogram(epsilon=0.1, window=1e6)
        assert dumps(merge_exponential_histograms([empty, empty])) == dumps(_replay_merge([empty, empty]))

    def test_empty_collection_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_exponential_histograms([])

    def test_count_based_rejected(self):
        histogram = ExponentialHistogram(epsilon=0.1, window=100, model=WindowModel.COUNT_BASED)
        with pytest.raises(WindowModelError):
            merge_exponential_histograms([histogram])

    def test_mismatched_windows_rejected(self):
        one = ExponentialHistogram(epsilon=0.1, window=100.0)
        other = ExponentialHistogram(epsilon=0.1, window=200.0)
        with pytest.raises(IncompatibleSketchError):
            merge_exponential_histograms([one, other])


class TestBulkWaveMerge:
    @pytest.mark.parametrize("int_clocks", [False, True])
    @pytest.mark.parametrize("window", [1e6, 800.0])
    def test_matches_replay_reference(self, int_clocks, window):
        rng = random.Random(13)
        waves = build_waves(rng, 5, 1_200, window, int_clocks=int_clocks)
        reference = _replay_merge(waves)
        bulk = merge_deterministic_waves(waves)
        assert dumps(bulk) == dumps(reference)

    def test_explicit_parameters(self):
        rng = random.Random(17)
        waves = build_waves(rng, 3, 600, 1e6)
        reference = _replay_merge(waves, epsilon_prime=0.03, max_arrivals=50_000)
        bulk = merge_deterministic_waves(waves, epsilon_prime=0.03, max_arrivals=50_000)
        assert dumps(bulk) == dumps(reference)

    def test_empty_collection_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_deterministic_waves([])

    def test_count_based_rejected(self):
        wave = DeterministicWave(
            epsilon=0.1, window=100, max_arrivals=1_000, model=WindowModel.COUNT_BASED
        )
        with pytest.raises(WindowModelError):
            merge_deterministic_waves([wave])


class TestWaveBulkLoad:
    """DeterministicWave.add_batch (arithmetic bulk path) vs scalar adds."""

    @pytest.mark.parametrize("int_clocks", [False, True])
    @pytest.mark.parametrize("window", [1e6, 300.0])
    def test_counted_batch_matches_scalar(self, int_clocks, window):
        rng = random.Random(23)
        clocks = make_clocks(rng, 900, int_clocks)
        counts = [rng.choice([0, 1, 1, 2, 7]) for _ in clocks]
        scalar = DeterministicWave(epsilon=0.08, window=window, max_arrivals=20_000)
        for clock, count in zip(clocks, counts, strict=False):
            scalar.add(clock, count)
        batched = DeterministicWave(epsilon=0.08, window=window, max_arrivals=20_000)
        batched.add_batch(clocks, counts)
        assert dumps(batched) == dumps(scalar)

    def test_batch_onto_existing_state(self):
        # The bulk path must also be exact when the wave already holds
        # checkpoints (ranks continue from the pre-existing total).
        rng = random.Random(29)
        first = make_clocks(rng, 400, False)
        second = [first[-1] + clock for clock in make_clocks(rng, 400, False)]
        scalar = DeterministicWave(epsilon=0.1, window=600.0, max_arrivals=10_000)
        batched = DeterministicWave(epsilon=0.1, window=600.0, max_arrivals=10_000)
        for clock in first:
            scalar.add(clock)
            batched.add(clock)
        for clock in second:
            scalar.add(clock)
        batched.add_batch(second)
        assert dumps(batched) == dumps(scalar)

    def test_all_zero_counts_is_a_no_op(self):
        wave = DeterministicWave(epsilon=0.1, window=100.0, max_arrivals=100)
        wave.add(5.0)
        before = dumps(wave)
        wave.add_batch([6.0, 7.0], [0, 0])
        assert dumps(wave) == before

    def test_object_dtype_clocks_fall_back_to_scalar(self):
        # Clocks NumPy cannot hold natively (ints >= 2**63 become an
        # object-dtype array) must take the scalar path, not crash.
        clocks = [2**70, 2**70 + 3, 2**70 + 7]
        scalar = DeterministicWave(epsilon=0.2, window=100.0, max_arrivals=100)
        for clock in clocks:
            scalar.add(clock, 2)
        batched = DeterministicWave(epsilon=0.2, window=100.0, max_arrivals=100)
        batched.add_batch(clocks, [2, 2, 2])
        assert dumps(batched) == dumps(scalar)

        scalar_eh = ExponentialHistogram(epsilon=0.2, window=100.0)
        for clock in clocks:
            scalar_eh.add(clock, 2)
        batched_eh = ExponentialHistogram(epsilon=0.2, window=100.0)
        batched_eh.add_batch(clocks, [2, 2, 2])
        assert dumps(batched_eh) == dumps(scalar_eh)


class TestRandomizedWaveUnion:
    def build_waves(self, num=4, count=1_500, window=50_000.0, epsilon=0.15):
        waves = []
        for tag in range(num):
            rng = random.Random(100 + tag)
            wave = RandomizedWave(
                epsilon=epsilon, delta=0.15, window=window, max_arrivals=20_000, stream_tag=tag
            )
            for clock in make_clocks(rng, count, False):
                wave.add(clock)
            waves.append(wave)
        return waves

    @staticmethod
    def union_with_cutoff(waves, cutoff):
        with mock.patch.object(randomized_wave, "_SELECTION_CUTOFF", cutoff):
            return RandomizedWave.merged(waves)

    @pytest.mark.parametrize("cutoff", [0, randomized_wave._SELECTION_CUTOFF])
    def test_selection_union_matches_sort_reference(self, cutoff):
        # Cutoff 0 sends every over-capacity level through the selection
        # trim; the default cutoff is what ``merged`` runs unpatched.
        waves = self.build_waves()
        selected = self.union_with_cutoff(waves, cutoff)
        reference = self.union_with_cutoff(waves, math.inf)
        assert dumps(selected) == dumps(reference)

    def test_large_union_takes_selection_at_default_cutoff(self):
        # 16 contributors at a fine epsilon push the dense low levels past
        # the default cutoff, so the unpatched merge selects there.
        waves = self.build_waves(num=16, count=1_500, epsilon=0.04)
        spy = mock.patch.object(randomized_wave, "_select_newest", wraps=randomized_wave._select_newest)
        with spy as select_newest:
            merged = RandomizedWave.merged(waves)
        assert select_newest.called
        assert dumps(merged) == dumps(self.union_with_cutoff(waves, math.inf))

    def test_union_with_capacity_pressure(self):
        # A coarse epsilon keeps per-level capacity tiny, so the union has to
        # trim samples and advance capacity horizons in both implementations.
        waves = []
        for tag in range(3):
            rng = random.Random(200 + tag)
            wave = RandomizedWave(
                epsilon=0.9, delta=0.3, window=1e6, max_arrivals=8_000, stream_tag=tag
            )
            for clock in make_clocks(rng, 2_000, False):
                wave.add(clock)
            waves.append(wave)
        assert dumps(self.union_with_cutoff(waves, 0)) == dumps(self.union_with_cutoff(waves, math.inf))
