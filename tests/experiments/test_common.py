"""Unit tests for the shared experiment plumbing."""

from __future__ import annotations

import pytest

from repro.core import CounterType
from repro.core.errors import ConfigurationError
from repro.experiments import (
    PAPER_WINDOW_SECONDS,
    VARIANT_LABELS,
    build_sketch,
    load_dataset,
    max_arrivals_bound,
)


class TestVariantLabels:
    def test_all_counter_types_labelled(self):
        assert set(VARIANT_LABELS) == set(CounterType)
        assert VARIANT_LABELS[CounterType.EXPONENTIAL_HISTOGRAM] == "ECM-EH"
        assert VARIANT_LABELS[CounterType.DETERMINISTIC_WAVE] == "ECM-DW"
        assert VARIANT_LABELS[CounterType.RANDOMIZED_WAVE] == "ECM-RW"


class TestBuildSketch:
    def test_point_query_sizing(self):
        sketch = build_sketch(
            counter_type=CounterType.EXPONENTIAL_HISTOGRAM,
            epsilon=0.1,
            delta=0.1,
            window=PAPER_WINDOW_SECONDS,
            max_arrivals=1_000,
            query_type="point",
        )
        assert sketch.config.total_point_error == pytest.approx(0.1)

    def test_self_join_sizing_differs_from_point(self):
        point = build_sketch(
            counter_type=CounterType.EXPONENTIAL_HISTOGRAM,
            epsilon=0.1, delta=0.1, window=PAPER_WINDOW_SECONDS,
            max_arrivals=1_000, query_type="point",
        )
        join = build_sketch(
            counter_type=CounterType.EXPONENTIAL_HISTOGRAM,
            epsilon=0.1, delta=0.1, window=PAPER_WINDOW_SECONDS,
            max_arrivals=1_000, query_type="self-join",
        )
        # The inner-product split spends the budget differently, so the
        # resulting Count-Min width differs (this is why Figure 4 shows
        # different memory for the two query types at the same epsilon).
        assert join.config.epsilon_cm != point.config.epsilon_cm

    def test_unknown_query_type_rejected(self):
        with pytest.raises(ConfigurationError):
            build_sketch(
                counter_type=CounterType.EXPONENTIAL_HISTOGRAM,
                epsilon=0.1, delta=0.1, window=PAPER_WINDOW_SECONDS,
                max_arrivals=1_000, query_type="range",
            )

    def test_randomized_wave_self_join_falls_back_to_point_split(self):
        """The runners never request an RW self-join sketch: the paper gives
        randomized waves no self-join guarantee."""
        with pytest.raises(ConfigurationError):
            build_sketch(
                counter_type=CounterType.RANDOMIZED_WAVE,
                epsilon=0.1, delta=0.1, window=PAPER_WINDOW_SECONDS,
                max_arrivals=1_000, query_type="self-join",
            )


class TestBounds:
    def test_max_arrivals_bound_is_conservative(self):
        stream = load_dataset("wc98", num_records=1_000)
        assert max_arrivals_bound(stream) >= len(stream)
        assert max_arrivals_bound(stream, safety_factor=4.0) == 4_000

    def test_dataset_sizes_respect_override(self):
        assert len(load_dataset("snmp", num_records=750)) == 750
