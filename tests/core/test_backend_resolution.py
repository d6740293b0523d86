"""Layout resolution: the counter type decides the counter store a sketch gets.

Exponential histograms are stored columnar at every epsilon; waves are stored
one object per cell.  No configuration selects otherwise.
"""

from __future__ import annotations

import pytest

from repro.core import CounterType, ECMConfig, ECMSketch, ObjectCounterStore
from repro.core.counter_store import store_layout
from repro.windows import ColumnarEHStore

WINDOW = 400.0

WAVES = (CounterType.DETERMINISTIC_WAVE, CounterType.RANDOMIZED_WAVE)


@pytest.mark.parametrize("epsilon", [0.5, 0.1, 0.01])
def test_histograms_are_columnar(epsilon):
    config = ECMConfig.for_point_queries(epsilon=epsilon, delta=0.1, window=WINDOW)
    assert store_layout(config.counter_type) == config.resolved_backend == "columnar"
    sketch = ECMSketch(config)
    assert sketch.backend == "columnar"
    assert isinstance(sketch._store, ColumnarEHStore)


def test_histograms_are_columnar_at_tiny_epsilon():
    """eps_sw=0.005 (the hierarchical stacks of Section 6.1) needs ~100
    buckets per level; the lazily grown slot axis keeps it columnar."""
    config = ECMConfig(epsilon_cm=0.005, epsilon_sw=0.005, delta=0.05, window=3_600_000.0)
    assert config.resolved_backend == "columnar"
    assert isinstance(ECMSketch(config)._store, ColumnarEHStore)


@pytest.mark.parametrize("counter_type", WAVES)
def test_waves_are_objects(counter_type):
    config = ECMConfig.for_point_queries(
        epsilon=0.1, delta=0.1, window=WINDOW, counter_type=counter_type, max_arrivals=1000
    )
    assert store_layout(counter_type) == config.resolved_backend == "object"
    sketch = ECMSketch(config)
    assert sketch.backend == "object"
    assert isinstance(sketch._store, ObjectCounterStore)
