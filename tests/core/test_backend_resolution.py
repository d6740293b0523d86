"""Backend resolution: ``ECMConfig.backend`` -> the counter store a sketch gets.

``"auto"`` picks ``columnar`` for exponential histograms and ``object`` for
waves; an explicit name gets exactly that store or fails loudly; anything
else is an unknown backend.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BACKENDS,
    BackendUnavailableError,
    ConfigurationError,
    CounterType,
    ECMConfig,
    ECMSketch,
    ObjectCounterStore,
)
from repro.windows import ColumnarEHStore

WINDOW = 400.0


def _eh_config(backend: str = "auto", **kwargs) -> ECMConfig:
    kwargs.setdefault("epsilon", 0.1)
    kwargs.setdefault("delta", 0.1)
    return ECMConfig.for_point_queries(window=WINDOW, backend=backend, **kwargs)


def _wave_config(counter_type: CounterType, backend: str = "auto") -> ECMConfig:
    return ECMConfig.for_point_queries(
        epsilon=0.1,
        delta=0.1,
        window=WINDOW,
        counter_type=counter_type,
        max_arrivals=1000,
        backend=backend,
    )


WAVES = (CounterType.DETERMINISTIC_WAVE, CounterType.RANDOMIZED_WAVE)


class TestAuto:
    @pytest.mark.parametrize("epsilon", [0.5, 0.1, 0.01])
    def test_auto_is_columnar_for_histograms(self, epsilon):
        config = _eh_config(epsilon=epsilon)
        assert config.resolved_backend == "columnar"
        sketch = ECMSketch(config)
        assert sketch.backend == "columnar"
        assert isinstance(sketch._store, ColumnarEHStore)

    def test_auto_is_columnar_at_tiny_epsilon(self):
        """eps_sw=0.005 (the hierarchical stacks of Section 6.1) needs ~100
        buckets per level; the lazily grown slot axis keeps it columnar."""
        config = ECMConfig(epsilon_cm=0.005, epsilon_sw=0.005, delta=0.05, window=3_600_000.0)
        assert config.resolved_backend == "columnar"
        assert isinstance(ECMSketch(config)._store, ColumnarEHStore)

    @pytest.mark.parametrize("counter_type", WAVES)
    def test_auto_is_object_for_waves(self, counter_type):
        config = _wave_config(counter_type)
        assert config.resolved_backend == "object"
        sketch = ECMSketch(config)
        assert sketch.backend == "object"
        assert isinstance(sketch._store, ObjectCounterStore)


class TestExplicit:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_explicit_name_is_honoured_for_histograms(self, name):
        config = _eh_config(backend=name)
        assert config.resolved_backend == name
        assert ECMSketch(config).backend == name

    @pytest.mark.parametrize("counter_type", WAVES)
    def test_explicit_columnar_rejects_waves(self, counter_type):
        config = _wave_config(counter_type, backend="columnar")
        with pytest.raises(BackendUnavailableError, match="counter_type"):
            config.resolved_backend  # noqa: B018
        with pytest.raises(BackendUnavailableError, match="counter_type"):
            ECMSketch(config)

    @pytest.mark.parametrize("name", ["rowwise", "kernels", ""])
    def test_unknown_backend_rejected_at_construction(self, name):
        with pytest.raises(ConfigurationError, match="unknown backend") as caught:
            _eh_config(backend=name)
        assert "auto, columnar, object" in str(caught.value)
        assert not isinstance(caught.value, BackendUnavailableError)
