"""Sliding-window counter substrates used inside ECM-sketches.

This package provides the three sliding-window counting algorithms the paper
evaluates as ECM-sketch counter implementations — exponential histograms,
deterministic waves and randomized waves — plus an exact baseline counter and
the order-preserving aggregation algorithms of Section 5.

The package imports nothing up front: every public name resolves to its
defining submodule on first access (PEP 562).  So importing
:mod:`repro.windows.base` for :class:`WindowModel` and the validators, as
the configuration chain does, loads neither NumPy nor a counter.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Every public name of the package and the submodule that defines it.
_EXPORTS: dict[str, str] = {
    "SlidingWindowCounter": "base",
    "WindowModel": "base",
    "Bucket": "exponential_histogram",
    "ColumnarEHStore": "columnar_eh",
    "ExponentialHistogram": "exponential_histogram",
    "DeterministicWave": "deterministic_wave",
    "WaveCheckpoint": "deterministic_wave",
    "RandomizedWave": "randomized_wave",
    "ExactWindowCounter": "exact_window",
    "aggregated_error": "merge",
    "multi_level_error": "merge",
    "epsilon_for_levels": "merge",
    "bucket_replay_events": "merge",
    "wave_replay_events": "merge",
    "merge_exponential_histograms": "merge",
    "merge_deterministic_waves": "merge",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + submodule, __name__), name)
    globals()[name] = value
    return value
