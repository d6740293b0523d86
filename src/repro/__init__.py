"""ECM-sketches: sketch-based querying of distributed sliding-window data streams.

A faithful, self-contained reproduction of Papapetrou, Garofalakis and
Deligiannakis, *Sketch-based Querying of Distributed Sliding-Window Data
Streams*, PVLDB 5(10), 2012.

Quickstart::

    from repro import ECMSketch

    sketch = ECMSketch.for_point_queries(epsilon=0.05, delta=0.05, window=3600)
    sketch.add("10.1.2.3", clock=12.0)
    sketch.add("10.1.2.3", clock=57.0)
    estimate = sketch.point_query("10.1.2.3", range_length=3600)

Package layout:

* :mod:`repro.core` — Count-Min sketches, ECM-sketches, error-budget configuration;
* :mod:`repro.windows` — exponential histograms, deterministic/randomized waves,
  exact counters, order-preserving aggregation;
* :mod:`repro.queries` — heavy hitters, range queries and quantiles over sliding windows;
* :mod:`repro.distributed` — simulated distributed deployments, hierarchical
  aggregation and geometric-method continuous monitoring;
* :mod:`repro.streams` — synthetic traces standing in for the paper's data sets;
* :mod:`repro.baselines` — exact summaries used to measure observed error;
* :mod:`repro.analysis` — error metrics, memory accounting and result reporting.

``repro``, :mod:`repro.core`, :mod:`repro.windows`, :mod:`repro.streams`,
:mod:`repro.distributed` and :mod:`repro.service` resolve their public names
on first access, so a process loads only the layers it uses: ``import
repro`` loads no NumPy, and the shard router of ``repro serve --shards N``
imports neither NumPy nor any sketch code.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

#: Every public name of the package and the submodule that defines it,
#: imported on first access (PEP 562).
_EXPORTS: dict[str, str] = {
    "ECMSketch": "core.ecm_sketch",
    "ECMConfig": "core.config",
    "CounterType": "core.config",
    "CountMinSketch": "core.countmin",
    "HashFamily": "core.hashing",
    "WindowModel": "windows.base",
    "ExponentialHistogram": "windows.exponential_histogram",
    "DeterministicWave": "windows.deterministic_wave",
    "RandomizedWave": "windows.randomized_wave",
    "ExactWindowCounter": "windows.exact_window",
    "ReproError": "core.errors",
    "ConfigurationError": "core.errors",
    "IncompatibleSketchError": "core.errors",
    "WindowModelError": "core.errors",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str) -> Any:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + submodule, __name__), name)
    globals()[name] = value
    return value
