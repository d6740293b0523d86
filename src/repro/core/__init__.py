"""Core contribution of the paper: Count-Min sketches and ECM-sketches.

The package imports nothing up front: every public name resolves to its
defining submodule on first access (PEP 562).  So a process that only needs
the configuration and the error types — the shard router, a config loader —
never loads NumPy or the sketch code; ``from repro.core import ECMSketch``
imports :mod:`repro.core.ecm_sketch` when it runs.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Every public name of the package and the submodule that defines it.
_EXPORTS: dict[str, str] = {
    "CounterType": "config",
    "ECMConfig": "config",
    "ECMSketch": "ecm_sketch",
    "CounterStore": "counter_store",
    "ObjectCounterStore": "counter_store",
    "build_store": "counter_store",
    "CountMinSketch": "countmin",
    "dimensions_for_error": "config",
    "HashFamily": "hashing",
    "PairwiseHash": "hashing",
    "stable_fingerprint": "hashing",
    "stable_fingerprints": "hashing",
    "point_query_error": "config",
    "inner_product_error": "config",
    "split_point_query_deterministic": "config",
    "split_point_query_randomized": "config",
    "split_inner_product_deterministic": "config",
    "ReproError": "errors",
    "ConfigurationError": "errors",
    "IncompatibleSketchError": "errors",
    "WindowModelError": "errors",
    "OutOfOrderArrivalError": "errors",
    "EmptyStructureError": "errors",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + submodule, __name__), name)
    globals()[name] = value
    return value
