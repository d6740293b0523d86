"""Core contribution of the paper: Count-Min sketches and ECM-sketches."""

from .config import (
    CounterType,
    ECMConfig,
    inner_product_error,
    point_query_error,
    split_inner_product_deterministic,
    split_point_query_deterministic,
    split_point_query_randomized,
)
from .counter_store import CounterStore, ObjectCounterStore, build_store
from .countmin import CountMinSketch, dimensions_for_error
from .ecm_sketch import ECMSketch
from .errors import (
    ConfigurationError,
    EmptyStructureError,
    IncompatibleSketchError,
    OutOfOrderArrivalError,
    ReproError,
    WindowModelError,
)
from .hashing import HashFamily, PairwiseHash, stable_fingerprint, stable_fingerprints

__all__ = [
    "CounterType",
    "ECMConfig",
    "ECMSketch",
    "CounterStore",
    "ObjectCounterStore",
    "build_store",
    "CountMinSketch",
    "dimensions_for_error",
    "HashFamily",
    "PairwiseHash",
    "stable_fingerprint",
    "stable_fingerprints",
    "point_query_error",
    "inner_product_error",
    "split_point_query_deterministic",
    "split_point_query_randomized",
    "split_inner_product_deterministic",
    "ReproError",
    "ConfigurationError",
    "IncompatibleSketchError",
    "WindowModelError",
    "OutOfOrderArrivalError",
    "EmptyStructureError",
]
