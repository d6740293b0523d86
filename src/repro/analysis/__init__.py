"""Error metrics, memory bounds and result reporting for the experiments."""

from .memory import (
    counter_bits,
    deterministic_wave_bits,
    ecm_sketch_bits,
    ecm_sketch_bytes,
    exponential_histogram_bits,
    g_bound,
    randomized_wave_bits,
)
from .metrics import (
    ErrorSummary,
    evaluate_point_queries,
    evaluate_self_join_queries,
    exponential_query_ranges,
    point_query_errors,
    self_join_error,
)
from .reporting import row_to_dict, rows_to_dicts, write_csv, write_json, write_rows

__all__ = [
    "ErrorSummary",
    "exponential_query_ranges",
    "point_query_errors",
    "self_join_error",
    "evaluate_point_queries",
    "evaluate_self_join_queries",
    "g_bound",
    "exponential_histogram_bits",
    "deterministic_wave_bits",
    "randomized_wave_bits",
    "counter_bits",
    "ecm_sketch_bits",
    "ecm_sketch_bytes",
    "row_to_dict",
    "rows_to_dicts",
    "write_json",
    "write_csv",
    "write_rows",
]
