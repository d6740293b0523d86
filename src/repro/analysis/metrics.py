"""Observed-error metrics matching the paper's experimental methodology.

Section 7 evaluates sketches by *observed* (not worst-case) error:

* point queries: ``err = |est - true| / ||a_r||_1`` — the absolute estimation
  error normalised by the number of arrivals in the query range;
* self-joins: ``err = |est - true| / ||a_r||_1**2``.

Queries are generated with exponentially increasing ranges
``q_i = (t - 10**i, t]`` where ``t`` is the time of the last arrival, and for
every range one point query is issued *per distinct item present in the
range*.  This module reproduces that query workload and the error summaries
(average and maximum observed error) reported in Figures 4–6 and Table 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Hashable, Sequence

from ..baselines.exact import ExactStreamSummary
from ..core.ecm_sketch import ECMSketch
from ..core.errors import ConfigurationError

__all__ = [
    "ErrorSummary",
    "exponential_query_ranges",
    "point_query_errors",
    "self_join_error",
    "evaluate_point_queries",
    "evaluate_self_join_queries",
    "evaluate_queries",
]


@dataclass
class ErrorSummary:
    """Average / maximum observed error over a batch of queries."""

    average: float
    maximum: float
    count: int

    @classmethod
    def from_errors(cls, errors: Sequence[float]) -> ErrorSummary:
        """Summarise a list of observed errors.

        The average uses ``math.fsum`` (correctly rounded), so it reads the
        same on every Python version: ``sum`` of floats compensates since 3.12.
        """
        if not errors:
            return cls(average=0.0, maximum=0.0, count=0)
        return cls(average=math.fsum(errors) / len(errors), maximum=max(errors), count=len(errors))

    def merge(self, other: ErrorSummary) -> ErrorSummary:
        """Combine two summaries (weighted average, overall maximum)."""
        total = self.count + other.count
        if total == 0:
            return ErrorSummary(0.0, 0.0, 0)
        average = (self.average * self.count + other.average * other.count) / total
        return ErrorSummary(average=average, maximum=max(self.maximum, other.maximum), count=total)


def exponential_query_ranges(window: float, base: float = 10.0, start_exponent: int = 1) -> list[float]:
    """The paper's exponentially increasing query ranges ``10**i``, capped at the window."""
    if window <= 0:
        raise ConfigurationError("window must be positive, got %r" % (window,))
    if base <= 1:
        raise ConfigurationError("base must be greater than 1, got %r" % (base,))
    ranges: list[float] = []
    exponent = start_exponent
    while True:
        value = base ** exponent
        if value >= window:
            ranges.append(window)
            break
        ranges.append(value)
        exponent += 1
    return ranges


def point_query_errors(
    sketch: ECMSketch,
    exact: ExactStreamSummary,
    range_length: float,
    now: float | None = None,
    keys: Sequence[Hashable] | None = None,
    max_keys: int | None = None,
) -> list[float]:
    """Observed point-query errors for every distinct in-range key.

    Args:
        sketch: The sketch under evaluation.
        exact: The exact summary of the same stream.
        range_length: Query range.
        now: Right edge of the query (defaults to the last arrival).
        keys: Explicit key set; defaults to every key present in the range.
        max_keys: Optional cap on the number of evaluated keys (keeps large
            experiments tractable without changing the error statistics much).

    Returns:
        One ``|est - true| / ||a_r||_1`` value per evaluated key.  Ranges with
        no arrivals produce an empty list.
    """
    arrivals = exact.arrivals(range_length, now)
    if arrivals == 0:
        return []
    frequencies = exact.frequencies_in_range(range_length, now)
    if keys is None:
        keys = list(frequencies.keys())
    if max_keys is not None:
        keys = list(keys)[:max_keys]
    errors: list[float] = []
    for key in keys:
        estimate = sketch.point_query(key, range_length, now)
        true = frequencies.get(key, exact.frequency(key, range_length, now))
        errors.append(abs(estimate - true) / arrivals)
    return errors


def self_join_error(
    sketch: ECMSketch,
    exact: ExactStreamSummary,
    range_length: float,
    now: float | None = None,
) -> float | None:
    """Observed self-join error ``|est - true| / ||a_r||_1**2`` for one range."""
    arrivals = exact.arrivals(range_length, now)
    if arrivals == 0:
        return None
    estimate = sketch.self_join(range_length, now)
    true = exact.self_join(range_length, now)
    return abs(estimate - true) / float(arrivals) ** 2


def evaluate_point_queries(
    sketch: ECMSketch,
    exact: ExactStreamSummary,
    ranges: Sequence[float],
    now: float | None = None,
    max_keys_per_range: int | None = None,
) -> ErrorSummary:
    """Observed point-query error summary over several query ranges."""
    all_errors: list[float] = []
    for range_length in ranges:
        all_errors.extend(
            point_query_errors(sketch, exact, range_length, now, max_keys=max_keys_per_range)
        )
    return ErrorSummary.from_errors(all_errors)


def evaluate_self_join_queries(
    sketch: ECMSketch,
    exact: ExactStreamSummary,
    ranges: Sequence[float],
    now: float | None = None,
) -> ErrorSummary:
    """Observed self-join error summary over several query ranges."""
    errors: list[float] = []
    for range_length in ranges:
        error = self_join_error(sketch, exact, range_length, now)
        if error is not None:
            errors.append(error)
    return ErrorSummary.from_errors(errors)


def evaluate_queries(
    sketch: ECMSketch,
    exact: ExactStreamSummary,
    query_type: str,
    ranges: Sequence[float],
    now: float | None = None,
    max_keys_per_range: int | None = None,
) -> ErrorSummary:
    """Observed error summary of ``"point"`` or ``"self-join"`` queries."""
    if query_type == "point":
        return evaluate_point_queries(sketch, exact, ranges, now=now, max_keys_per_range=max_keys_per_range)
    return evaluate_self_join_queries(sketch, exact, ranges, now=now)
