"""Analytical memory bounds (paper Section 4.2 and Table 2).

These functions evaluate the asymptotic space formulas of Table 2 with
explicit constants, in bits.  They serve two purposes: (a) reproduce the
complexity comparison of Table 2 as concrete numbers, and (b) let experiments
cross-check the measured footprints (``memory_bytes()`` of the live
structures) against the worst-case bounds — measured footprints must never
exceed the bound evaluated with the same constants.
"""

from __future__ import annotations

import math

from ..core.config import CounterType, dimensions_for_error
from ..core.errors import ConfigurationError

__all__ = [
    "g_bound",
    "exponential_histogram_bits",
    "deterministic_wave_bits",
    "randomized_wave_bits",
    "counter_bits",
    "ecm_sketch_bits",
    "ecm_sketch_bytes",
]

_FIELD_BITS = 32


def g_bound(window: float, max_arrivals: int) -> float:
    """The paper's ``g(N, S) = max(u(N, S), N)`` shortcut."""
    if window <= 0 or max_arrivals <= 0:
        raise ConfigurationError("window and max_arrivals must be positive")
    return max(float(max_arrivals), float(window))


def exponential_histogram_bits(epsilon: float, window: float, max_arrivals: int) -> float:
    """Worst-case size of one exponential histogram, in bits.

    ``O(log^2(g(N,S)) / epsilon)``: about ``(1/(2 eps) + 2)`` buckets per size
    class, ``log2(eps * u) + 1`` size classes, three 32-bit fields per bucket.
    """
    if not (0 < epsilon < 1):
        raise ConfigurationError("epsilon must be in (0, 1)")
    levels = max(1.0, math.log2(max(2.0, epsilon * max_arrivals)) + 1.0)
    per_level = math.ceil(1.0 / (2.0 * epsilon)) + 2
    buckets = levels * per_level
    return buckets * 3 * _FIELD_BITS


def deterministic_wave_bits(epsilon: float, window: float, max_arrivals: int) -> float:
    """Worst-case size of one deterministic wave, in bits.

    Same asymptotics as the exponential histogram but with ``2/epsilon + 1``
    checkpoints per level and two fields per checkpoint.
    """
    if not (0 < epsilon < 1):
        raise ConfigurationError("epsilon must be in (0, 1)")
    levels = max(1.0, math.ceil(math.log2(max(2.0, epsilon * max_arrivals))) + 1.0)
    per_level = math.ceil(2.0 / epsilon) + 1
    return levels * per_level * 2 * _FIELD_BITS


def randomized_wave_bits(
    epsilon: float,
    delta: float,
    max_arrivals: int,
    capacity_constant: float = 4.0,
) -> float:
    """Worst-case size of one randomized wave, in bits.

    ``O(log(1/delta) * log(u) / epsilon**2)`` entries of two fields each — the
    quadratic ``1/epsilon**2`` term is what separates randomized waves from
    the deterministic synopses by an order of magnitude in the paper's plots.
    """
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ConfigurationError("epsilon and delta must be in (0, 1)")
    copies = max(1.0, math.ceil(math.log(1.0 / delta)))
    levels = max(1.0, math.ceil(math.log2(max(2.0, float(max_arrivals)))) + 1.0)
    per_level = max(4.0, math.ceil(capacity_constant / epsilon ** 2))
    return copies * levels * per_level * 2 * _FIELD_BITS


def counter_bits(
    counter_type: CounterType,
    epsilon_sw: float,
    window: float,
    max_arrivals: int,
    delta_sw: float = 0.05,
) -> float:
    """Worst-case size of one sliding-window counter of the given type, in bits."""
    if counter_type is CounterType.EXPONENTIAL_HISTOGRAM:
        return exponential_histogram_bits(epsilon_sw, window, max_arrivals)
    if counter_type is CounterType.DETERMINISTIC_WAVE:
        return deterministic_wave_bits(epsilon_sw, window, max_arrivals)
    if counter_type is CounterType.RANDOMIZED_WAVE:
        return randomized_wave_bits(epsilon_sw, delta_sw, max_arrivals)
    raise ConfigurationError("unknown counter type %r" % (counter_type,))


def ecm_sketch_bits(
    counter_type: CounterType,
    epsilon_sw: float,
    epsilon_cm: float,
    delta: float,
    window: float,
    max_arrivals: int,
    delta_sw: float = 0.05,
) -> float:
    """Worst-case size of a whole ECM-sketch, in bits (width x depth counters)."""
    width, depth = dimensions_for_error(epsilon_cm, delta)
    per_counter = counter_bits(counter_type, epsilon_sw, window, max_arrivals, delta_sw)
    return width * depth * per_counter


def ecm_sketch_bytes(
    counter_type: CounterType,
    epsilon_sw: float,
    epsilon_cm: float,
    delta: float,
    window: float,
    max_arrivals: int,
    delta_sw: float = 0.05,
) -> float:
    """Worst-case size of a whole ECM-sketch, in bytes."""
    return ecm_sketch_bits(
        counter_type, epsilon_sw, epsilon_cm, delta, window, max_arrivals, delta_sw
    ) / 8.0
