"""Pre-ack checks shared by the single-process service and the shard router.

An ingest chunk is checked before it is acknowledged: once acked, a bad
clock, weight or key would fail inside the sketch with no client left to
tell.  The service core and the router run the same checks, so both live
here, in a module that loads no sketch code: the router imports it without
the service core.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence
from typing import Any

from .errors import ClockRegressionError, IngestRejectedError, InvalidParameterError

__all__ = [
    "require_param",
    "validate_clock_column",
    "validate_keys_for_mode",
    "validate_values_column",
]


def validate_clock_column(clocks: Sequence[float], previous: float | None) -> None:
    """Reject non-numeric, non-finite or out-of-order clocks, pre-ack.

    Finiteness matters for more than hygiene: every comparison against NaN is
    False, so one NaN clock would disable the ordering high-water mark for
    the rest of the stream.  One pure-Python pass at every chunk length,
    which stops at the first offending clock and names it.  It runs per
    arrival on the ack hot path, so plain ``int`` and ``float`` clocks skip
    the ``isinstance`` checks.  Shared by the single-process service (global
    high-water mark) and the shard router (per-shard high-water marks).
    """
    isfinite = math.isfinite
    mark = -math.inf if previous is None else previous
    for clock in clocks:
        kind = type(clock)
        if kind is not float and kind is not int and (
            not isinstance(clock, (int, float)) or isinstance(clock, bool)
        ):
            raise IngestRejectedError("clocks must be numbers, got %r" % (clock,))
        if not isfinite(clock):
            raise IngestRejectedError("clocks must be finite, got %r" % (clock,))
        if clock < mark:
            raise ClockRegressionError(
                "out-of-order clock %r (high-water mark %r); arrival clocks "
                "must be non-decreasing" % (clock, mark)
            )
        mark = clock


def validate_values_column(values: Sequence[int]) -> None:
    """Reject anything but non-negative integers that fit int64 in a values column."""
    for value in values:
        if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 1 << 63:
            raise IngestRejectedError(
                "values must be non-negative integers below 2**63, got %r" % (value,)
            )


def validate_keys_for_mode(keys: Sequence[Hashable], mode: str, universe_bits: int) -> None:
    """Reject keys the given service mode cannot ingest, pre-ack."""
    if mode == "hierarchical":
        universe = 1 << universe_bits
        for key in keys:
            if not isinstance(key, int) or isinstance(key, bool) or not (0 <= key < universe):
                raise IngestRejectedError(
                    "hierarchical keys must be integers in [0, %d), got %r" % (universe, key)
                )
    else:
        # Flat/multisite keys arrive as arbitrary JSON values; an unhashable
        # one (list, dict) would otherwise blow up inside add_many *after*
        # the chunk was acknowledged, killing the consumer task.  Validation
        # happens here, before the ack.
        for key in keys:
            try:
                # Hashability probe only — the salted value is discarded, so
                # process-randomized hashing cannot leak into sketch state.
                hash(key)  # reprolint: disable=RL001 -- probe, not partitioning
            except TypeError:
                raise IngestRejectedError(
                    "keys must be hashable scalars, got %s" % (type(key).__name__,)
                ) from None


def require_param(message: dict[str, Any], name: str) -> Any:
    """``message[name]``, or the one "missing required parameter" error."""
    if name not in message:
        raise InvalidParameterError("missing required parameter %r" % (name,))
    return message[name]
