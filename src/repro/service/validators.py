"""Pre-ack checks shared by the single-process service and the shard router.

An ingest chunk is checked before it is acknowledged: once acked, a bad
clock, weight, key or site would fail inside the sketch with no client left
to tell.  :func:`check_chunk` is that whole decision, for the service core
and the router alike.  This module loads no NumPy and no sketch, so the
router imports it without the service core.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence
from typing import TYPE_CHECKING, Any

from ..windows.base import MAX_INT_CLOCK, is_int_clock
from .errors import ClockRegressionError, IngestRejectedError, InvalidParameterError

if TYPE_CHECKING:
    from .config import ServiceConfig

__all__ = [
    "check_chunk",
    "note_seq",
    "require_param",
    "validate_clock_column",
    "validate_keys_for_mode",
    "validate_values_column",
]


def check_chunk(
    keys: Sequence[Hashable],
    clocks: Sequence[float],
    values: Sequence[int] | None,
    site: int,
    config: ServiceConfig,
    previous: float | None,
) -> None:
    """Reject an ingest chunk ``config``'s sketch could not apply, pre-ack.

    The one admission point of every served chunk: a non-empty chunk with
    columns of one length, clocks that walk forward from ``previous``,
    non-negative int64 weights, keys the mode takes and, in multisite mode,
    a site id.  An exponential-histogram sketch also needs every int clock
    within ``MAX_INT_CLOCK``: the walk has proven the column non-decreasing,
    so only a chunk whose first or last clock lies beyond the bound is
    scanned.
    """
    n = len(keys)
    if n == 0:
        raise IngestRejectedError("empty ingest chunk")
    if len(clocks) != n:
        raise IngestRejectedError(
            "clocks length %d does not match keys length %d" % (len(clocks), n)
        )
    if values is not None and len(values) != n:
        raise IngestRejectedError(
            "values length %d does not match keys length %d" % (len(values), n)
        )
    validate_clock_column(clocks, previous)
    if values is not None:
        validate_values_column(values)
    validate_keys_for_mode(keys, config.mode, config.universe_bits)
    if config.mode == "multisite" and (
        isinstance(site, bool) or not isinstance(site, int) or not 0 <= site < config.sites
    ):
        raise IngestRejectedError(
            "site must be an integer in [0, %d), got %r" % (config.sites, site)
        )
    if config.resolved_backend == "columnar" and not (
        -MAX_INT_CLOCK <= clocks[0] and clocks[-1] <= MAX_INT_CLOCK
    ):
        for clock in clocks:
            if is_int_clock(clock) and not -MAX_INT_CLOCK <= clock <= MAX_INT_CLOCK:
                raise IngestRejectedError(
                    "int clocks must lie within +-2**53 for exponential "
                    "histograms, got %r" % (clock,)
                )


def note_seq(table: dict[str, int], client_id: str, seq: int, limit: int) -> None:
    """Advance a client's seq high-water mark in a dedup table; the table
    keeps the ``limit`` most recently noted clients."""
    previous = table.pop(client_id, None)
    table[client_id] = seq if previous is None or seq > previous else previous
    while len(table) > limit:
        table.pop(next(iter(table)))


def validate_clock_column(clocks: Sequence[float], previous: float | None) -> None:
    """Reject non-numeric, non-finite or out-of-order clocks, pre-ack.

    Finiteness matters for more than hygiene: every comparison against NaN is
    False, so one NaN clock would disable the ordering high-water mark for
    the rest of the stream.  One pure-Python pass at every chunk length,
    which stops at the first offending clock and names it.  It runs per
    arrival on the ack hot path, so plain ``int`` and ``float`` clocks skip
    the ``isinstance`` checks.
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
