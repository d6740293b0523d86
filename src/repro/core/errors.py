"""Exception hierarchy for the ECM-sketch reproduction library.

All library-specific errors derive from :class:`ReproError` so that callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish configuration problems from incompatible-merge problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "IncompatibleSketchError",
    "WindowModelError",
    "OutOfOrderArrivalError",
    "EmptyStructureError",
]


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a synopsis is constructed with invalid parameters.

    Examples include non-positive epsilon/delta, zero-length sliding windows,
    or a Count-Min array with zero width or depth.
    """


class IncompatibleSketchError(ReproError, ValueError):
    """Raised when two synopses cannot be combined.

    Merging requires identical dimensions, hash seeds, window lengths and
    window models; any mismatch raises this error rather than silently
    producing a meaningless aggregate.
    """


class WindowModelError(ReproError, ValueError):
    """Raised when an operation is not supported by the chosen window model.

    The canonical example is order-preserving aggregation of *count-based*
    sliding windows, which the paper proves impossible (Section 5.1,
    Figure 2): count-based synopses lose the ordering of the "false bits"
    interleaved between observed arrivals.
    """


class OutOfOrderArrivalError(ReproError, ValueError):
    """Raised when an item arrives with a timestamp older than the last one.

    The structures in this library follow the paper and assume in-order
    arrivals within each local stream (the cash-register model with
    non-decreasing timestamps).
    """


class EmptyStructureError(ReproError, RuntimeError):
    """Raised when a query requires data but the structure has seen none."""
