"""Common abstractions for sliding-window counters.

Every Count-Min counter inside an ECM-sketch is a *sliding-window counter*:
a structure that ingests unit arrivals ("true bits" in the basic-counting
terminology of Datar et al.) stamped with a clock value, and can estimate how
many arrivals happened within the most recent ``r`` clock units.

Two window models are supported, mirroring the paper:

* **time-based** — the clock is wall-clock time (any monotone numeric unit);
  the window covers the last ``N`` time units.
* **count-based** — the clock is the global arrival index of the *underlying
  stream*; the window covers the last ``N`` stream arrivals.

Both models share the same mechanics (expire everything whose clock value
falls out of ``(now - N, now]``), so concrete counters implement a single
clock-agnostic algorithm and carry a :class:`WindowModel` tag.  The tag
matters for composition: the paper proves (Section 5.1, Figure 2) that
count-based synopses cannot be aggregated in an order-preserving way, so
merge operations check the tag and refuse count-based inputs.
"""

from __future__ import annotations

import abc
import enum
import numbers
from collections.abc import Iterable, Sequence

from ..core.errors import ConfigurationError, OutOfOrderArrivalError

__all__ = [
    "WindowModel",
    "SlidingWindowCounter",
    "validate_epsilon",
    "validate_delta",
    "validate_window",
    "is_int_clock",
    "MAX_INT_CLOCK",
]


class WindowModel(enum.Enum):
    """Which clock a sliding-window counter uses."""

    TIME_BASED = "time"
    COUNT_BASED = "count"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Largest magnitude of an int clock the columnar EH store takes.  It keeps
#: every clock as float64, which holds each int up to here exactly; the store
#: rejects larger ints on every path in, and the service before the ack.
MAX_INT_CLOCK = 1 << 53


def is_int_clock(value: object) -> bool:
    """True when ``value`` is an integer clock (a ``bool`` is not one).

    An exponential histogram keeps its clocks as ints while every clock it
    took is one, and as floats from its first other clock on.
    """
    kind = type(value)
    if kind is int or kind is float:  # the common cases, without the ABC check
        return kind is int
    return isinstance(value, numbers.Integral) and kind is not bool


def _require_real(value: object, name: str) -> None:
    """Reject a value that is not a real number (``bool`` included) by name.

    Checked before any comparison, so ``None``, strings and lists fail as
    :class:`ConfigurationError` rather than as a ``TypeError``.
    """
    if type(value) is float or type(value) is int:  # the common case, without the ABC check
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError("%s must be a real number, got %r" % (name, value))


def validate_epsilon(epsilon: float, name: str = "epsilon") -> float:
    """Validate a relative-error parameter, returning it unchanged.

    Raises:
        ConfigurationError: if ``epsilon`` is not a real number in ``(0, 1)``.
    """
    _require_real(epsilon, name)
    if not (0.0 < epsilon < 1.0):
        raise ConfigurationError("%s must be in (0, 1), got %r" % (name, epsilon))
    return float(epsilon)


def validate_delta(delta: float, name: str = "delta") -> float:
    """Validate a failure-probability parameter, returning it unchanged.

    Raises:
        ConfigurationError: if ``delta`` is not a real number in ``(0, 1)``.
    """
    _require_real(delta, name)
    if not (0.0 < delta < 1.0):
        raise ConfigurationError("%s must be in (0, 1), got %r" % (name, delta))
    return float(delta)


def validate_window(window: float, name: str = "window") -> float:
    """Validate a sliding-window length, returning it unchanged.

    Raises:
        ConfigurationError: if ``window`` is not a strictly positive real number.
    """
    _require_real(window, name)
    if window <= 0:
        raise ConfigurationError("%s must be positive, got %r" % (name, window))
    return float(window)


class SlidingWindowCounter(abc.ABC):
    """Abstract base class for all sliding-window counters.

    Concrete subclasses: :class:`~repro.windows.exponential_histogram.ExponentialHistogram`,
    :class:`~repro.windows.deterministic_wave.DeterministicWave`,
    :class:`~repro.windows.randomized_wave.RandomizedWave` and the exact
    baseline :class:`~repro.windows.exact_window.ExactWindowCounter`.

    The interface is deliberately tiny: counters only need to support unit
    additions at a clock value, estimation over a suffix range, expiry, and a
    byte-accurate analytical memory report.
    """

    #: Sliding-window length (time units or arrivals, depending on the model).
    window: float
    #: The window model this counter was configured for.
    model: WindowModel

    def __init__(self, window: float, model: WindowModel) -> None:
        self.window = validate_window(window)
        if not isinstance(model, WindowModel):
            raise ConfigurationError("model must be a WindowModel, got %r" % (model,))
        self.model = model
        self._last_clock: float | None = None

    # ------------------------------------------------------------------ API
    @abc.abstractmethod
    def add(self, clock: float, count: int = 1) -> None:
        """Register ``count`` unit arrivals at clock value ``clock``.

        ``clock`` values must be non-decreasing across calls (cash-register
        model with in-order arrivals).
        """

    @abc.abstractmethod
    def estimate(self, range_length: float | None = None, now: float | None = None) -> float:
        """Estimate the number of arrivals within the last ``range_length`` clock units.

        Args:
            range_length: Query range ``r``.  ``None`` (or anything larger
                than the window) means "the whole sliding window".
            now: Clock value defining the right edge of the query.  ``None``
                means "the clock of the most recent arrival".

        Returns:
            The estimated count (possibly fractional due to bucket halving).
        """

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Analytical memory footprint of the structure, in bytes.

        The accounting convention follows the paper's 32-bit implementation:
        32 bits per stored counter/size field and per stored timestamp.  This
        deliberately models the footprint of the *synopsis*, not of the Python
        object graph, so that memory comparisons between variants match the
        paper's.
        """

    @abc.abstractmethod
    def total_arrivals(self) -> int:
        """Exact number of arrivals ever registered (not only in the window)."""

    # --------------------------------------------------------------- helpers
    def _advance_clock(self, clock: float) -> None:
        """Record the arrival clock, enforcing in-order arrivals."""
        if self._last_clock is not None and clock < self._last_clock:
            raise OutOfOrderArrivalError(
                "arrival clock %r is older than the previous arrival %r"
                % (clock, self._last_clock)
            )
        self._last_clock = clock

    @property
    def last_clock(self) -> float | None:
        """Clock value of the most recent arrival, or ``None`` if empty."""
        return self._last_clock

    def resolve_query_bounds(
        self, range_length: float | None, now: float | None
    ) -> tuple[float, float]:
        """Resolve (query start, query end) clock values for an estimate call.

        The query covers the half-open interval ``(start, end]``: an arrival
        exactly at ``start`` is *outside* the query range, an arrival exactly
        at ``end`` is inside.  This matches the paper's convention where query
        ``q_i`` covers ``[t - 10^i, t]`` with ``t`` the last arrival time.
        """
        if now is None:
            now = self._last_clock if self._last_clock is not None else 0.0
        if range_length is None or range_length > self.window:
            range_length = self.window
        if range_length <= 0:
            raise ConfigurationError("query range must be positive, got %r" % (range_length,))
        return now - range_length, now

    # ------------------------------------------------------------ iteration
    def extend(self, clocks: Iterable[float]) -> None:
        """Convenience: add one unit arrival for every clock value in order."""
        for clock in clocks:
            self.add(clock)

    # -------------------------------------------------------------- batching
    def add_batch(
        self,
        clocks: Sequence[float],
        counts: Sequence[int] | None = None,
        *,
        assume_ordered: bool = False,
    ) -> None:
        """Register a run of in-order arrivals in one call.

        For a valid run the resulting counter state is byte-for-byte the same
        as calling :meth:`add` once per element, but concrete counters may
        override this to amortize per-arrival bookkeeping (clock validation,
        expiry scans, cascades) across the whole run.  This is the seam
        :meth:`repro.core.ecm_sketch.ECMSketch.add_many` uses after grouping a
        batch of arrivals per (row, column) cell.

        Unlike a sequence of scalar :meth:`add` calls (which commit every
        arrival before the offending one), an invalid run — negative count or
        out-of-order clock — raises *before any mutation*, leaving the
        counter untouched.

        Args:
            clocks: Non-decreasing clock values, one per arrival.
            counts: Optional per-arrival weights (defaults to 1 each).
            assume_ordered: Promise that ``clocks`` are non-decreasing and not
                older than the counter's last arrival, allowing overrides to
                skip per-arrival order validation.  Only set this when the
                caller has already validated the run (as ``add_many`` does);
                passing unordered clocks with this flag corrupts the counter.
        """
        self._validate_batch(clocks, counts, assume_ordered)
        if counts is None:
            for clock in clocks:
                self.add(clock)
        else:
            for clock, count in zip(clocks, counts, strict=False):
                self.add(clock, count)

    def _validate_batch(
        self,
        clocks: Sequence[float],
        counts: Sequence[int] | None,
        assume_ordered: bool,
    ) -> None:
        """Validate a whole run upfront so a failed batch mutates nothing.

        Zero-count arrivals are exempt from clock ordering, exactly as in the
        scalar path (a zero-count :meth:`add` returns before validation).
        """
        if counts is not None:
            if len(counts) != len(clocks):
                raise ConfigurationError(
                    "counts length %d does not match clocks length %d"
                    % (len(counts), len(clocks))
                )
            for count in counts:
                if count < 0:
                    raise ConfigurationError("count must be non-negative, got %r" % (count,))
        if assume_ordered:
            return
        previous = self._last_clock
        if counts is None:
            for clock in clocks:
                if previous is not None and clock < previous:
                    raise OutOfOrderArrivalError(
                        "arrival clock %r is older than the previous arrival %r"
                        % (clock, previous)
                    )
                previous = clock
        else:
            for clock, count in zip(clocks, counts, strict=False):
                if count == 0:
                    continue
                if previous is not None and clock < previous:
                    raise OutOfOrderArrivalError(
                        "arrival clock %r is older than the previous arrival %r"
                        % (clock, previous)
                    )
                previous = clock
