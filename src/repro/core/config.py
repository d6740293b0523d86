"""Error-budget configuration for ECM-sketches (paper Section 4.1 / 4.2.2).

An ECM-sketch has two error knobs: the Count-Min hashing error ``epsilon_cm``
(driven by the array width) and the sliding-window counter error
``epsilon_sw``.  For point queries the two combine as
``epsilon = epsilon_sw + epsilon_cm + epsilon_sw*epsilon_cm`` (Theorem 1);
for inner-product queries as
``epsilon = epsilon_sw**2 + 2*epsilon_sw + epsilon_cm*(1 + epsilon_sw)**2``
(Theorem 2).  For a user-facing total error budget the paper picks the split
that minimises the worst-case memory of the whole structure; this module
implements those optimal splits:

* point queries, deterministic counters (EH / deterministic waves):
  memory is proportional to ``1 / (epsilon_sw * epsilon_cm)`` and the optimum
  is ``epsilon_sw = epsilon_cm = sqrt(1 + epsilon) - 1``;
* point queries, randomized-wave counters: memory is proportional to
  ``1 / (epsilon_sw**2 * epsilon_cm)`` and the optimum is the closed form of
  Section 4.2.2;
* inner-product queries, deterministic counters: the optimum is the root of a
  cubic; we compute it numerically (and the closed form of the paper is the
  same root).

:class:`ECMConfig` packages a full, validated parameterisation of one
ECM-sketch, and is what :class:`repro.core.ecm_sketch.ECMSketch` consumes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from ..windows.base import WindowModel, validate_delta, validate_epsilon, validate_window
from .errors import ConfigurationError

__all__ = [
    "CounterType",
    "split_point_query_deterministic",
    "split_point_query_randomized",
    "split_inner_product_deterministic",
    "point_query_error",
    "inner_product_error",
    "dimensions_for_error",
    "store_layout",
    "ECMConfig",
]


class CounterType(enum.Enum):
    """Which sliding-window algorithm implements the Count-Min counters."""

    EXPONENTIAL_HISTOGRAM = "eh"
    DETERMINISTIC_WAVE = "dw"
    RANDOMIZED_WAVE = "rw"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_deterministic(self) -> bool:
        """True for EH and deterministic waves, False for randomized waves."""
        return self is not CounterType.RANDOMIZED_WAVE


def store_layout(counter_type: CounterType) -> str:
    """The counter-grid layout of ``counter_type``: the one place it is decided.

    ``"columnar"`` for exponential histograms (at every epsilon) and
    ``"object"`` for deterministic and randomized waves, which the columnar
    layout does not implement.
    """
    return "columnar" if counter_type is CounterType.EXPONENTIAL_HISTOGRAM else "object"


# ----------------------------------------------------------------- error maths
def dimensions_for_error(epsilon: float, delta: float) -> tuple[int, int]:
    """Width and depth of a Count-Min array for a target ``(epsilon, delta)``.

    Uses the standard sizing ``w = ceil(e / epsilon)`` and
    ``d = ceil(ln(1 / delta))``.
    """
    if not (0.0 < epsilon < 1.0):
        raise ConfigurationError("epsilon must be in (0, 1), got %r" % (epsilon,))
    if not (0.0 < delta < 1.0):
        raise ConfigurationError("delta must be in (0, 1), got %r" % (delta,))
    width = int(math.ceil(math.e / epsilon))
    depth = int(math.ceil(math.log(1.0 / delta)))
    return max(1, width), max(1, depth)


def point_query_error(epsilon_sw: float, epsilon_cm: float) -> float:
    """Total point-query error for a given split (Theorem 1)."""
    return epsilon_sw + epsilon_cm + epsilon_sw * epsilon_cm


def inner_product_error(epsilon_sw: float, epsilon_cm: float) -> float:
    """Total inner-product error for a given split (Theorem 2)."""
    return epsilon_sw ** 2 + 2.0 * epsilon_sw + epsilon_cm * (1.0 + epsilon_sw) ** 2


def split_point_query_deterministic(epsilon: float) -> tuple[float, float]:
    """Memory-optimal ``(epsilon_sw, epsilon_cm)`` for point queries, EH/DW counters.

    The memory bound ``~ 1/(epsilon_sw * epsilon_cm)`` under the constraint of
    Theorem 1 is minimised at ``epsilon_sw = epsilon_cm = sqrt(1+epsilon) - 1``.
    """
    validate_epsilon(epsilon)
    value = math.sqrt(1.0 + epsilon) - 1.0
    return value, value


def split_point_query_randomized(epsilon: float) -> tuple[float, float]:
    """Memory-optimal ``(epsilon_sw, epsilon_cm)`` for point queries, RW counters.

    Randomized-wave memory grows as ``1/epsilon_sw**2``, shifting the optimum
    toward a larger window error.  Closed form from Section 4.2.2::

        epsilon_sw = (sqrt(eps**2 + 10*eps + 9) + eps - 3) / 4
        epsilon_cm = (3*eps - sqrt(eps**2 + 10*eps + 9) + 3)
                     / (eps + sqrt(eps**2 + 10*eps + 9) + 1)
    """
    validate_epsilon(epsilon)
    root = math.sqrt(epsilon ** 2 + 10.0 * epsilon + 9.0)
    epsilon_sw = (root + epsilon - 3.0) / 4.0
    epsilon_cm = (3.0 * epsilon - root + 3.0) / (epsilon + root + 1.0)
    return epsilon_sw, epsilon_cm


def split_inner_product_deterministic(epsilon: float) -> tuple[float, float]:
    """Memory-optimal ``(epsilon_sw, epsilon_cm)`` for inner products, EH/DW counters.

    Minimises ``1/(epsilon_sw * epsilon_cm)`` subject to Theorem 2's constraint
    ``epsilon_sw**2 + 2*epsilon_sw + epsilon_cm*(1+epsilon_sw)**2 == epsilon``.
    The optimum is the root of a cubic; we locate it by ternary search over the
    feasible interval, which converges to the paper's closed form.
    """
    validate_epsilon(epsilon)
    upper = math.sqrt(1.0 + epsilon) - 1.0  # epsilon_cm -> 0 at this point

    def cm_for(sw: float) -> float:
        return (epsilon - sw ** 2 - 2.0 * sw) / (1.0 + sw) ** 2

    def cost(sw: float) -> float:
        cm = cm_for(sw)
        if cm <= 0 or sw <= 0:
            return float("inf")
        return 1.0 / (sw * cm)

    low, high = 1e-9, max(upper - 1e-9, 2e-9)
    for _ in range(200):
        third = (high - low) / 3.0
        mid_low = low + third
        mid_high = high - third
        if cost(mid_low) <= cost(mid_high):
            high = mid_high
        else:
            low = mid_low
    epsilon_sw = (low + high) / 2.0
    epsilon_cm = cm_for(epsilon_sw)
    return epsilon_sw, epsilon_cm


# -------------------------------------------------------------------- config
@dataclass
class ECMConfig:
    """A complete, validated parameterisation of one ECM-sketch.

    Attributes:
        epsilon_cm: Count-Min hashing error (drives the array width).
        epsilon_sw: Sliding-window counter error.
        delta: Failure probability of the Count-Min guarantee.
        window: Sliding-window length ``N`` (time units or arrivals).
        model: Time-based or count-based window model.
        counter_type: Which sliding-window algorithm backs the counters.
        max_arrivals: Upper bound ``u(N, S)`` on arrivals per window; required
            by wave-based counters, optional for exponential histograms.
        delta_sw: Failure probability of randomized-wave counters (ignored by
            deterministic counters).
        seed: Hash seed shared by all sketches that should be mergeable.
        width: Count-Min array width; derived from ``epsilon_cm`` if omitted.
        depth: Count-Min array depth; derived from ``delta`` if omitted.

    The counter type decides how the grid is stored (see
    :attr:`resolved_backend`); no field selects the layout.
    """

    epsilon_cm: float
    epsilon_sw: float
    delta: float
    window: float
    model: WindowModel = WindowModel.TIME_BASED
    counter_type: CounterType = CounterType.EXPONENTIAL_HISTOGRAM
    max_arrivals: int | None = None
    delta_sw: float = 0.05
    seed: int = 0
    width: int = field(default=0)
    depth: int = field(default=0)

    def __post_init__(self) -> None:
        validate_epsilon(self.epsilon_cm, "epsilon_cm")
        validate_epsilon(self.epsilon_sw, "epsilon_sw")
        validate_delta(self.delta, "delta")
        validate_delta(self.delta_sw, "delta_sw")
        validate_window(self.window)
        if not isinstance(self.model, WindowModel):
            raise ConfigurationError("model must be a WindowModel")
        if not isinstance(self.counter_type, CounterType):
            raise ConfigurationError("counter_type must be a CounterType")
        derived_width, derived_depth = dimensions_for_error(self.epsilon_cm, self.delta)
        if self.width <= 0:
            self.width = derived_width
        if self.depth <= 0:
            self.depth = derived_depth
        if self.counter_type is not CounterType.EXPONENTIAL_HISTOGRAM and self.max_arrivals is None:
            raise ConfigurationError(
                "wave-based counters require max_arrivals (the u(N, S) bound of "
                "Section 4.2.2); exponential histograms do not"
            )
        if self.max_arrivals is None:
            # A loose default bound used only for memory reporting.
            self.max_arrivals = max(1, int(self.window))

    # --------------------------------------------------------------- factory
    @classmethod
    def for_point_queries(
        cls,
        epsilon: float,
        delta: float,
        window: float,
        model: WindowModel = WindowModel.TIME_BASED,
        counter_type: CounterType = CounterType.EXPONENTIAL_HISTOGRAM,
        max_arrivals: int | None = None,
        delta_sw: float = 0.05,
        seed: int = 0,
    ) -> ECMConfig:
        """Configuration minimising memory for a total point-query error budget."""
        if counter_type is CounterType.RANDOMIZED_WAVE:
            epsilon_sw, epsilon_cm = split_point_query_randomized(epsilon)
        else:
            epsilon_sw, epsilon_cm = split_point_query_deterministic(epsilon)
        return cls(
            epsilon_cm=epsilon_cm,
            epsilon_sw=epsilon_sw,
            delta=delta,
            window=window,
            model=model,
            counter_type=counter_type,
            max_arrivals=max_arrivals,
            delta_sw=delta_sw,
            seed=seed,
        )

    @classmethod
    def for_inner_product_queries(
        cls,
        epsilon: float,
        delta: float,
        window: float,
        model: WindowModel = WindowModel.TIME_BASED,
        counter_type: CounterType = CounterType.EXPONENTIAL_HISTOGRAM,
        max_arrivals: int | None = None,
        delta_sw: float = 0.05,
        seed: int = 0,
    ) -> ECMConfig:
        """Configuration minimising memory for a total inner-product error budget."""
        if counter_type is CounterType.RANDOMIZED_WAVE:
            raise ConfigurationError(
                "the paper does not provide inner-product guarantees for "
                "randomized-wave counters (Section 7.2); use a deterministic counter"
            )
        epsilon_sw, epsilon_cm = split_inner_product_deterministic(epsilon)
        return cls(
            epsilon_cm=epsilon_cm,
            epsilon_sw=epsilon_sw,
            delta=delta,
            window=window,
            model=model,
            counter_type=counter_type,
            max_arrivals=max_arrivals,
            delta_sw=delta_sw,
            seed=seed,
        )

    # ------------------------------------------------------------ summaries
    @property
    def resolved_backend(self) -> str:
        """Counter-grid layout of sketches built from this configuration.

        Read-only: :func:`store_layout` derives it
        from the counter type (``"columnar"`` for exponential histograms,
        ``"object"`` for waves).
        """
        return store_layout(self.counter_type)

    @property
    def total_point_error(self) -> float:
        """Worst-case point-query error implied by the split (Theorem 1)."""
        return point_query_error(self.epsilon_sw, self.epsilon_cm)

    @property
    def total_inner_product_error(self) -> float:
        """Worst-case inner-product error implied by the split (Theorem 2)."""
        return inner_product_error(self.epsilon_sw, self.epsilon_cm)

    @property
    def total_failure_probability(self) -> float:
        """Total failure probability (Theorem 3): delta_cm plus delta_sw for RW."""
        if self.counter_type is CounterType.RANDOMIZED_WAVE:
            return self.delta + self.delta_sw
        return self.delta

    def replaced(self, **overrides: object) -> ECMConfig:
        """A copy of the configuration with selected fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]
