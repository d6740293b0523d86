"""Geometric-method monitoring of threshold functions over ECM-sketches.

Section 6.2 of the paper combines ECM-sketches with the geometric method of
Sharfman, Schuster and Keren (SIGMOD 2006) to monitor, *continuously* and with
very little communication, whether a non-linear function of distributed
sliding-window streams crosses a threshold.  The running example — implemented
here — is the self-join (second frequency moment) of the union stream.

Protocol sketch.  Each site maintains a local ECM-sketch and extracts from it
a numeric *local statistics vector* (the Count-Min array of sliding-window
estimates for the monitored range).  At synchronisation time the coordinator
averages all local vectors into the *global estimate vector* ``e`` and
broadcasts it.  Between synchronisations each site tracks its *drift vector*
``u_i = e + (v_i(t) - v_i(t_sync))`` and checks a purely local constraint:
the monitored function must not change side of the threshold anywhere inside
the ball whose diameter is the segment ``[e, u_i]``.  The union of these balls
covers the convex hull of the drift vectors, which contains the true global
statistics vector — so as long as no site reports a local violation, the
global function value provably has not crossed the threshold, and no
communication at all is needed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from collections.abc import Hashable

import numpy as np

from ..core.config import ECMConfig
from ..core.errors import ConfigurationError
from ..streams.stream import Stream
from .node import DEFAULT_BATCH_SIZE, StreamNode, observe_partitioned

__all__ = [
    "ThresholdFunction",
    "L2NormSquaredFunction",
    "SelfJoinFunction",
    "MonitoringStats",
    "GeometricMonitor",
]


class ThresholdFunction(abc.ABC):
    """A function of the global statistics vector, monitored against a threshold.

    Implementations must provide the function value and closed-form extrema
    over a Euclidean ball — the paper notes that simple functions such as
    self-joins admit such closed forms, which is what makes the local
    constraint check cheap.
    """

    @abc.abstractmethod
    def value(self, vector: np.ndarray) -> float:
        """Function value at ``vector``."""

    @abc.abstractmethod
    def max_over_ball(self, center: np.ndarray, radius: float) -> float:
        """Maximum of the function over the ball ``B(center, radius)``."""

    @abc.abstractmethod
    def min_over_ball(self, center: np.ndarray, radius: float) -> float:
        """Minimum of the function over the ball ``B(center, radius)``."""

    def crosses(self, center: np.ndarray, radius: float, threshold: float) -> bool:
        """True when the function may cross ``threshold`` inside the ball."""
        return (
            self.min_over_ball(center, radius) < threshold <= self.max_over_ball(center, radius)
        ) or (
            self.max_over_ball(center, radius) >= threshold > self.min_over_ball(center, radius)
        )


class L2NormSquaredFunction(ThresholdFunction):
    """``f(v) = scale * ||v||**2`` with closed-form ball extrema.

    The squared Euclidean norm is the workhorse of sketch-based self-join
    monitoring; its extrema over ``B(c, r)`` are ``scale*(||c|| + r)**2`` and
    ``scale*max(0, ||c|| - r)**2``.
    """

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ConfigurationError("scale must be positive, got %r" % (scale,))
        self.scale = float(scale)

    def value(self, vector: np.ndarray) -> float:
        return self.scale * float(np.dot(vector, vector))

    def max_over_ball(self, center: np.ndarray, radius: float) -> float:
        norm = float(np.linalg.norm(center))
        return self.scale * (norm + radius) ** 2

    def min_over_ball(self, center: np.ndarray, radius: float) -> float:
        norm = float(np.linalg.norm(center))
        return self.scale * max(0.0, norm - radius) ** 2


class SelfJoinFunction(L2NormSquaredFunction):
    """Self-join (F2) estimate of the union stream from the average sketch vector.

    The global statistics vector is the *average* of the local Count-Min
    arrays, so the union stream's array is ``num_sites`` times it; averaging
    the per-row sums of squares divides by ``depth``.  Hence
    ``f(v) = num_sites**2 / depth * ||v||**2`` estimates the sliding-window
    self-join size of the union stream.
    """

    def __init__(self, num_sites: int, depth: int) -> None:
        if num_sites <= 0 or depth <= 0:
            raise ConfigurationError("num_sites and depth must be positive")
        super().__init__(scale=float(num_sites) ** 2 / float(depth))
        self.num_sites = num_sites
        self.depth = depth


@dataclass
class MonitoringStats:
    """Communication accounting of a monitoring run."""

    arrivals: int = 0
    constraint_checks: int = 0
    local_violations: int = 0
    synchronizations: int = 0
    messages: int = 0
    transfer_bytes: int = 0
    threshold_crossings: list[float] = field(default_factory=list)

    def transfer_megabytes(self) -> float:
        """Transfer volume in megabytes."""
        return self.transfer_bytes / (1024.0 * 1024.0)


class _MonitoredSite:
    """Internal per-site state of the geometric monitoring protocol."""

    def __init__(self, node_id: int, config: ECMConfig, range_length: float | None) -> None:
        self.node = StreamNode(node_id=node_id, config=config)
        self.range_length = range_length
        self.synced_vector: np.ndarray | None = None

    def local_vector(self, now: float | None) -> np.ndarray:
        matrix = self.node.sketch.counter_estimates_matrix(self.range_length, now)
        return np.asarray(matrix, dtype=float).ravel()

    def drift_vector(self, estimate: np.ndarray, now: float | None) -> np.ndarray:
        if self.synced_vector is None:
            raise ConfigurationError("site has not been synchronised yet")
        return estimate + (self.local_vector(now) - self.synced_vector)


class GeometricMonitor:
    """Continuous threshold monitoring of a function over distributed streams.

    Args:
        num_sites: Number of observation sites.
        config: Shared ECM-sketch configuration.
        threshold: The monitored threshold value.
        function: The monitored function; defaults to the self-join of the
            union stream.
        range_length: Sliding-window query range used when extracting local
            statistics vectors (defaults to the full window).
        check_every: Local constraints are checked every that many arrivals
            per site; 1 reproduces the per-arrival protocol of the paper,
            larger values trade detection latency for speed.

    Example:
        >>> from repro.core import ECMConfig
        >>> config = ECMConfig.for_point_queries(epsilon=0.2, delta=0.2, window=1e6)
        >>> monitor = GeometricMonitor(num_sites=2, config=config, threshold=1e9)
        >>> monitor.initialize(now=0.0)
        >>> monitor.observe(0, "k1", clock=1.0)   # threshold far away: no sync
        False
        >>> monitor.stats.synchronizations       # just the initial one
        1
    """

    def __init__(
        self,
        num_sites: int,
        config: ECMConfig,
        threshold: float,
        function: ThresholdFunction | None = None,
        range_length: float | None = None,
        check_every: int = 1,
    ) -> None:
        if num_sites <= 0:
            raise ConfigurationError("num_sites must be positive, got %r" % (num_sites,))
        if threshold <= 0:
            raise ConfigurationError("threshold must be positive, got %r" % (threshold,))
        if check_every <= 0:
            raise ConfigurationError("check_every must be positive, got %r" % (check_every,))
        self.config = config
        self.threshold = float(threshold)
        self.range_length = range_length
        self.check_every = check_every
        self.function = function or SelfJoinFunction(num_sites=num_sites, depth=config.depth)
        self.sites: list[_MonitoredSite] = [
            _MonitoredSite(node_id=i, config=config, range_length=range_length)
            for i in range(num_sites)
        ]
        self.estimate_vector: np.ndarray | None = None
        self.estimate_value: float | None = None
        self.above_threshold = False
        self.stats = MonitoringStats()
        self._arrivals_since_check: dict[int, int] = {i: 0 for i in range(num_sites)}
        self._vector_bytes = config.width * config.depth * 4  # 32-bit counters

    # ----------------------------------------------------------------- setup
    @property
    def num_sites(self) -> int:
        """Number of observation sites."""
        return len(self.sites)

    def initialize(self, now: float | None = None) -> None:
        """Initial synchronisation: collect all local vectors, broadcast ``e``."""
        self._synchronize(now)

    def _synchronize(self, now: float | None) -> None:
        vectors = [site.local_vector(now) for site in self.sites]
        self.estimate_vector = np.mean(vectors, axis=0)
        self.estimate_value = self.function.value(self.estimate_vector)
        previous_side = self.above_threshold
        self.above_threshold = self.estimate_value >= self.threshold
        for site, vector in zip(self.sites, vectors, strict=False):
            site.synced_vector = vector
        # n uploads of local vectors + n broadcasts of the estimate vector.
        self.stats.synchronizations += 1
        self.stats.messages += 2 * len(self.sites)
        self.stats.transfer_bytes += 2 * len(self.sites) * self._vector_bytes
        if self.above_threshold != previous_side and self.stats.synchronizations > 1:
            self.stats.threshold_crossings.append(self.estimate_value)

    # ---------------------------------------------------------------- updates
    def observe(self, site_id: int, key: Hashable, clock: float, value: int = 1) -> bool:
        """Process one arrival at one site.

        Returns:
            True when the arrival triggered a global synchronisation (because
            the site's local constraint was violated).
        """
        if self.estimate_vector is None:
            raise ConfigurationError("call initialize() before observing arrivals")
        site = self.sites[site_id % len(self.sites)]
        site.node.observe(key, clock, value)
        self.stats.arrivals += 1
        self._arrivals_since_check[site_id % len(self.sites)] += 1
        if self._arrivals_since_check[site_id % len(self.sites)] < self.check_every:
            return False
        self._arrivals_since_check[site_id % len(self.sites)] = 0
        return self._check_site(site, clock)

    def observe_stream(self, stream: Stream, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        """Process a whole stream, routing records to their observing sites.

        The records between two local constraint checks reach their sites
        through :meth:`~repro.distributed.node.StreamNode.observe_columns`
        before the check runs (a synchronisation reads every site's
        statistics vector), so checks run against exactly the state one
        :meth:`observe` per record would see — protocol decisions, stats and
        estimates are identical.

        Args:
            stream: The stream to route across the sites.
            batch_size: ``add_many`` chunk size of the sites.
        """
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive, got %r" % (batch_size,))
        if self.estimate_vector is None:
            raise ConfigurationError("call initialize() before observing arrivals")
        keys, clocks, values = stream.columns()
        nodes = [site.node for site in self.sites]
        sites = [record.node % len(nodes) for record in stream]
        since_check = self._arrivals_since_check
        start = 0
        for index, site_index in enumerate(sites):
            since_check[site_index] += 1
            if since_check[site_index] < self.check_every:
                continue
            since_check[site_index] = 0
            stop = index + 1
            observe_partitioned(
                nodes, sites[start:stop], keys[start:stop], clocks[start:stop],
                values[start:stop], batch_size,
            )
            self.stats.arrivals += stop - start
            start = stop
            self._check_site(self.sites[site_index], clocks[index])
        observe_partitioned(
            nodes, sites[start:], keys[start:], clocks[start:], values[start:], batch_size
        )
        self.stats.arrivals += len(sites) - start

    def _check_site(self, site: _MonitoredSite, now: float) -> bool:
        """Evaluate the local geometric constraint of one site."""
        assert self.estimate_vector is not None
        self.stats.constraint_checks += 1
        drift = site.drift_vector(self.estimate_vector, now)
        center = (self.estimate_vector + drift) / 2.0
        radius = float(np.linalg.norm(self.estimate_vector - drift)) / 2.0
        ball_min = self.function.min_over_ball(center, radius)
        ball_max = self.function.max_over_ball(center, radius)
        if self.above_threshold:
            violated = ball_min < self.threshold
        else:
            violated = ball_max >= self.threshold
        if violated:
            self.stats.local_violations += 1
            self._synchronize(now)
            return True
        return False

    def synchronize(self, now: float | None = None) -> float:
        """Force a global synchronisation and return the refreshed estimate.

        Useful for periodic reporting: between violations the coordinator's
        estimate is intentionally stale (that staleness is what saves the
        communication), so dashboards can call this at a coarse cadence.
        """
        self._synchronize(now)
        assert self.estimate_value is not None
        return self.estimate_value

    # ---------------------------------------------------------------- queries
    def current_estimate(self) -> float:
        """Function value at the last synchronised global estimate vector."""
        if self.estimate_value is None:
            raise ConfigurationError("monitor has not been initialised")
        return self.estimate_value

    def exact_global_value(self, now: float | None = None) -> float:
        """Function value recomputed from all current local vectors (for tests).

        This performs the communication the protocol is designed to avoid; it
        exists so that experiments can verify the monitoring invariant
        ("no missed crossings between synchronisations").
        """
        vectors = [site.local_vector(now) for site in self.sites]
        return self.function.value(np.mean(vectors, axis=0))

    def __repr__(self) -> str:
        return "GeometricMonitor(sites=%d, threshold=%g, syncs=%d)" % (
            len(self.sites),
            self.threshold,
            self.stats.synchronizations,
        )
