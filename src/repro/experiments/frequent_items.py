"""Zipf-stream frequent-items experiment for the hierarchical query engine.

The paper's Section 6.1 (Theorem 5) builds sliding-window heavy hitters on a
dyadic stack of ECM-sketches.  This experiment drives a Zipf-skewed keyed
stream — the popularity profile of the WorldCup/SNMP workloads — through a
:class:`~repro.queries.heavy_hitters.FrequentItemsTracker` twice (scalar
``add`` loop and batched ``add_many``), then runs the group-testing descent
for a sweep of relative thresholds ``phi`` and scores the detections against
exact counts:

* **recall** — Theorem 5 promises that every key with true in-range frequency
  ``>= phi * ||a_r||_1`` is reported (w.h.p.);
* **precision floor** — nothing far below the ``(phi - eps)`` mark should be
  reported;
* **throughput** — scalar vs batched updates/second, plus the descent time.

One row is produced per ``phi``.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from collections.abc import Sequence
from typing import ClassVar

from ..core.errors import ConfigurationError
from ..queries.heavy_hitters import FrequentItemsTracker
from ..streams.generators import ZipfSampler

__all__ = [
    "FrequentItemsRow",
    "run_frequent_items_experiment",
    "format_frequent_items_rows",
]


@dataclass
class FrequentItemsRow:
    """Detection quality and throughput of one ``phi`` of the sweep."""

    experiment: ClassVar[str] = "heavy-hitters"
    phi: float
    epsilon: float
    records: int
    distinct_keys: int
    true_hitters: int
    detected: int
    recall: float
    precision_floor: float
    scalar_updates_per_second: float
    batched_updates_per_second: float
    descent_seconds: float

    @property
    def ingest_speedup(self) -> float:
        """Batched-over-scalar ingest throughput ratio."""
        if self.scalar_updates_per_second <= 0:
            return float("inf")
        return self.batched_updates_per_second / self.scalar_updates_per_second


def _zipf_keyed_stream(
    num_records: int, domain_size: int, zipf_exponent: float, seed: int
) -> list[str]:
    """Zipf-popularity key sequence (rank ``r`` drawn ∝ ``1 / r**exponent``)."""
    sampler = ZipfSampler(domain_size, zipf_exponent, seed=seed)
    return ["key-%05d" % rank for rank in sampler.sample_many(num_records)]


def run_frequent_items_experiment(
    num_records: int = 10_000,
    domain_size: int = 3_000,
    zipf_exponent: float = 1.2,
    phis: Sequence[float] = (0.01, 0.02, 0.05),
    epsilon: float = 0.01,
    delta: float = 0.05,
    universe_bits: int = 12,
    batch_size: int = 1_024,
    seed: int = 7,
) -> list[FrequentItemsRow]:
    """Run the Zipf frequent-items sweep; one row per ``phi``.

    Args:
        num_records: Stream length (all arrivals stay inside the window, so
            exact window counts equal exact stream counts).
        domain_size: Number of distinct keys the Zipf sampler can draw.
        zipf_exponent: Popularity skew (1.1–1.3 matches the paper's traces).
        phis: Relative heavy-hitter thresholds to sweep.
        epsilon: Point-query error budget of the underlying sketches.
        delta: Failure probability of the underlying sketches.
        universe_bits: Capacity of the tracker's encoded key universe.
        batch_size: Chunk size of the batched ingest.
        seed: Zipf sampler seed.
    """
    if num_records <= 0:
        raise ConfigurationError("num_records must be positive, got %r" % (num_records,))
    if batch_size <= 0:
        raise ConfigurationError("batch_size must be positive, got %r" % (batch_size,))
    for phi in phis:
        if not (0.0 < phi <= 1.0):
            raise ConfigurationError("phi must be in (0, 1], got %r" % (phi,))
    if domain_size > (1 << universe_bits):
        raise ConfigurationError(
            "domain_size %d exceeds the 2**%d key-universe capacity"
            % (domain_size, universe_bits)
        )
    keys = _zipf_keyed_stream(num_records, domain_size, zipf_exponent, seed)
    clocks = [float(index) for index in range(num_records)]
    window = float(num_records)
    truth = Counter(keys)

    def build_tracker() -> FrequentItemsTracker:
        return FrequentItemsTracker(
            epsilon=epsilon,
            delta=delta,
            window=window,
            universe_bits=universe_bits,
            seed=seed,
        )

    scalar_tracker = build_tracker()
    scalar_start = time.perf_counter()
    for key, clock in zip(keys, clocks, strict=False):
        scalar_tracker.add(key, clock)
    scalar_elapsed = time.perf_counter() - scalar_start

    tracker = build_tracker()
    batched_start = time.perf_counter()
    for start in range(0, num_records, batch_size):
        stop = start + batch_size
        tracker.add_many(keys[start:stop], clocks[start:stop])
    batched_elapsed = time.perf_counter() - batched_start

    now = clocks[-1]
    total = num_records
    rows: list[FrequentItemsRow] = []
    for phi in phis:
        descent_start = time.perf_counter()
        detected = tracker.heavy_hitters(phi=phi, now=now)
        descent_elapsed = time.perf_counter() - descent_start
        exact = {key for key, count in truth.items() if count >= phi * total}
        floor = (phi - epsilon) * total
        above_floor = sum(1 for key in detected if truth.get(key, 0) >= floor)
        rows.append(
            FrequentItemsRow(
                phi=phi,
                epsilon=epsilon,
                records=num_records,
                distinct_keys=len(truth),
                true_hitters=len(exact),
                detected=len(detected),
                recall=(
                    len(exact & set(detected)) / len(exact) if exact else 1.0
                ),
                precision_floor=(
                    above_floor / len(detected) if detected else 1.0
                ),
                scalar_updates_per_second=(
                    num_records / scalar_elapsed if scalar_elapsed > 0 else float("inf")
                ),
                batched_updates_per_second=(
                    num_records / batched_elapsed if batched_elapsed > 0 else float("inf")
                ),
                descent_seconds=descent_elapsed,
            )
        )
    return rows


def format_frequent_items_rows(rows: Sequence[FrequentItemsRow]) -> str:
    """Render the sweep as an aligned text table."""
    header = (
        "phi      true  detected  recall  >=phi-eps  scalar upd/s  batched upd/s  "
        "speedup  descent ms"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "%-7.4f  %4d  %8d  %6.2f  %9.2f  %12.0f  %13.0f  %6.2fx  %10.2f"
            % (
                row.phi,
                row.true_hitters,
                row.detected,
                row.recall,
                row.precision_floor,
                row.scalar_updates_per_second,
                row.batched_updates_per_second,
                row.ingest_speedup,
                row.descent_seconds * 1_000.0,
            )
        )
    return "\n".join(lines)
