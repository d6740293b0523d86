"""Complexity comparison: Table 2 (paper Section 4.2.2).

Table 2 is analytical — it lists the asymptotic space, update and query costs
of ECM-sketches backed by exponential histograms, deterministic waves and
randomized waves.  We regenerate it in two complementary ways:

* **analytical rows** evaluate the formulas of :mod:`repro.analysis.memory`
  with concrete constants, per variant and per epsilon;
* **measured rows** build live sketches, feed them a fixed workload and report
  their actual footprint and per-update/per-query latency, so the asymptotic
  claims (linear vs quadratic dependence on ``1/epsilon``, EH/DW parity,
  RW blow-up) can be verified empirically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Sequence
from typing import ClassVar

from ..analysis.memory import ecm_sketch_bytes
from ..analysis.reporting import format_table
from ..core.config import CounterType, split_point_query_deterministic, split_point_query_randomized
from .common import (
    DEFAULT_DELTA,
    PAPER_WINDOW_SECONDS,
    VARIANT_LABELS,
    build_sketch,
    load_dataset,
    max_arrivals_bound,
)

__all__ = [
    "ComplexityRow",
    "run_complexity_experiment",
    "format_complexity_rows",
]


@dataclass
class ComplexityRow:
    """One row of the Table 2 reproduction: a variant at one epsilon."""

    experiment: ClassVar[str] = "table2"
    dataset: str
    variant: str
    epsilon: float
    epsilon_sw: float
    epsilon_cm: float
    analytical_bytes: float
    measured_bytes: int
    update_microseconds: float
    query_microseconds: float


def run_complexity_experiment(
    epsilons: Sequence[float] = (0.05, 0.1, 0.2),
    variants: Sequence[CounterType] | None = None,
    dataset: str = "wc98",
    num_records: int | None = 10_000,
    num_queries: int = 200,
    window: float = PAPER_WINDOW_SECONDS,
    seed: int = 0,
) -> list[ComplexityRow]:
    """Regenerate Table 2 with both analytical bounds and measured costs."""
    if variants is None:
        variants = (
            CounterType.EXPONENTIAL_HISTOGRAM,
            CounterType.DETERMINISTIC_WAVE,
            CounterType.RANDOMIZED_WAVE,
        )
    stream = load_dataset(dataset, num_records=num_records)
    bound = max_arrivals_bound(stream)
    keys = stream.keys()[:num_queries]
    rows: list[ComplexityRow] = []
    for counter_type in variants:
        for epsilon in epsilons:
            if counter_type is CounterType.RANDOMIZED_WAVE:
                epsilon_sw, epsilon_cm = split_point_query_randomized(epsilon)
            else:
                epsilon_sw, epsilon_cm = split_point_query_deterministic(epsilon)
            analytical = ecm_sketch_bytes(
                counter_type=counter_type,
                epsilon_sw=epsilon_sw,
                epsilon_cm=epsilon_cm,
                delta=DEFAULT_DELTA,
                window=window,
                max_arrivals=bound,
            )
            sketch = build_sketch(
                counter_type=counter_type,
                epsilon=epsilon,
                delta=DEFAULT_DELTA,
                window=window,
                max_arrivals=bound,
                query_type="point",
                seed=seed,
            )
            start = time.perf_counter()
            for record in stream:
                sketch.add(record.key, record.timestamp, record.value)
            update_elapsed = time.perf_counter() - start

            now = stream.end_time()
            start = time.perf_counter()
            for key in keys:
                sketch.point_query(key, window / 10.0, now=now)
            query_elapsed = time.perf_counter() - start

            rows.append(
                ComplexityRow(
                    dataset=dataset,
                    variant=VARIANT_LABELS[counter_type],
                    epsilon=epsilon,
                    epsilon_sw=epsilon_sw,
                    epsilon_cm=epsilon_cm,
                    analytical_bytes=analytical,
                    measured_bytes=sketch.synopsis_bytes(),
                    update_microseconds=update_elapsed / max(1, len(stream)) * 1e6,
                    query_microseconds=query_elapsed / max(1, len(keys)) * 1e6,
                )
            )
    return rows


def format_complexity_rows(rows: Sequence[ComplexityRow]) -> str:
    """Render the Table 2 reproduction as an aligned text table."""
    return format_table(rows, (
        ("variant", "variant", "-8s"), ("eps", "epsilon", "6.2f"), ("eps_sw", "epsilon_sw", "8.4f"),
        ("eps_cm", "epsilon_cm", "8.4f"), ("bound(bytes)", "analytical_bytes", "16.0f"),
        ("meas(bytes)", "measured_bytes", "14d"), ("update(us)", "update_microseconds", "12.2f"),
        ("query(us)", "query_microseconds", "12.2f"),
    ))
