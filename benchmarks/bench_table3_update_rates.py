"""Table 3 — sustained update rates of the three ECM-sketch variants.

The paper reports updates/second for ECM-EH, ECM-DW and ECM-RW at epsilon=0.1
on both data sets (Java implementation: roughly 1.49M / 1.17M / 0.18M on
wc'98).  Absolute numbers are not comparable from pure Python; the reproduced
shape is the ordering and the rough ratios — ECM-EH fastest, ECM-DW slightly
slower, ECM-RW several times slower.
"""

from __future__ import annotations

import pytest

from repro.core.config import CounterType
from repro.experiments import (
    build_sketch,
    format_update_rate_rows,
    load_dataset,
    max_arrivals_bound,
    run_update_rate_experiment,
)

from .conftest import emit


@pytest.mark.benchmark(group="table3")
@pytest.mark.parametrize("dataset", ["wc98", "snmp"])
def test_table3_update_rate_table(benchmark, dataset, bench_records):
    """Prints the Table 3 rows for one data set and checks the ordering."""

    def run():
        return run_update_rate_experiment(dataset=dataset, epsilon=0.1, num_records=bench_records)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["dataset"] = dataset
    for row in rows:
        benchmark.extra_info[row.variant] = round(row.updates_per_second)

    emit("Table 3 (%s): update rates (updates/second), epsilon=0.1" % dataset,
         format_update_rate_rows(rows))

    rates = {row.variant: row.updates_per_second for row in rows}
    assert rates["ECM-EH"] > rates["ECM-DW"] * 0.8, "ECM-EH should be at least as fast as ECM-DW"
    assert rates["ECM-EH"] > 2 * rates["ECM-RW"], "ECM-RW should be several times slower"


@pytest.mark.benchmark(group="table3-micro")
@pytest.mark.parametrize(
    "counter_type",
    [CounterType.EXPONENTIAL_HISTOGRAM, CounterType.DETERMINISTIC_WAVE, CounterType.RANDOMIZED_WAVE],
    ids=["ECM-EH", "ECM-DW", "ECM-RW"],
)
def test_table3_per_variant_update_throughput(benchmark, counter_type, bench_records):
    """pytest-benchmark timing of the raw update loop, one variant at a time."""
    stream = load_dataset("wc98", num_records=min(bench_records, 5_000))
    records = stream.records

    def ingest():
        sketch = build_sketch(
            counter_type=counter_type,
            epsilon=0.1,
            delta=0.1,
            window=1_000_000.0,
            max_arrivals=max_arrivals_bound(stream),
        )
        for record in records:
            sketch.add(record.key, record.timestamp, record.value)
        return sketch

    sketch = benchmark.pedantic(ingest, rounds=3, iterations=1)
    benchmark.extra_info["records"] = len(records)
    # Synopsis model: keeps the recorded perf trajectory comparable across
    # storage layouts.
    benchmark.extra_info["memory_bytes"] = sketch.synopsis_bytes()
