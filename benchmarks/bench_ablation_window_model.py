"""Ablation: time-based vs count-based sliding windows (Section 4.2.1).

The paper's evaluation uses time-based windows, but the ECM-sketch supports
count-based windows through the same structures (the clock becomes the global
arrival index).  This ablation runs both models over the same trace with the
same epsilon and compares observed error, memory and update cost, confirming
that the count-based model carries no accuracy penalty — only the loss of
order-preserving aggregation (which is checked by the unit tests).
"""

from __future__ import annotations

import time

import pytest

from repro.baselines import ExactStreamSummary
from repro.core import CounterType, ECMSketch
from repro.experiments import load_dataset
from repro.windows import WindowModel

from .conftest import emit


@pytest.mark.benchmark(group="ablations")
def test_ablation_time_vs_count_based_windows(benchmark, bench_records):
    """Compare the two window models at epsilon = 0.1 on the wc'98 trace."""
    stream = load_dataset("wc98", num_records=min(bench_records, 6_000))
    epsilon = 0.1
    # The count-based window covers the last half of the trace's arrivals; the
    # time-based window covers the same share of the trace duration.
    count_window = len(stream) // 2
    time_window = stream.duration() / 2.0

    def run():
        results = []
        for model, window in (
            (WindowModel.TIME_BASED, time_window),
            (WindowModel.COUNT_BASED, float(count_window)),
        ):
            sketch = ECMSketch.for_point_queries(
                epsilon=epsilon, delta=0.1, window=window, model=model,
                counter_type=CounterType.EXPONENTIAL_HISTOGRAM,
            )
            exact = ExactStreamSummary(window=window)
            start = time.perf_counter()
            for index, record in enumerate(stream, start=1):
                clock = record.timestamp if model is WindowModel.TIME_BASED else float(index)
                sketch.add(record.key, clock)
                exact.add(record.key, clock)
            elapsed = time.perf_counter() - start
            now = stream.end_time() if model is WindowModel.TIME_BASED else float(len(stream))
            arrivals = exact.arrivals(None, now)
            worst = 0.0
            for key, truth in list(exact.frequencies_in_range(None, now).items())[:150]:
                estimate = sketch.point_query(key, now=now)
                worst = max(worst, abs(estimate - truth) / max(arrivals, 1))
            # The paper's memory axis is the synopsis model, independent of
            # the storage layout.
            results.append((model.value, window, worst, sketch.synopsis_bytes(), elapsed))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["%12s %14s %12s %14s %12s" % ("model", "window", "worst err", "memory(bytes)", "ingest(s)")]
    lines.append("-" * len(lines[0]))
    for model, window, worst, memory, elapsed in results:
        lines.append("%12s %14.0f %12.4f %14d %12.2f" % (model, window, worst, memory, elapsed))
    emit("Ablation: time-based vs count-based sliding windows (epsilon=0.1)", "\n".join(lines))

    for _model, _window, worst, _memory, _elapsed in results:
        assert worst <= epsilon, "both window models must respect the point-query guarantee"
    time_memory = results[0][3]
    count_memory = results[1][3]
    # The two models use the same machinery; their footprints are comparable.
    assert 0.2 <= count_memory / time_memory <= 5.0
