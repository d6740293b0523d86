"""Ablation: propagation period of the continuous-query coordinator.

An extension beyond the paper's one-shot aggregation experiments (and in the
spirit of the scheduled-propagation work it cites): the coordinator
re-aggregates the distributed ECM-sketches every ``period`` stream-seconds and
answers continuous queries from the latest aggregate.  The ablation sweeps the
period and reports the communication cost against the worst observed error of
point queries asked right before each refresh (i.e. at maximum staleness).
"""

from __future__ import annotations

import pytest

from repro.baselines import ExactStreamSummary
from repro.core import ECMConfig
from repro.distributed import PeriodicAggregationCoordinator
from repro.experiments import PAPER_WINDOW_SECONDS, load_dataset

from .conftest import emit

PERIODS = (200_000.0, 100_000.0, 50_000.0, 25_000.0)


@pytest.mark.benchmark(group="ablations")
def test_ablation_propagation_period(benchmark, bench_records):
    """Sweep the aggregation period; print transfer volume vs staleness error."""
    stream = load_dataset("wc98", num_records=min(bench_records, 6_000))
    exact = ExactStreamSummary.from_stream(stream, window=PAPER_WINDOW_SECONDS)
    config = ECMConfig.for_point_queries(epsilon=0.1, delta=0.1, window=PAPER_WINDOW_SECONDS)
    probe_keys = [key for key, _ in sorted(
        exact.frequencies_in_range(None, stream.end_time()).items(), key=lambda kv: -kv[1]
    )[:20]]

    def run():
        results = []
        for period in PERIODS:
            coordinator = PeriodicAggregationCoordinator(num_nodes=16, config=config, period=period)
            worst_error = 0.0
            for record in stream:
                coordinator.observe(record.node, record.key, record.timestamp, record.value)
                # Query at maximum staleness: right before each refresh.
                if coordinator.stats.rounds and record.timestamp - coordinator.last_round_clock > 0.9 * period:
                    arrivals = exact.arrivals(None, record.timestamp)
                    for key in probe_keys[:5]:
                        estimate = coordinator.query_frequency(key)
                        truth = exact.frequency(key, now=record.timestamp)
                        worst_error = max(worst_error, abs(estimate - truth) / max(arrivals, 1))
            results.append((period, coordinator.stats.rounds,
                            coordinator.stats.transfer_megabytes(), worst_error))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["%12s %8s %14s %16s" % ("period (s)", "rounds", "transfer(MB)", "worst stale err")]
    lines.append("-" * len(lines[0]))
    for period, rounds, transfer, error in results:
        lines.append("%12.0f %8d %14.3f %16.4f" % (period, rounds, transfer, error))
    emit("Ablation: propagation period vs communication and staleness error",
         "\n".join(lines))

    # Shorter periods must cost more communication.
    transfers = [transfer for _, _, transfer, _ in results]
    assert transfers == sorted(transfers), "communication must grow as the period shrinks"
    # And even the longest period keeps the staleness error bounded (the
    # sliding window absorbs old data; staleness only hides recent arrivals).
    assert all(error <= 0.25 for _, _, _, error in results)
