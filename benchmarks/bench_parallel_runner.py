"""Benchmarks of the vectorized aggregation and the sharded parallel runner.

Covers the two performance claims of the sharded-simulation work:

* **Aggregation speedup** — merging 32+ site sketches through the vectorized
  ``ECMSketch.aggregate`` must be at least 3x faster than the private replay
  reference ``ECMSketch._aggregate_reference`` (identical output, asserted
  here and by the equivalence suite).  Each counter type runs on the layout
  its sketches use in production (columnar grids for exponential
  histograms, the object layout for waves), and every row names it in
  ``backend``.  The two sides are timed in process CPU time, back to back
  in each round.  Randomized-wave reference timings run
  with ``_SELECTION_CUTOFF`` forced to infinity, so that row compares the
  selection trim against the sort-only trim; a spy asserts that some level
  union of the vectorized side does reach the selection trim.
* **Site-count scaling** — the per-site cost of a flat ``aggregate`` stays
  roughly constant as the deployment grows (near-linear total cost).

It also records the runner's sharded-ingest throughput at 1 and 2 workers,
at 200k records (at 20k, a second worker process costs more than it saves).
Run standalone (``PYTHONPATH=src python benchmarks/bench_parallel_runner.py
[--json out.json]``) for the report the CI benchmark job archives, or via
``pytest benchmarks/bench_parallel_runner.py`` for pytest-benchmark timings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import time
from typing import Any
from unittest import mock

import numpy as np
import pytest

from repro.core import CounterType, ECMConfig, ECMSketch
from repro.distributed import ShardedIngestRunner
from repro.experiments.centralized import median_rate_ratio
from repro.serialization import dumps
from repro.streams import WorldCupSyntheticTrace
from repro.windows import columnar_eh, randomized_wave

WINDOW = 1_000_000.0
#: Site count of the headline aggregation comparison.
AGGREGATION_SITES = 32
#: Arrivals ingested per site before aggregating.
ARRIVALS_PER_SITE = 3_000
#: Randomized-wave sites hold more, so that the dense low levels' unions
#: (up to ~7.6k entries here) pass ``_SELECTION_CUTOFF`` and the row times
#: the selection trim, not the sort twice.
RW_ARRIVALS_PER_SITE = 6_000
#: Site counts of the scaling sweep.
SCALING_SITES = (8, 16, 32, 64)
#: Records of the runner-throughput rows.
RUNNER_RECORDS = 200_000


def _build_site_sketches(
    counter_type: CounterType,
    num_sites: int,
    arrivals_per_site: int = ARRIVALS_PER_SITE,
    epsilon: float = 0.1,
) -> list[ECMSketch]:
    """Local sketches of a simulated deployment (WorldCup-style keys), on
    the layout the counter type uses in production."""
    config = ECMConfig.for_point_queries(
        epsilon=epsilon,
        delta=0.1,
        window=WINDOW,
        counter_type=counter_type,
        max_arrivals=10 * arrivals_per_site,
    )
    keys = ["/english/images/team_group_header_%d.gif" % index for index in range(200)]
    sketches = []
    for site in range(num_sites):
        rng = random.Random(site)
        sketch = ECMSketch(config, stream_tag=site)
        clock = 0.0
        items, clocks = [], []
        for _ in range(arrivals_per_site):
            clock += rng.random() * 5.0
            items.append(keys[rng.randrange(len(keys))])
            clocks.append(clock)
        sketch.add_many(items, clocks)
        sketches.append(sketch)
    return sketches


def _timed(thunk) -> float:
    """CPU seconds of this process spent in ``thunk``: time the host gives
    to other processes is not counted."""
    start = time.process_time()
    thunk()
    return time.process_time() - start


def _best_of(thunk, rounds: int = 3) -> float:
    return min(_timed(thunk) for _ in range(rounds))


def _interleaved(first, second, rounds: int) -> tuple[list[float], list[float]]:
    """Per-round times of two thunks, run back to back in each round.

    Each round's pair shares the host's state of that moment, so the ratio
    of a pair is steadier than the ratio of two best-of times taken apart.
    The order alternates by round, so neither side always runs second, on
    the caches and allocator state the other left behind.
    """
    first_seconds, second_seconds = [], []
    for index in range(rounds):
        if index % 2:
            second_seconds.append(_timed(second))
            first_seconds.append(_timed(first))
        else:
            first_seconds.append(_timed(first))
            second_seconds.append(_timed(second))
    return first_seconds, second_seconds


def _reference_aggregate(sketches: list[ECMSketch]) -> ECMSketch:
    """The replay reference, with randomized waves on the sort-only trim."""
    with mock.patch.object(randomized_wave, "_SELECTION_CUTOFF", math.inf):
        return ECMSketch._aggregate_reference(sketches)


def _aggregate_counting_trims(sketches: list[ECMSketch]) -> tuple[bytes, int]:
    """``ECMSketch.aggregate``'s serialized result, and how many level unions
    went through the randomized waves' selection trim (a spy counts them)."""
    select = randomized_wave._select_newest
    trims = []

    def spy(entries, per_level):
        trims.append(len(entries))
        return select(entries, per_level)

    with mock.patch.object(randomized_wave, "_select_newest", spy):
        merged = dumps(ECMSketch.aggregate(sketches))
    return merged, len(trims)


def _backend_label(sketch: ECMSketch) -> str:
    """The layout a row measured, marked when the columnar hot loops run as
    compiled kernels (so the regression guard never diffs the two)."""
    if sketch.backend == "columnar" and columnar_eh.USE_KERNELS:
        return "columnar+numba"
    return sketch.backend


# ------------------------------------------------------------ pytest-benchmark
@pytest.mark.benchmark(group="aggregation-32-sites")
@pytest.mark.parametrize(
    "counter_type",
    [CounterType.EXPONENTIAL_HISTOGRAM, CounterType.DETERMINISTIC_WAVE],
    ids=["eh", "dw"],
)
def test_aggregate_reference(benchmark, counter_type):
    sketches = _build_site_sketches(counter_type, AGGREGATION_SITES)
    benchmark(lambda: _reference_aggregate(sketches))


@pytest.mark.benchmark(group="aggregation-32-sites")
@pytest.mark.parametrize(
    "counter_type",
    [CounterType.EXPONENTIAL_HISTOGRAM, CounterType.DETERMINISTIC_WAVE],
    ids=["eh", "dw"],
)
def test_aggregate_vectorized(benchmark, counter_type):
    sketches = _build_site_sketches(counter_type, AGGREGATION_SITES)
    benchmark(lambda: ECMSketch.aggregate(sketches))


def test_aggregation_speedup_report(capsys):
    """Measure and report the reference/aggregate ratio at 32 sites.

    The acceptance bar is a >= 3x aggregation speedup for the deterministic
    counters.  Each speedup is the median over rounds of the ratio of one
    interleaved pair of timings.  Wall-clock ratios are noisy on loaded
    machines, so the floor is only enforced when REPRO_BENCH_STRICT=1 (as in
    a dedicated perf job).
    """
    results = _run_aggregation_comparison()
    with capsys.disabled():
        for variant, row in results.items():
            print(
                "\n%s aggregation of %d sites: reference %.3fs, vectorized %.3fs "
                "-> %.2fx speedup"
                % (
                    variant,
                    AGGREGATION_SITES,
                    row["reference_seconds"],
                    row["vectorized_seconds"],
                    row["speedup"],
                )
            )
    # Without a union at the cutoff the rw row would time the sort twice.
    assert results["rw"]["selection_trims"] > 0, results["rw"]
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        for variant in ("eh", "dw"):
            assert results[variant]["speedup"] >= 3.0, (
                "%s aggregation speedup regressed to %.2fx (< 3x floor)"
                % (variant, results[variant]["speedup"])
            )
        # Randomized waves keep the sort below the selection cutoff, so the
        # selection-enabled path must never be slower than the sort-only
        # reference (0.9x leaves a noise margin on the timing the two paths
        # share).
        assert results["rw"]["speedup"] >= 0.9, (
            "rw aggregation regressed to %.2fx of the reference path"
            % (results["rw"]["speedup"],)
        )


# -------------------------------------------------------------- report helpers
def _run_aggregation_comparison(rounds: int = 9) -> dict[str, dict[str, Any]]:
    """Reference-vs-vectorized aggregation timings at the headline site count.

    The two sides run back to back in every round, in alternating order; the
    speedup is the median of the per-round ratios (over 9 rounds by default,
    as Table 3 takes), and the seconds are per-side medians.
    """
    results: dict[str, dict[str, Any]] = {}
    for counter_type, label in (
        (CounterType.EXPONENTIAL_HISTOGRAM, "eh"),
        (CounterType.DETERMINISTIC_WAVE, "dw"),
        (CounterType.RANDOMIZED_WAVE, "rw"),
    ):
        arrivals = RW_ARRIVALS_PER_SITE if label == "rw" else ARRIVALS_PER_SITE
        sketches = _build_site_sketches(counter_type, AGGREGATION_SITES, arrivals)
        # Identical bytes first: a speedup over a different answer is void.
        vectorized_bytes, trims = _aggregate_counting_trims(sketches)
        assert dumps(_reference_aggregate(sketches)) == vectorized_bytes, label
        reference, vectorized = _interleaved(
            lambda: _reference_aggregate(sketches),
            lambda: ECMSketch.aggregate(sketches),
            rounds,
        )
        results[label] = {
            "backend": _backend_label(sketches[0]),
            "sites": AGGREGATION_SITES,
            "arrivals_per_site": arrivals,
            "selection_trims": trims,
            "reference_seconds": float(np.median(reference)),
            "vectorized_seconds": float(np.median(vectorized)),
            "speedup": median_rate_ratio(vectorized, reference),
        }
    return results


def _run_scaling_sweep(rounds: int = 3) -> list[dict[str, float]]:
    """aggregate cost per site as the deployment grows (near-linear target)."""
    rows: list[dict[str, float]] = []
    for num_sites in SCALING_SITES:
        sketches = _build_site_sketches(CounterType.EXPONENTIAL_HISTOGRAM, num_sites)
        seconds = _best_of(lambda: ECMSketch.aggregate(sketches), rounds)
        rows.append(
            {
                "sites": num_sites,
                "seconds": seconds,
                "seconds_per_site": seconds / num_sites,
            }
        )
    return rows


def _run_runner_throughput(
    records: int = RUNNER_RECORDS, num_sites: int = 16
) -> list[dict[str, float]]:
    """Sharded-ingest throughput at 1 and 2 workers."""
    trace = WorldCupSyntheticTrace(num_records=records, num_nodes=num_sites).generate()
    config = ECMConfig.for_point_queries(epsilon=0.1, delta=0.1, window=WINDOW)
    rows: list[dict[str, float]] = []
    for workers in (1, 2):
        runner = ShardedIngestRunner(config, workers=workers)
        runner.ingest(trace, num_nodes=num_sites)
        report = runner.last_report
        assert report is not None
        rows.append(
            {
                "workers": workers,
                "shards": report.shards,
                "records": report.records,
                "ingest_seconds": report.ingest_seconds,
                "records_per_second": report.records_per_second(),
            }
        )
    return rows


def main(argv: list[str] | None = None) -> None:
    """Standalone report (no pytest needed); optionally persists JSON.

    The CI benchmark job runs this with ``--json BENCH_pr2.json`` and uploads
    the file as the perf-trajectory artifact.
    """
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", type=str, default=None, help="write results to this file")
    parser.add_argument(
        "--rounds",
        type=int,
        default=9,
        help="timing rounds (aggregation: median of paired ratios; scaling: min is kept)",
    )
    args = parser.parse_args(argv)

    aggregation = _run_aggregation_comparison(rounds=args.rounds)
    print("Aggregation of %d site sketches (reference replay vs vectorized aggregate):" % AGGREGATION_SITES)
    for variant, row in aggregation.items():
        print(
            "  %-3s %-14s reference %7.3fs   vectorized %7.3fs   speedup %5.2fx"
            % (
                variant,
                row["backend"],
                row["reference_seconds"],
                row["vectorized_seconds"],
                row["speedup"],
            )
        )

    scaling = _run_scaling_sweep(rounds=args.rounds)
    print("aggregate site-count scaling (columnar ECM-EH, %d arrivals/site):" % ARRIVALS_PER_SITE)
    for row in scaling:
        print(
            "  %3d sites: %7.3fs total   %7.2f ms/site"
            % (row["sites"], row["seconds"], 1_000.0 * row["seconds_per_site"])
        )

    runner = _run_runner_throughput()
    print("Sharded runner ingest throughput (16 sites, %dk records):" % (RUNNER_RECORDS // 1000))
    for row in runner:
        print(
            "  workers=%d shards=%d: %8.0f records/s"
            % (row["workers"], row["shards"], row["records_per_second"])
        )

    if args.json:
        host = {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        payload = {
            "benchmark": "bench_parallel_runner",
            "host": host,
            "aggregation_32_sites": aggregation,
            "scaling": scaling,
            "runner_throughput": runner,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("results written to %s" % args.json)


if __name__ == "__main__":
    main()
