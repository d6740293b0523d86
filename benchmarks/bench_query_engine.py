"""Benchmarks of the hierarchical query engine (paper Section 6.1).

Covers the three performance claims of the vectorized query-engine work:

* **Batched ingest** — ``HierarchicalECMSketch.add_many`` (NumPy all-level
  prefixes feeding each level's ``ECMSketch.add_many``) must be at least 3x
  faster than the scalar ``add`` loop at batch size 1024 on a 16-bit
  universe (byte-identical state, enforced by the equivalence suite).
* **Batched descent** — the level-synchronized BFS heavy-hitter descent
  (``heavy_hitters``) must be at least as fast as the private scalar
  depth-first reference (``_heavy_hitters_scalar``) on a 20-bit universe
  (identical detections, asserted here and by the equivalence suite).  The
  strict CI gate allows a 0.9x noise margin on the millisecond-scale
  descent timings; the report prints the measured ratio.
* **Shared-scan quantiles** — ``quantiles`` resolving many fractions from
  one memo of dyadic prefix estimates vs one full binary search per
  fraction.

Run standalone (``PYTHONPATH=src python benchmarks/bench_query_engine.py
[--json out.json]``) for the report the CI benchmark job archives, or via
``pytest benchmarks/bench_query_engine.py`` for pytest-benchmark timings.
"""

from __future__ import annotations

import argparse
import json
import random
import time

import numpy as np
import pytest

from repro.queries import HierarchicalECMSketch
from repro.serialization import dumps

WINDOW = 1_000_000.0
#: Batch size of the headline ingest comparison (the acceptance point).
BATCH_SIZE = 1_024
#: Universe of the ingest comparison (16 dyadic levels).
INGEST_UNIVERSE_BITS = 16
#: Arrivals of the ingest comparison.
INGEST_RECORDS = 4_096
#: Universe of the heavy-hitter descent comparison (20 dyadic levels).
DESCENT_UNIVERSE_BITS = 20
#: Arrivals of the descent comparison.
DESCENT_RECORDS = 60_000
#: Relative threshold of the descent comparison (dense frontier).
DESCENT_PHI = 0.0002


def _ingest_workload(seed: int = 1):
    """Uniform integer keys + monotone clocks for the ingest comparison."""
    rng = random.Random(seed)
    keys = [rng.randrange(1 << INGEST_UNIVERSE_BITS) for _ in range(INGEST_RECORDS)]
    clocks: list[float] = []
    clock = 0.0
    for _ in range(INGEST_RECORDS):
        clock += rng.random()
        clocks.append(clock)
    return keys, clocks


def _build_stack(universe_bits: int, epsilon: float = 0.05) -> HierarchicalECMSketch:
    return HierarchicalECMSketch(
        universe_bits=universe_bits, epsilon=epsilon, delta=0.1, window=WINDOW
    )


def _descent_stack(seed: int = 1):
    """A 20-bit stack fed a heavy-tailed stream, plus its query clock."""
    rng = random.Random(seed)
    limit = (1 << DESCENT_UNIVERSE_BITS) - 1
    keys = np.array(
        [min(int(rng.paretovariate(1.05)) - 1, limit) for _ in range(DESCENT_RECORDS)]
    )
    clocks: list[float] = []
    clock = 0.0
    for _ in range(DESCENT_RECORDS):
        clock += rng.random()
        clocks.append(clock)
    stack = _build_stack(DESCENT_UNIVERSE_BITS, epsilon=0.02)
    for start in range(0, DESCENT_RECORDS, 8_192):
        stop = start + 8_192
        stack.add_many(keys[start:stop], clocks[start:stop])
    return stack, clocks[-1]


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def _best_of(thunk, rounds: int = 3) -> float:
    return min(_timed(thunk) for _ in range(rounds))


# ------------------------------------------------------------ pytest-benchmark
@pytest.mark.benchmark(group="hierarchical-ingest")
def test_ingest_scalar(benchmark):
    keys, clocks = _ingest_workload()

    def run():
        stack = _build_stack(INGEST_UNIVERSE_BITS)
        for key, clock in zip(keys, clocks, strict=False):
            stack.add(key, clock)
        return stack

    benchmark(run)


@pytest.mark.benchmark(group="hierarchical-ingest")
def test_ingest_batched(benchmark):
    keys, clocks = _ingest_workload()
    keys_array = np.asarray(keys)

    def run():
        stack = _build_stack(INGEST_UNIVERSE_BITS)
        for start in range(0, len(keys), BATCH_SIZE):
            stop = start + BATCH_SIZE
            stack.add_many(keys_array[start:stop], clocks[start:stop])
        return stack

    benchmark(run)


@pytest.mark.benchmark(group="heavy-hitter-descent")
def test_descent_scalar(benchmark):
    stack, now = _descent_stack()
    benchmark(lambda: stack._heavy_hitters_scalar(phi=DESCENT_PHI, now=now))


@pytest.mark.benchmark(group="heavy-hitter-descent")
def test_descent_batched(benchmark):
    stack, now = _descent_stack()
    benchmark(lambda: stack.heavy_hitters(phi=DESCENT_PHI, now=now))


def test_query_engine_speedup_report(capsys):
    """Measure and report the batched-over-scalar ratios of the query engine.

    The acceptance bars are a >= 3x ingest speedup at batch size 1024 and a
    batched descent at least as fast as the scalar reference on a 20-bit
    universe.  Wall-clock ratios are noisy on loaded machines, so the floors
    are only enforced when REPRO_BENCH_STRICT=1 (as in a dedicated perf job).
    """
    import os

    results = _run_query_engine_comparison()
    with capsys.disabled():
        print(
            "\ningest %d records (universe 2**%d): scalar %.3fs, batched(%d) %.3fs "
            "-> %.2fx speedup"
            % (
                INGEST_RECORDS,
                INGEST_UNIVERSE_BITS,
                results["ingest"]["scalar_seconds"],
                BATCH_SIZE,
                results["ingest"]["batched_seconds"],
                results["ingest"]["speedup"],
            )
        )
        print(
            "heavy-hitter descent (universe 2**%d, %d hitters): scalar %.4fs, "
            "batched %.4fs -> %.2fx speedup"
            % (
                DESCENT_UNIVERSE_BITS,
                results["descent"]["hitters"],
                results["descent"]["scalar_seconds"],
                results["descent"]["batched_seconds"],
                results["descent"]["speedup"],
            )
        )
        print(
            "quantiles (9 fractions): per-fraction %.4fs, shared-scan %.4fs "
            "-> %.2fx speedup"
            % (
                results["quantiles"]["scalar_seconds"],
                results["quantiles"]["shared_scan_seconds"],
                results["quantiles"]["speedup"],
            )
        )
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert results["ingest"]["speedup"] >= 3.0, (
            "hierarchical ingest speedup regressed to %.2fx (< 3x floor)"
            % (results["ingest"]["speedup"],)
        )
        # The descent rounds are millisecond-scale, so the gate leaves a
        # noise margin below the "at least as fast as scalar" target the
        # report prints (measured ~1.3x on an idle machine).
        assert results["descent"]["speedup"] >= 0.9, (
            "batched descent regressed to %.2fx of scalar (< 0.9x floor)"
            % (results["descent"]["speedup"],)
        )


# -------------------------------------------------------------- report helpers
def _run_query_engine_comparison(rounds: int = 3) -> dict[str, dict[str, float]]:
    """Scalar-vs-batched timings for ingest, descent and quantiles."""
    keys, clocks = _ingest_workload()
    keys_array = np.asarray(keys)

    def ingest_scalar():
        stack = _build_stack(INGEST_UNIVERSE_BITS)
        for key, clock in zip(keys, clocks, strict=False):
            stack.add(key, clock)
        return stack

    def ingest_batched():
        stack = _build_stack(INGEST_UNIVERSE_BITS)
        for start in range(0, len(keys), BATCH_SIZE):
            stop = start + BATCH_SIZE
            stack.add_many(keys_array[start:stop], clocks[start:stop])
        return stack

    # Identical bytes first: a speedup over a different state is void.
    assert dumps(ingest_scalar()) == dumps(ingest_batched())
    scalar_seconds = _best_of(ingest_scalar, rounds)
    batched_seconds = _best_of(ingest_batched, rounds)

    stack, now = _descent_stack()
    detected_batched = stack.heavy_hitters(phi=DESCENT_PHI, now=now)
    detected_scalar = stack._heavy_hitters_scalar(phi=DESCENT_PHI, now=now)
    assert detected_batched == detected_scalar
    descent_scalar = _best_of(
        lambda: stack._heavy_hitters_scalar(phi=DESCENT_PHI, now=now), max(rounds, 5)
    )
    descent_batched = _best_of(
        lambda: stack.heavy_hitters(phi=DESCENT_PHI, now=now), max(rounds, 5)
    )

    fractions = [0.1 * step for step in range(1, 10)]
    assert stack.quantiles(fractions, now=now) == [
        stack.quantile(fraction, now=now) for fraction in fractions
    ]
    quantiles_scalar = _best_of(
        lambda: [stack.quantile(fraction, now=now) for fraction in fractions], rounds
    )
    quantiles_shared = _best_of(lambda: stack.quantiles(fractions, now=now), rounds)

    return {
        "ingest": {
            "records": INGEST_RECORDS,
            "universe_bits": INGEST_UNIVERSE_BITS,
            "batch_size": BATCH_SIZE,
            "scalar_seconds": scalar_seconds,
            "batched_seconds": batched_seconds,
            "speedup": scalar_seconds / batched_seconds,
        },
        "descent": {
            "records": DESCENT_RECORDS,
            "universe_bits": DESCENT_UNIVERSE_BITS,
            "phi": DESCENT_PHI,
            "hitters": len(detected_batched),
            "scalar_seconds": descent_scalar,
            "batched_seconds": descent_batched,
            "speedup": descent_scalar / descent_batched,
        },
        "quantiles": {
            "fractions": len(fractions),
            "scalar_seconds": quantiles_scalar,
            "shared_scan_seconds": quantiles_shared,
            "speedup": quantiles_scalar / quantiles_shared,
        },
    }


def main(argv: list[str] | None = None) -> None:
    """Standalone report (no pytest needed); optionally persists JSON.

    The CI benchmark job runs this with ``--json BENCH_query_engine.json``
    and uploads the file next to the parallel-runner trajectory artifact.
    """
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", type=str, default=None, help="write results to this file")
    parser.add_argument("--rounds", type=int, default=3, help="timing rounds (min is kept)")
    args = parser.parse_args(argv)

    results = _run_query_engine_comparison(rounds=args.rounds)
    print("Hierarchical ingest (%d records, universe 2**%d, batch %d):" % (
        INGEST_RECORDS, INGEST_UNIVERSE_BITS, BATCH_SIZE,
    ))
    print(
        "  scalar %7.3fs   batched %7.3fs   speedup %5.2fx"
        % (
            results["ingest"]["scalar_seconds"],
            results["ingest"]["batched_seconds"],
            results["ingest"]["speedup"],
        )
    )
    print("Heavy-hitter descent (universe 2**%d, phi=%g, %d hitters):" % (
        DESCENT_UNIVERSE_BITS, DESCENT_PHI, results["descent"]["hitters"],
    ))
    print(
        "  scalar %7.4fs   batched %7.4fs   speedup %5.2fx"
        % (
            results["descent"]["scalar_seconds"],
            results["descent"]["batched_seconds"],
            results["descent"]["speedup"],
        )
    )
    print("Quantiles (%d fractions, shared scan vs per-fraction search):" % (
        results["quantiles"]["fractions"],
    ))
    print(
        "  per-fraction %7.4fs   shared-scan %7.4fs   speedup %5.2fx"
        % (
            results["quantiles"]["scalar_seconds"],
            results["quantiles"]["shared_scan_seconds"],
            results["quantiles"]["speedup"],
        )
    )

    if args.json:
        payload = {"benchmark": "bench_query_engine", **results}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("results written to %s" % args.json)


if __name__ == "__main__":
    main()
