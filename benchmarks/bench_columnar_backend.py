"""Benchmarks of the columnar ECM layout (NumPy or compiled-kernel hot loops).

Covers the performance claims of the columnar-store and kernel work against
the object-per-cell reference layout at identical configuration.  No
configuration selects the object layout for exponential histograms; the
benchmark reaches it through the private ``ECMSketch._on_object_store`` seam,
as the equivalence suite does.  Both layouts produce byte-identical estimates
and serialized state (``tests/core/test_columnar_equivalence.py``, and the
``dumps`` assert of the report below):

* **Batched ingest** — ``ECMSketch.add_many`` at batch size 1024 must be at
  least 2x faster on the columnar backend's NumPy loops and at least 5x
  faster when it runs the numba-compiled kernels (all hash rows cascade in
  one pass over the shared arrays).  Measured on the same
  non-expiring-window workload as the earlier ingest benchmarks
  (``bench_micro_structures``/``bench_query_engine``), plus a secondary
  expiring-window row where window-crossing runs cascade in segments that
  end on the arrivals crossing the window.  Each ingest ratio is the median
  over ``INGEST_PAIRS`` interleaved (object, columnar) timings, so one slow
  build on a loaded host does not decide the floor.
* **Expire sweep** — ``ECMSketch.expire`` sweeps the whole ``w x d`` grid in
  one pass.  The steady-state sweep (the common coordinator case: little or
  nothing to drop) is where the oldest-end gate shines; the first sweep after
  a long quiet period, which compacts half the grid, must not fall behind
  the object backend (>= 1x) even on the NumPy path.
* **Point queries** — ``point_query_many`` reads deduplicated cells straight
  out of the arrays.
* **Resident memory** — the columnar ``memory_bytes()`` (true array
  allocation) must undercut what the object backend actually holds resident
  (per-bucket Python objects), while both report the same paper-model
  ``synopsis_bytes()``.

Every timing row carries a ``backend`` label naming what it measured:
``"columnar+numba"`` when the columnar store runs compiled kernels,
``"columnar"`` when it runs its NumPy loops.  ``benchmarks/compare_bench.py``
reads those labels and never diffs a compiled ratio against a NumPy baseline
or vice versa.

Run standalone (``PYTHONPATH=src python benchmarks/bench_columnar_backend.py
[--json out.json]``) for the report the CI benchmark job archives, or via
``pytest benchmarks/bench_columnar_backend.py`` for pytest-benchmark timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import time

import numpy as np
import pytest

from repro.core import ECMConfig, ECMSketch
from repro.serialization import dumps
from repro.windows import columnar_eh

#: Headline window: nothing expires during the workload (the PR-3 ingest
#: benchmarks' setting, so the 2x acceptance bar is measured like-for-like).
WINDOW = 1_000_000.0
#: Expiring window: roughly half the workload leaves the window, exercising
#: the expiry machinery and the segmented cascade of window-crossing runs.
EXPIRING_WINDOW = 8_192.0
#: Total point-query error budget (width 111 x depth 3 at this setting).
EPSILON = 0.05
#: Batch size of the headline ingest comparison (the acceptance point).
BATCH_SIZE = 1_024
#: Arrivals of the ingest comparison.
INGEST_RECORDS = 16_384
#: Key domain (uniform keys; every Count-Min column stays hot).
KEY_BITS = 16
#: Items per point-query batch.
QUERY_BATCH = 4_096
#: Interleaved (object, columnar) build pairs behind each ingest ratio.
INGEST_PAIRS = 5


#: Label of the accelerated rows: the columnar backend, marked when its hot
#: loops run as compiled kernels.
COMPILED_LABEL = "columnar+numba"


def _accelerated_label() -> str:
    """Backend label of the accelerated rows this run measures."""
    config = ECMConfig.for_point_queries(epsilon=EPSILON, delta=0.1, window=WINDOW)
    assert config.resolved_backend == "columnar", config.resolved_backend
    return COMPILED_LABEL if columnar_eh.USE_KERNELS else "columnar"


def _workload(seed: int = 1):
    rng = random.Random(seed)
    keys = np.asarray([rng.randrange(1 << KEY_BITS) for _ in range(INGEST_RECORDS)])
    clocks: list[float] = []
    clock = 0.0
    for _ in range(INGEST_RECORDS):
        clock += rng.random()
        clocks.append(clock)
    return keys, clocks


def _build(layout: str, keys, clocks, window: float = WINDOW) -> ECMSketch:
    config = ECMConfig.for_point_queries(epsilon=EPSILON, delta=0.1, window=window)
    sketch = ECMSketch._on_object_store(config) if layout == "object" else ECMSketch(config)
    for start in range(0, len(keys), BATCH_SIZE):
        stop = start + BATCH_SIZE
        sketch.add_many(keys[start:stop], clocks[start:stop])
    return sketch


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def _best_of(thunk, rounds: int = 3) -> float:
    return min(_timed(thunk) for _ in range(rounds))


def _median_pairs(object_thunk, accel_thunk, pairs: int = INGEST_PAIRS) -> dict[str, float]:
    """Median object and accelerated seconds, and the median of the per-pair
    ratios, over ``pairs`` back-to-back (object, accelerated) timings: both
    sides of a pair see the same host load."""
    timings = [(_timed(object_thunk), _timed(accel_thunk)) for _ in range(pairs)]
    return {
        "object_seconds": float(np.median([pair[0] for pair in timings])),
        "accel_seconds": float(np.median([pair[1] for pair in timings])),
        "speedup": float(np.median([pair[0] / pair[1] for pair in timings])),
    }


# ------------------------------------------------------------ pytest-benchmark
@pytest.mark.benchmark(group="columnar-ingest")
def test_ingest_object_backend(benchmark):
    keys, clocks = _workload()
    benchmark(lambda: _build("object", keys, clocks))


@pytest.mark.benchmark(group="columnar-ingest")
def test_ingest_columnar_backend(benchmark):
    keys, clocks = _workload()
    benchmark(lambda: _build("columnar", keys, clocks))


def test_columnar_backend_report(capsys):
    """Measure and report accelerated-vs-object ratios for the whole lifecycle.

    The acceptance bars are a >= 2x batched-ingest speedup at batch size 1024
    on the NumPy columnar backend (>= 5x with compiled kernels), a compacting
    expire sweep no slower than the object backend, and a lower reported
    memory footprint than the object backend's resident object graph.
    Wall-clock ratios are noisy on loaded machines, so the timing floors are
    only enforced when REPRO_BENCH_STRICT=1 (as in a dedicated perf job); the
    memory comparison is deterministic and always enforced.
    """
    results = _run_columnar_comparison()
    backend = results["ingest"]["backend"]
    with capsys.disabled():
        print(
            "\ningest %d records (batch %d): object %.3fs, %s %.3fs -> %.2fx"
            % (
                INGEST_RECORDS,
                BATCH_SIZE,
                results["ingest"]["object_seconds"],
                backend,
                results["ingest"]["accel_seconds"],
                results["ingest"]["speedup"],
            )
        )
        print(
            "ingest, expiring window %g: object %.3fs, %s %.3fs -> %.2fx"
            % (
                EXPIRING_WINDOW,
                results["ingest_expiring"]["object_seconds"],
                backend,
                results["ingest_expiring"]["accel_seconds"],
                results["ingest_expiring"]["speedup"],
            )
        )
        print(
            "steady-state expire sweep (%dx%d grid): object %.1fus, %s %.1fus -> %.2fx"
            % (
                results["grid"]["depth"],
                results["grid"]["width"],
                results["expire_steady"]["object_seconds"] * 1e6,
                backend,
                results["expire_steady"]["accel_seconds"] * 1e6,
                results["expire_steady"]["speedup"],
            )
        )
        print(
            "compacting expire sweep (drops ~half the grid): object %.1fus, "
            "%s %.1fus -> %.2fx"
            % (
                results["expire_compacting"]["object_seconds"] * 1e6,
                backend,
                results["expire_compacting"]["accel_seconds"] * 1e6,
                results["expire_compacting"]["speedup"],
            )
        )
        print(
            "point_query_many (%d items): object %.4fs, %s %.4fs -> %.2fx"
            % (
                QUERY_BATCH,
                results["queries"]["object_seconds"],
                backend,
                results["queries"]["accel_seconds"],
                results["queries"]["speedup"],
            )
        )
        print(
            "memory: %s arrays %.0f KiB vs object resident %.0f KiB "
            "(%.2fx; shared synopsis model %.0f KiB)"
            % (
                backend,
                results["memory"]["columnar_bytes"] / 1024.0,
                results["memory"]["object_resident_bytes"] / 1024.0,
                results["memory"]["ratio"],
                results["memory"]["synopsis_bytes"] / 1024.0,
            )
        )
    # The memory claim is deterministic: no noise margin needed.
    assert results["memory"]["columnar_bytes"] < results["memory"]["object_resident_bytes"]
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        ingest_floor = 5.0 if backend == COMPILED_LABEL else 2.0
        assert results["ingest"]["speedup"] >= ingest_floor, (
            "%s ingest speedup regressed to %.2fx (< %.0fx floor)"
            % (backend, results["ingest"]["speedup"], ingest_floor)
        )
        # The steady-state sweep runs ~30x faster on an idle machine; the
        # query ratio ~1.5-3x.  The gates leave noise margins below those.
        assert results["expire_steady"]["speedup"] >= 2.0, (
            "%s steady-state expire sweep regressed to %.2fx (< 2x floor)"
            % (backend, results["expire_steady"]["speedup"])
        )
        assert results["expire_compacting"]["speedup"] >= 1.0, (
            "%s compacting expire sweep fell behind the object backend "
            "(%.2fx < 1x floor)" % (backend, results["expire_compacting"]["speedup"])
        )
        assert results["queries"]["speedup"] >= 1.0, (
            "%s point queries regressed to %.2fx of the object backend"
            % (backend, results["queries"]["speedup"])
        )


# -------------------------------------------------------------- report helpers
def _run_columnar_comparison(rounds: int = 3) -> dict[str, dict[str, float]]:
    """Accelerated-vs-object timings for ingest, expiry, queries and memory.

    The accelerated side is the columnar layout, on compiled kernels when
    numba is present; every timing row is labelled (see
    :func:`_accelerated_label`) so the regression guard can refuse
    compiled-vs-NumPy comparisons.
    """
    label = _accelerated_label()
    keys, clocks = _workload()
    now = clocks[-1]

    ingest = _median_pairs(
        lambda: _build("object", keys, clocks), lambda: _build("columnar", keys, clocks)
    )
    ingest_expiring = _median_pairs(
        lambda: _build("object", keys, clocks, EXPIRING_WINDOW),
        lambda: _build("columnar", keys, clocks, EXPIRING_WINDOW),
    )

    object_sketch = _build("object", keys, clocks)
    accel_sketch = _build("columnar", keys, clocks)
    # The layouts must be byte-identical before their timings mean anything.
    assert (object_sketch.backend, accel_sketch.backend) == ("object", "columnar")
    assert dumps(object_sketch) == dumps(accel_sketch)

    # Compacting sweep: first expiry after a long quiet period, dropping
    # roughly half the retained buckets — each timing round needs a fresh
    # build.  Steady-state sweep: the immediately following call, where the
    # oldest-end gate short-circuits the whole grid.
    def sweep_pair(layout: str):
        sketch = _build(layout, keys, clocks, EXPIRING_WINDOW)
        horizon = now + EXPIRING_WINDOW / 2
        first = _timed(lambda: sketch.expire(horizon))
        steady = min(_timed(lambda: sketch.expire(horizon)) for _ in range(5))
        return first, steady

    compacting_object, steady_object = min(sweep_pair("object") for _ in range(rounds))
    compacting_accel, steady_accel = min(sweep_pair("columnar") for _ in range(rounds))

    query_keys = keys[:QUERY_BATCH]
    expected = object_sketch.point_query_many(query_keys, None, now)
    assert accel_sketch.point_query_many(query_keys, None, now) == expected
    queries_object = _best_of(
        lambda: object_sketch.point_query_many(query_keys, None, now), rounds
    )
    queries_accel = _best_of(
        lambda: accel_sketch.point_query_many(query_keys, None, now), rounds
    )

    return {
        "grid": {"width": object_sketch.width, "depth": object_sketch.depth},
        "ingest": {
            "backend": label,
            "records": INGEST_RECORDS,
            "batch_size": BATCH_SIZE,
            "window": WINDOW,
            "pairs": INGEST_PAIRS,
            **ingest,
        },
        "ingest_expiring": {
            "backend": label,
            "records": INGEST_RECORDS,
            "batch_size": BATCH_SIZE,
            "window": EXPIRING_WINDOW,
            "pairs": INGEST_PAIRS,
            **ingest_expiring,
        },
        "expire_steady": {
            "backend": label,
            "object_seconds": steady_object,
            "accel_seconds": steady_accel,
            "speedup": steady_object / steady_accel,
        },
        "expire_compacting": {
            "backend": label,
            "object_seconds": compacting_object,
            "accel_seconds": compacting_accel,
            "speedup": compacting_object / compacting_accel,
        },
        "queries": {
            "backend": label,
            "items": QUERY_BATCH,
            "object_seconds": queries_object,
            "accel_seconds": queries_accel,
            "speedup": queries_object / queries_accel,
        },
        "memory": {
            "backend": label,
            "columnar_bytes": accel_sketch.memory_bytes(),
            "object_resident_bytes": object_sketch.resident_memory_bytes(),
            "synopsis_bytes": accel_sketch.synopsis_bytes(),
            "ratio": accel_sketch.memory_bytes() / object_sketch.resident_memory_bytes(),
        },
    }


def main(argv: list[str] | None = None) -> None:
    """Standalone report (no pytest needed); optionally persists JSON.

    The CI benchmark job runs this with ``--json BENCH_columnar.json`` and
    uploads the file next to the other perf-trajectory artifacts.
    """
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", type=str, default=None, help="write results to this file")
    parser.add_argument(
        "--rounds", type=int, default=3, help="timing rounds of the non-ingest rows (min is kept)"
    )
    args = parser.parse_args(argv)

    results = _run_columnar_comparison(rounds=args.rounds)
    backend = results["ingest"]["backend"]
    print("%s vs object ECM backend (epsilon=%g, %dx%d grid):" % (
        backend, EPSILON, results["grid"]["depth"], results["grid"]["width"],
    ))
    for label, key, unit in (
        ("ingest (batch %d)" % BATCH_SIZE, "ingest", "s"),
        ("ingest, expiring window", "ingest_expiring", "s"),
        ("steady-state expire sweep", "expire_steady", "us"),
        ("compacting expire sweep", "expire_compacting", "us"),
        ("point queries (%d)" % QUERY_BATCH, "queries", "s"),
    ):
        scale = 1e6 if unit == "us" else 1.0
        print(
            "  %-26s object %9.3f%s   %-8s %9.3f%s   speedup %5.2fx"
            % (
                label + ":",
                results[key]["object_seconds"] * scale,
                unit,
                backend,
                results[key]["accel_seconds"] * scale,
                unit,
                results[key]["speedup"],
            )
        )
    print(
        "  memory:                    %s %6.0f KiB vs object resident %6.0f KiB "
        "(synopsis %6.0f KiB)"
        % (
            backend,
            results["memory"]["columnar_bytes"] / 1024.0,
            results["memory"]["object_resident_bytes"] / 1024.0,
            results["memory"]["synopsis_bytes"] / 1024.0,
        )
    )

    if args.json:
        host = {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        payload = {"benchmark": "bench_columnar_backend", "backend": backend, "host": host, **results}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("results written to %s" % args.json)


if __name__ == "__main__":
    main()
