"""Bench-regression guard: diff fresh BENCH_*.json files against baselines.

The nightly CI benchmark job regenerates the perf-trajectory JSON files
(``BENCH_pr2.json``, ``BENCH_query_engine.json``, ``BENCH_columnar.json``,
``BENCH_service.json``) and, instead of only uploading them as artifacts,
runs this script to compare every *speedup ratio* in the fresh results
against the committed baselines.  Speedup ratios are within-run comparisons
(vectorized vs reference on the same machine, same load), so they transfer
across runner hardware in a way absolute rates do not — which is why only
keys named ``speedup`` are gated.

A fresh speedup may drift below its baseline by at most ``--tolerance``
(default 25%); anything worse fails the job::

    python benchmarks/compare_bench.py \\
        --pair BENCH_pr2.json fresh/BENCH_pr2.json \\
        --pair BENCH_columnar.json fresh/BENCH_columnar.json

``--self-test`` proves the guard actually guards: it synthesises a 30%
slowdown and exits non-zero unless the comparison flags it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from typing import Any

#: Fractional slack a fresh speedup may lose against its baseline.
DEFAULT_TOLERANCE = 0.25

#: Ceiling on any required floor.  Very large ratios (a 33x steady-state
#: expire sweep, say) are the most hardware-sensitive numbers in the suite:
#: what matters on a different runner is that the optimization has not
#: collapsed, not that it reproduces the committed multiple within 25%.
#: Floors derived from such baselines are clamped here; per-benchmark noise
#: floors below the clamp stay governed by the 25% tolerance.
DEFAULT_FLOOR_CLAMP = 4.0

#: Leaf keys treated as gated speedup ratios.
RATIO_KEYS = frozenset(["speedup"])


def iter_ratio_leaves(
    tree: Any, prefix: str = "", backend: str | None = None
) -> Iterator[tuple[str, tuple[float, str | None]]]:
    """Yield ``(dotted.path, (value, backend))`` for every gated ratio leaf.

    ``backend`` is the nearest enclosing dict's ``"backend"`` label (rows
    measured on compiled kernels, ``"columnar+numba"``, and on the NumPy
    columnar loops, ``"columnar"``, carry different labels, and their ratios
    must never be diffed against each other).
    """
    if isinstance(tree, dict):
        label = tree.get("backend")
        if isinstance(label, str):
            backend = label
        for key in sorted(tree):
            path = "%s.%s" % (prefix, key) if prefix else str(key)
            value = tree[key]
            if key in RATIO_KEYS and isinstance(value, (int, float)) and not isinstance(value, bool):
                yield path, (float(value), backend)
            else:
                yield from iter_ratio_leaves(value, path, backend)
    elif isinstance(tree, list):
        for index, value in enumerate(tree):
            yield from iter_ratio_leaves(value, "%s[%d]" % (prefix, index), backend)


def compare_trees(
    baseline: Any,
    fresh: Any,
    tolerance: float,
    floor_clamp: float = DEFAULT_FLOOR_CLAMP,
) -> tuple[list[str], list[str]]:
    """Compare two benchmark trees; returns (report_lines, regression_lines)."""
    baseline_leaves = dict(iter_ratio_leaves(baseline))
    fresh_leaves = dict(iter_ratio_leaves(fresh))
    report: list[str] = []
    regressions: list[str] = []
    for path, (base_value, base_backend) in sorted(baseline_leaves.items()):
        fresh_entry = fresh_leaves.get(path)
        if fresh_entry is None:
            report.append("  MISSING  %-48s baseline %6.2fx, absent in fresh run" % (path, base_value))
            regressions.append("%s: ratio missing from the fresh results" % path)
            continue
        fresh_value, fresh_backend = fresh_entry
        if base_backend != fresh_backend:
            # A compiled ratio against a NumPy baseline (or vice versa) is not
            # a regression signal — different code paths, different bars.
            report.append(
                "  skipped  %-48s backend changed: %s -> %s (baseline %.2fx, fresh %.2fx)"
                % (path, base_backend or "unlabelled", fresh_backend or "unlabelled",
                   base_value, fresh_value)
            )
            continue
        floor = min(base_value * (1.0 - tolerance), floor_clamp)
        status = "ok" if fresh_value >= floor else "REGRESSED"
        report.append(
            "  %-10s%-48s baseline %6.2fx   fresh %6.2fx   floor %6.2fx"
            % (status, path, base_value, fresh_value, floor)
        )
        if fresh_value < floor:
            regressions.append(
                "%s: %.2fx -> %.2fx (%.0f%% below baseline; tolerance %.0f%%)"
                % (
                    path,
                    base_value,
                    fresh_value,
                    100.0 * (1.0 - fresh_value / base_value),
                    100.0 * tolerance,
                )
            )
    for path in sorted(set(fresh_leaves) - set(baseline_leaves)):
        report.append(
            "  new      %-48s fresh %6.2fx (no baseline yet)" % (path, fresh_leaves[path][0])
        )
    return report, regressions


def compare_files(
    baseline_path: str,
    fresh_path: str,
    tolerance: float,
    floor_clamp: float = DEFAULT_FLOOR_CLAMP,
) -> tuple[list[str], list[str]]:
    """Compare one baseline/fresh file pair."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(fresh_path, "r", encoding="utf-8") as handle:
        fresh = json.load(handle)
    return compare_trees(baseline, fresh, tolerance, floor_clamp)


def self_test(tolerance: float = DEFAULT_TOLERANCE) -> int:
    """Prove the guard catches a synthetic 30% slowdown (and passes a 10% one)."""
    baseline = {
        "ingest": {"speedup": 3.0, "records": 1000},
        "stages": [{"name": "merge", "speedup": 2.0}],
        "meta": {"benchmark": "self-test"},
    }
    slowdown_30 = json.loads(json.dumps(baseline))
    slowdown_30["ingest"]["speedup"] = 3.0 * 0.70  # 30% regression: must fail
    slowdown_10 = json.loads(json.dumps(baseline))
    slowdown_10["stages"][0]["speedup"] = 2.0 * 0.90  # 10% drift: within tolerance
    clamped = {"sweep": {"speedup": 30.0}}
    clamped_fresh = {"sweep": {"speedup": 5.0}}  # above the clamp: must pass
    # A NumPy run diffed against a compiled-kernel baseline: the ratio drops,
    # but the backend label changed, so the guard must skip the row, not flag it.
    kernel_baseline = {"ingest": {"backend": "columnar+numba", "speedup": 8.0}}
    numpy_fresh = {"ingest": {"backend": "columnar", "speedup": 2.5}}

    _, must_fail = compare_trees(baseline, slowdown_30, tolerance)
    _, must_pass = compare_trees(baseline, slowdown_10, tolerance)
    _, missing = compare_trees(baseline, {"meta": {}}, tolerance)
    _, clamp_pass = compare_trees(clamped, clamped_fresh, tolerance)
    _, clamp_fail = compare_trees(clamped, {"sweep": {"speedup": 3.0}}, tolerance)
    backend_report, backend_switch = compare_trees(kernel_baseline, numpy_fresh, tolerance)

    failures: list[str] = []
    if not must_fail:
        failures.append("guard did not flag a 30%% speedup regression")
    if must_pass:
        failures.append("guard flagged a 10%% drift inside the tolerance: %s" % must_pass)
    if len(missing) != 2:
        failures.append("guard did not flag ratios missing from the fresh results")
    if clamp_pass:
        failures.append("floor clamp did not cap a 30x baseline at %gx: %s"
                        % (DEFAULT_FLOOR_CLAMP, clamp_pass))
    if not clamp_fail:
        failures.append("a collapse below the %gx clamp was not flagged" % DEFAULT_FLOOR_CLAMP)
    if backend_switch:
        failures.append(
            "guard diffed ratios across a backend change instead of skipping: %s"
            % backend_switch
        )
    if not any("skipped" in line and "backend changed" in line for line in backend_report):
        failures.append("guard did not report the backend-change skip")
    if failures:
        for failure in failures:
            print("self-test FAILED: %s" % failure)
        return 1
    print("self-test passed: 30%% slowdown flagged, 10%% drift tolerated, missing "
          "ratios flagged, cross-backend rows skipped, floors clamp at %gx "
          "(tolerance %.0f%%)"
          % (DEFAULT_FLOOR_CLAMP, 100.0 * tolerance))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pair",
        nargs=2,
        action="append",
        metavar=("BASELINE", "FRESH"),
        default=[],
        help="one baseline/fresh JSON file pair to compare (repeatable)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="fractional speedup loss tolerated before failing (default 0.25)",
    )
    parser.add_argument(
        "--floor-clamp",
        type=float,
        default=DEFAULT_FLOOR_CLAMP,
        help="ceiling on any required floor; large committed ratios are the "
             "most hardware-sensitive, so their floors cap here (default %g)"
             % DEFAULT_FLOOR_CLAMP,
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the guard flags a synthetic 30%% slowdown, then exit",
    )
    args = parser.parse_args(argv)
    if not (0.0 <= args.tolerance < 1.0):
        parser.error("--tolerance must be in [0, 1)")

    if args.self_test:
        return self_test(args.tolerance)
    if not args.pair:
        parser.error("nothing to do: pass --pair BASELINE FRESH (or --self-test)")

    all_regressions: dict[str, list[str]] = {}
    for baseline_path, fresh_path in args.pair:
        print("%s vs %s:" % (baseline_path, fresh_path))
        report, regressions = compare_files(
            baseline_path, fresh_path, args.tolerance, args.floor_clamp
        )
        for line in report:
            print(line)
        if regressions:
            all_regressions[baseline_path] = regressions
    if all_regressions:
        print("\nbench-regression guard FAILED:")
        for baseline_path, regressions in all_regressions.items():
            for regression in regressions:
                print("  %s: %s" % (baseline_path, regression))
        return 1
    print("\nbench-regression guard passed (%d pair%s, tolerance %.0f%%)"
          % (len(args.pair), "" if len(args.pair) == 1 else "s", 100.0 * args.tolerance))
    return 0


if __name__ == "__main__":
    sys.exit(main())
