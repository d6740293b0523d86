"""``compare``: two sets of result files, metric by metric, against the bounds.

For every workload it prints, for each end-to-end metric of
``BENCHMARK.json``, each watched throughput and latency metric and each
zero-tolerance correctness metric, both sides' median and quartiles and one
verdict:

* ``unresolved`` — either side's run-to-run spread (interquartile distance
  over the median) is wider than the metric's bound, so the medians cannot
  show a change of that size; unless every run of the second set reads
  better than every run of the first, which is ``ok``;
* ``regressed`` — the second median is worse than the first by more than
  the bound (for the zero-tolerance metrics, worse at all);
* ``ok`` — otherwise.

Files whose host facts differ are refused: a number measured on another
machine (or with another counter backend) is not a baseline.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from typing import Any

from .stats import quartiles, spread

__all__ = ["ZERO_TOLERANCE", "WATCHED", "HostMismatchError", "verdict", "compare"]

#: Correctness metrics with no tolerance: any move the wrong way regresses.
ZERO_TOLERANCE = {"error_rate": "lower", "answers_in_bound": "higher"}

#: Throughput and latency, judged against a 10% bound.  They are per-layer
#: metrics in ``BENCHMARK.json``: on a host whose CPU speed swings by a
#: fifth between runs their spread is wider than 10%, so here they mostly
#: read ``unresolved``, which is the honest verdict.
WATCHED = {"ingest_rate": ("higher", 0.1), "query_p50_ms": ("lower", 0.1),
           "query_p99_ms": ("lower", 0.1)}


class HostMismatchError(ValueError):
    """The result files were measured on different hosts."""


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = second - first if better == "lower" else first - second
    if first == 0:
        return 0.0 if change <= 0 else float("inf")
    return change / abs(first)


def verdict(first: Sequence[float], second: Sequence[float], better: str, bound: float | None) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one metric (see module doc)."""
    worse = _worse_by(quartiles(first)[1], quartiles(second)[1], better)
    if bound is None:
        return "regressed" if worse > 0 else "ok"
    if max(spread(first), spread(second)) > bound:
        if better == "lower":
            all_better = max(second) < min(first)
        else:
            all_better = min(second) > max(first)
        return "ok" if all_better else "unresolved"
    return "regressed" if worse > bound else "ok"


def _load(paths: Sequence[str]) -> list[dict[str, Any]]:
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


def _values(documents: list[dict[str, Any]], workload: str, metric: str) -> list[float]:
    values = []
    for document in documents:
        result = document.get("workloads", {}).get(workload, {})
        entry = result.get("metrics", {}).get(metric)
        if entry is not None:
            values.append(float(entry["value"]))
    return values


def _describe(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return "%12.4g [%.4g, %.4g] n=%d" % (median, q1, q3, len(values))


def compare(
    first_paths: Sequence[str], second_paths: Sequence[str], spec: dict[str, Any]
) -> tuple[list[str], dict[tuple[str, str], str]]:
    """Compare two sets of result files; returns report lines and verdicts.

    Raises:
        HostMismatchError: The files do not all share one host-facts block.
    """
    first = _load(first_paths)
    second = _load(second_paths)
    hosts = {json.dumps(document.get("host"), sort_keys=True) for document in first + second}
    if len(hosts) != 1:
        raise HostMismatchError(
            "result files come from different hosts:\n  " + "\n  ".join(sorted(hosts))
        )
    rows: list[tuple[str, str, float | None]] = [
        (metric["name"], metric["better"], float(metric["bound"])) for metric in spec["end_to_end"]
    ]
    rows += [(name, better, bound) for name, (better, bound) in WATCHED.items()]
    rows += [(name, better, None) for name, better in ZERO_TOLERANCE.items()]
    workloads = [workload["name"] for workload in spec["workloads"]]
    lines = [
        "%-13s %-17s %-34s %-34s %8s  %s"
        % ("workload", "metric", "first: median [q1, q3]", "second: median [q1, q3]",
           "change", "verdict")
    ]
    verdicts: dict[tuple[str, str], str] = {}
    for workload in workloads:
        for name, better, bound in rows:
            a = _values(first, workload, name)
            b = _values(second, workload, name)
            if not a or not b:
                continue
            outcome = verdict(a, b, better, bound)
            verdicts[(workload, name)] = outcome
            median_a, median_b = quartiles(a)[1], quartiles(b)[1]
            change = (median_b - median_a) / abs(median_a) * 100.0 if median_a else 0.0
            lines.append(
                "%-13s %-17s %-34s %-34s %+7.1f%%  %s"
                % (workload, name, _describe(a), _describe(b), change, outcome)
            )
    return lines, verdicts
