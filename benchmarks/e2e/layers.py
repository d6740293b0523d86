"""Per-layer metrics of one traced run, computed from its span dumps.

Names are ``<module>.<measure>`` after the ``src/repro`` module the span
wraps.  Only spans that *start* inside the measured window (first ingest
send to ``drain`` done) count, so boot, the correctness probes and the
shutdown snapshot stay out.  ``*_per_arrival`` values divide by the
arrivals acknowledged in that window and sum over every server process
(router and shard workers alike); ``*_ms`` values are medians (or the named
percentile) of one span's duration.  A layer that did not run in a workload
reads 0.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .spans import SYNC, load_span_dir, self_times
from .stats import percentile

__all__ = ["QUERY_OPS", "per_layer"]

#: Query operations with a per-operation service-time metric.
QUERY_OPS = ("point", "self_join", "range", "quantile", "heavy_hitters")


class _Spans:
    """Every windowed span of every process, with global name ids."""

    def __init__(self, span_dir: str, front_pid: int, window: tuple[int, int]) -> None:
        self.names: list[str] = []
        index: dict[str, int] = {}
        columns: dict[str, list[np.ndarray]] = {
            key: [] for key in ("name", "parent_name", "duration", "self", "items", "failed",
                                "front", "front_loop")
        }
        for table in load_span_dir(span_dir):
            remap = np.array(
                [index.setdefault(name, len(index)) for name in table.names] or [0],
                dtype=np.int64,
            )
            sync = np.array([kind == SYNC for kind in table.kinds] or [False])
            own = remap[table.name]
            parent_name = np.where(table.parent >= 0, own[np.maximum(table.parent, 0)], -1)
            own_self = self_times(table.start, table.end, table.parent)
            inside = (table.start >= window[0]) & (table.start <= window[1])
            columns["name"].append(own[inside])
            columns["parent_name"].append(parent_name[inside])
            columns["duration"].append(table.duration[inside])
            columns["self"].append(own_self[inside])
            columns["items"].append(table.items[inside])
            columns["failed"].append(table.failed[inside])
            front = np.full(int(inside.sum()), table.pid == front_pid)
            columns["front"].append(front)
            columns["front_loop"].append(front & sync[table.name][inside] & table.main[inside])
        self.names = sorted(index, key=index.__getitem__)
        self._index = index
        merged = {
            key: np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
            for key, parts in columns.items()
        }
        self.name = merged["name"]
        self.parent_name = merged["parent_name"]
        self.duration = merged["duration"]
        self.self = merged["self"]
        self.items = merged["items"]
        self.failed = merged["failed"]
        self.front = merged["front"].astype(bool)
        #: Synchronous spans on the front process's event-loop thread.
        self.front_loop = merged["front_loop"].astype(bool)

    def mask(self, name: str, parent: str | None = None) -> np.ndarray:
        found = self._index.get(name)
        if found is None:
            return np.zeros(len(self.name), dtype=bool)
        selected = self.name == found
        if parent is not None:
            selected &= self.parent_name == self._index.get(parent, -2)
        return selected

    def total(self, name: str, parent: str | None = None) -> float:
        return float(self.duration[self.mask(name, parent)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self[self.mask(name)].sum())

    def median_ms(self, name: str) -> float:
        values = self.duration[self.mask(name)]
        return float(np.median(values)) / 1e6 if values.size else 0.0

    def percentile_ms(self, name: str, q: float) -> float:
        values = self.duration[self.mask(name)]
        return percentile(values.tolist(), q) / 1e6 if values.size else 0.0

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, failures, items and busy time of every span name."""
        table = {}
        for name in self.names:
            selected = self.mask(name)
            if not selected.any():
                continue
            table[name] = {
                "calls": int(selected.sum()),
                "failures": int(self.failed[selected].sum()),
                "items": int(self.items[selected].sum()),
                "total_ms": float(self.duration[selected].sum()) / 1e6,
                "self_ms": float(self.self[selected].sum()) / 1e6,
                "front_self_ms": float(self.self[selected & self.front].sum()) / 1e6,
            }
        return table


def per_layer(
    span_dir: str,
    front_pid: int,
    window: tuple[int, int],
    arrivals: int,
    ops: int,
    traced_rate: float,
    untraced_rate: float,
) -> tuple[dict[str, dict[str, Any]], dict[str, dict[str, float]]]:
    """Per-layer metrics (``{name: {value, unit}}``) and the span summary."""
    spans = _Spans(span_dir, front_pid, window)
    per_arrival = 1e3 * max(1, arrivals)  # ns totals -> us per arrival

    def us(total_ns: float) -> dict[str, Any]:
        return {"value": total_ns / per_arrival, "unit": "us"}

    def ms(value: float) -> dict[str, Any]:
        return {"value": value, "unit": "ms"}

    runs = float(spans.items[spans.mask("windows.columnar_eh.ingest")].sum())
    replayed = float(spans.mask("windows.exponential_histogram.fallback").sum())
    merge = [
        spans.self[spans.mask("service.router.query." + op)] for op in QUERY_OPS
    ]
    merge_all = np.concatenate(merge)
    front_loop_ns = float(spans.self[spans.front_loop].sum())
    metrics: dict[str, dict[str, Any]] = {
        "service.protocol.decode_us_per_arrival": us(spans.total("service.protocol.decode")),
        "service.protocol.encode_us_per_op": {
            "value": spans.total("service.protocol.encode") / 1e3 / max(1, ops), "unit": "us"},
        "service.core.validate_us_per_arrival": us(spans.total("service.core.validate")),
        "service.core.ingest_wait_us_per_arrival": us(spans.self_total("service.core.ingest")),
        "service.journal.append_us_per_arrival": us(spans.total("service.journal.append")),
        "service.snapshot.payload_ms": ms(spans.median_ms("service.snapshot.payload")),
        "service.snapshot.write_ms": ms(spans.median_ms("service.snapshot.write")),
        "service.router.partition_us_per_arrival": us(spans.total("service.router.partition")),
        "service.router.fanout_wait_us_per_arrival": us(
            spans.total("service.router.fanout", parent="service.router.ingest")),
        "service.router.query_merge_ms": ms(
            float(np.median(merge_all)) / 1e6 if merge_all.size else 0.0),
        "core.hashing.hash_us_per_arrival": us(
            spans.total("core.hashing.hash", parent="core.ecm_sketch.add_many")),
        "core.ecm_sketch.add_many_self_us_per_arrival": us(
            spans.self_total("core.ecm_sketch.add_many")),
        "windows.columnar_eh.ingest_self_us_per_arrival": us(
            spans.self_total("windows.columnar_eh.ingest")),
        "windows.columnar_eh.expire_ms": ms(spans.median_ms("windows.columnar_eh.expire")),
        "windows.exponential_histogram.fallback_us_per_arrival": us(
            spans.total("windows.exponential_histogram.fallback")),
        "windows.exponential_histogram.fallback_run_share": {
            "value": replayed / runs if runs else 0.0, "unit": "fraction"},
        "service.core.apply_ms_p50": ms(spans.percentile_ms("service.core.apply", 50.0)),
        "service.core.apply_ms_p99": ms(spans.percentile_ms("service.core.apply", 99.0)),
        "queries.hierarchical.add_many_self_us_per_arrival": us(
            spans.self_total("queries.hierarchical.add_many")),
        "unattributed_us_per_arrival": {
            "value": 1e6 / traced_rate - front_loop_ns / per_arrival, "unit": "us"},
        "trace.overhead_frac": {"value": 1.0 - traced_rate / untraced_rate, "unit": "fraction"},
    }
    for op in QUERY_OPS:
        metrics["service.core.query_service_ms." + op] = ms(
            spans.median_ms("service.core.query." + op))
    return metrics, spans.summary()
