"""The four workloads: server flags, seeded traces, query mixes, exact checks.

Every workload replays one seeded trace in *laps*: lap ``k`` repeats the
trace with every clock shifted by ``k`` trace lengths, so clocks keep rising
and the run can last as long as ``--seconds`` asks, whatever the ingest
rate.  Lapping keeps the arrival density (arrivals per clock unit), and with
it the sliding-window regime, the same from the first lap to the last.
"""

from __future__ import annotations

import random
from collections.abc import Hashable
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.baselines.exact import ExactStreamSummary
from repro.core import ECMConfig, ECMSketch
from repro.streams import IntegerZipfTrace, WorldCupSyntheticTrace

__all__ = ["WORKLOADS", "Workload", "Trace", "build_trace", "query_message", "exact_checks"]

#: Sketch parameters every workload serves with (the ``repro serve``
#: defaults, spelled out because the exact checks rebuild the same bound).
EPSILON = 0.05
DELTA = 0.05
#: Arrivals per ingest request.
CHUNK = 1_024
#: Server ingest queue bound, in chunks.  Small enough that the closed loop
#: runs at the apply rate within a second and the final drain stays short
#: (the hierarchical apply takes ~0.4 s a chunk).
QUEUE_CHUNKS = 8
#: Heavy-hitter threshold of the hierarchical query mix and recall check.
PHI = 0.02
#: Quantile asked by the hierarchical query mix.
FRACTION = 0.5
#: A window no lapped flat trace outgrows: nothing ever expires.
NEVER_EXPIRES = 1e12


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server configuration."""

    name: str
    mode: str
    trace_records: int
    window: float
    query_rate: float
    query_mix: tuple[str, ...]
    journal: bool = False
    snapshot_every: float | None = None
    shards: int | None = None
    universe_bits: int | None = None
    min_cpus: int = 1

    @property
    def sliding(self) -> bool:
        """Whether arrivals leave the window during a run."""
        return self.window < NEVER_EXPIRES

    def serve_args(self, workdir: str) -> list[str]:
        """``repro serve`` flags (after ``--port 0``) for a fresh state in ``workdir``."""
        args = ["--mode", self.mode, "--window", repr(self.window), "--epsilon", repr(EPSILON),
                "--delta", repr(DELTA), "--batch-size", str(CHUNK),
                "--queue-chunks", str(QUEUE_CHUNKS)]
        if self.universe_bits is not None:
            args += ["--universe-bits", str(self.universe_bits)]
        if self.shards is not None:
            args += ["--shards", str(self.shards)]
        if self.journal:
            args += ["--journal-dir", "%s/journal" % workdir]
        if self.snapshot_every is not None:
            args += ["--snapshot-every", repr(self.snapshot_every),
                     "--snapshot-path", "%s/snapshot.json" % workdir]
        return args

    def smoke(self) -> Workload:
        """The same workload with a trace small enough for a self-test."""
        return replace(self, trace_records=min(self.trace_records, 8_192))


FLAT_MIX = ("point", "self_join")
HIER_MIX = ("point", "range", "quantile", "heavy_hitters")

#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="flat-durable",
            mode="flat",
            trace_records=262_144,
            window=NEVER_EXPIRES,
            query_rate=100.0,
            query_mix=FLAT_MIX,
            journal=True,
            snapshot_every=2.0,
        ),
        Workload(
            name="flat-sliding",
            mode="flat",
            trace_records=262_144,
            window=50_000.0,
            query_rate=60.0,
            query_mix=FLAT_MIX,
        ),
        Workload(
            name="hier-sliding",
            mode="hierarchical",
            trace_records=40_000,
            window=50_000.0,
            query_rate=60.0,
            query_mix=HIER_MIX,
            universe_bits=16,
        ),
        Workload(
            name="sharded-flat",
            mode="flat",
            trace_records=262_144,
            window=NEVER_EXPIRES,
            query_rate=100.0,
            query_mix=FLAT_MIX,
            journal=True,
            shards=2,
            min_cpus=2,
        ),
    )
}


class Trace:
    """A seeded base trace, replayed in clock-shifted laps."""

    def __init__(self, keys: list[Hashable], clocks: np.ndarray, lap: float) -> None:
        self.keys = keys
        self.clocks = clocks
        self.lap = lap

    def _slice(self, start: int, stop: int) -> tuple[list[Hashable], np.ndarray]:
        index = np.arange(start, stop)
        base = index % len(self.keys)
        clocks = self.clocks[base] + (index // len(self.keys)) * self.lap
        keys = self.keys
        return [keys[i] for i in base.tolist()], clocks

    def chunk(self, start: int, size: int = CHUNK) -> tuple[list[Hashable], list[float]]:
        """Arrivals ``[start, start + size)`` of the lapped stream."""
        keys, clocks = self._slice(start, start + size)
        return keys, clocks.tolist()

    def prefix(self, count: int) -> tuple[list[Hashable], np.ndarray]:
        """The first ``count`` arrivals of the lapped stream."""
        return self._slice(0, count)

    def filling(self, window: float) -> int:
        """Arrivals until the first one a ``window`` later than the first clock."""
        laps, rest = divmod(window, self.lap)
        return int(laps) * len(self.keys) + int(
            np.searchsorted(self.clocks, self.clocks[0] + rest, side="left")
        )

    def probe_keys(self, count: int, seed: int) -> list[Hashable]:
        """``count`` distinct keys of the trace, drawn with ``seed``."""
        distinct = sorted(set(self.keys))
        return random.Random(seed).sample(distinct, min(count, len(distinct)))


def build_trace(workload: Workload, seed: int) -> Trace:
    """The workload's base trace for ``seed`` (same seed, same trace)."""
    if workload.mode == "hierarchical":
        assert workload.universe_bits is not None
        generator: Any = IntegerZipfTrace(
            num_records=workload.trace_records, universe_bits=workload.universe_bits, seed=seed
        )
    else:
        # One arrival per clock unit, as in a 1M-record trace over 1e6 units.
        generator = WorldCupSyntheticTrace(
            num_records=workload.trace_records,
            duration=float(workload.trace_records),
            seed=seed,
        )
    stream = generator.generate()
    keys = [record.key for record in stream]
    clocks = np.fromiter((record.timestamp for record in stream), dtype=np.float64, count=len(keys))
    return Trace(keys, clocks, lap=float(generator.config.duration))


def query_message(op: str, key: Hashable) -> dict[str, Any]:
    """Protocol message of one query of the mix."""
    if op == "point":
        return {"op": "point", "key": key}
    if op == "self_join":
        return {"op": "self_join"}
    if op == "range":
        return {"op": "range", "lo": 0, "hi": key}
    if op == "quantile":
        return {"op": "quantile", "fraction": FRACTION}
    if op == "heavy_hitters":
        return {"op": "heavy_hitters", "phi": PHI}
    raise ValueError("unknown query op %r" % (op,))


def exact_checks(
    workload: Workload,
    trace: Trace,
    arrivals: int,
    probes: list[Hashable],
    answers: list[float],
    hitters: list[int] | None,
) -> dict[str, float]:
    """Served answers against :class:`ExactStreamSummary` over the same arrivals.

    Returns ``answers_in_bound`` (share of probe point answers within the
    Theorem 1 bound ``point_error_bound(||a_r||_1)``) and, for the
    hierarchical workload, ``heavy_hitter_recall`` against the exact
    ``phi``-heavy set.
    """
    keys, clocks = trace.prefix(arrivals)
    now = float(clocks[-1])
    # Only arrivals inside the final window can count; feeding just those
    # keeps the exact summary small on the sliding workloads.
    first = int(np.searchsorted(clocks, now - workload.window, side="right"))
    summary = ExactStreamSummary(workload.window)
    for key, clock in zip(keys[first:], clocks[first:].tolist(), strict=True):
        summary.add(key, clock)
    reference = ECMSketch(
        ECMConfig.for_point_queries(epsilon=EPSILON, delta=DELTA, window=workload.window)
    )
    bound = reference.point_error_bound(summary.arrivals())
    within = sum(
        1 for key, answer in zip(probes, answers, strict=True)
        if abs(answer - summary.frequency(key)) <= bound
    )
    result = {"answers_in_bound": within / len(probes), "error_bound": bound}
    if hitters is not None:
        exact = set(summary.heavy_hitters(PHI))
        result["heavy_hitter_recall"] = (
            len(exact & set(hitters)) / len(exact) if exact else 1.0
        )
    return result
