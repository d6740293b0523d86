"""Atomic snapshot/restore of the whole service state.

A snapshot is one JSON document built on the existing serialization wire
format (:mod:`repro.serialization`): the service configuration, the ingest
watermarks, and the mode-specific sketch state — the flat sketch, the
hierarchical stack, or every site sketch plus the coordinator's round state.
Restoring a snapshot into a fresh process yields a service whose answers are
byte-identical to the process that wrote it, and which keeps ingesting from
the recorded high-water mark.

Writes are atomic: the document lands in a temporary file in the target
directory, is fsynced, and is moved over the destination with
:func:`os.replace` — a crash mid-write leaves the previous snapshot intact.

The serialization code is imported by the two functions that build or read
a state, and it loads the sketch classes of the mode it meets: a flat
server never loads the hierarchy, and the shard router, which writes only
its manifest through :func:`write_snapshot`, loads no sketch code at all.
"""

from __future__ import annotations
import contextlib

import json
import os
import tempfile
from typing import Any, TYPE_CHECKING

from ..core.errors import ConfigurationError
from . import failpoints
from .config import ServiceConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import SketchService

__all__ = [
    "SNAPSHOT_KIND",
    "SNAPSHOT_VERSION",
    "snapshot_payload",
    "write_snapshot",
    "load_snapshot",
    "service_state_from_snapshot",
]

SNAPSHOT_KIND = "service_snapshot"
SNAPSHOT_VERSION = 1


def snapshot_payload(service: SketchService) -> dict[str, Any]:
    """Serialize the *applied* state of a service to a plain dictionary.

    Arrivals still sitting in the ingest queue are not part of the snapshot;
    the service drains the queue before its final shutdown snapshot, so a
    graceful stop loses nothing that was acknowledged.
    """
    from ..serialization import ecm_sketch_to_dict, hierarchical_to_dict
    from .core import SketchService  # local import: cycle with core

    assert isinstance(service, SketchService)
    mode = service.config.mode
    state_payload: dict[str, Any]
    if mode == "flat":
        state_payload = {"sketch": ecm_sketch_to_dict(service._require_flat())}
    elif mode == "hierarchical":
        state_payload = {"sketch": hierarchical_to_dict(service._require_hierarchical())}
    else:
        # Multisite: the periodic-aggregation coordinator.
        coordinator = service._require_multisite()
        state_payload = {
            "nodes": [ecm_sketch_to_dict(node.sketch) for node in coordinator.nodes],
            "records_processed": [node.records_processed for node in coordinator.nodes],
            "root": None if coordinator._root is None else ecm_sketch_to_dict(coordinator._root),
            "last_round_clock": coordinator._last_round_clock,
            "next_round_clock": coordinator._next_round_clock,
            "stats": {
                "arrivals": coordinator.stats.arrivals,
                "rounds": coordinator.stats.rounds,
                "transfer_bytes": coordinator.stats.transfer_bytes,
                "messages": coordinator.stats.messages,
                "round_clocks": list(coordinator.stats.round_clocks),
            },
        }
    return {
        "kind": SNAPSHOT_KIND,
        "version": SNAPSHOT_VERSION,
        "config": service.config.to_dict(),
        "records_ingested": service.records_ingested,
        "applied_clock": service.applied_clock,
        # Journal position and per-client applied seqs of this cut: restore
        # replays only journal records *after* this position, and retry
        # dedup picks up exactly where the snapshot left off.
        "journal_seq": service._applied_journal_seq,
        "applied_seqs": dict(service._applied_seqs),
        "state": state_payload,
    }


def write_snapshot(path: str | os.PathLike, payload: dict[str, Any]) -> str:
    """Atomically write a snapshot document; returns the final path."""
    destination = os.fspath(path)
    directory = os.path.dirname(destination) or "."
    os.makedirs(directory, exist_ok=True)
    descriptor, temporary = tempfile.mkstemp(
        prefix=os.path.basename(destination) + ".", suffix=".tmp", dir=directory
    )
    corrupt = failpoints.fire("snapshot.write")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            document = json.dumps(payload, separators=(",", ":"))
            if corrupt is not None and corrupt[0] == "corrupt":
                # Injected corruption: half the document reaches the file —
                # what a crash inside an unprotected (non-atomic) writer
                # would leave.  The atomic-replace path still runs, so this
                # exercises the *reader's* validation, not the temp cleanup.
                document = document[: len(document) // 2]
            handle.write(document)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, destination)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise
    return destination


def load_snapshot(path: str | os.PathLike) -> dict[str, Any]:
    """Read and validate a snapshot document."""
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigurationError("snapshot is not valid JSON: %s" % (exc,)) from exc
    if not isinstance(payload, dict) or payload.get("kind") != SNAPSHOT_KIND:
        raise ConfigurationError("not a service snapshot: missing kind %r" % (SNAPSHOT_KIND,))
    if payload.get("version") != SNAPSHOT_VERSION:
        raise ConfigurationError(
            "unsupported snapshot version %r (this build reads version %d)"
            % (payload.get("version"), SNAPSHOT_VERSION)
        )
    return payload


def service_state_from_snapshot(payload: dict[str, Any]) -> SketchService:
    """Rebuild a :class:`~repro.service.core.SketchService` from a snapshot."""
    from ..serialization import ecm_sketch_from_dict, hierarchical_from_dict
    from .core import SketchService

    config = ServiceConfig.from_dict(payload["config"])
    state_payload = payload["state"]
    state: Any
    if config.mode == "multisite":
        # Build a fresh coordinator through the same path a new service
        # would take, then overwrite every piece of mutable state with the
        # recorded one — sketches, per-site counters, round schedule, stats.
        from ..distributed.continuous import PeriodicAggregationCoordinator

        coordinator = SketchService._build_state(config)
        assert isinstance(coordinator, PeriodicAggregationCoordinator)
        node_payloads = state_payload["nodes"]
        if len(node_payloads) != len(coordinator.nodes):
            raise ConfigurationError(
                "snapshot has %d site sketches but the configuration names %d sites"
                % (len(node_payloads), len(coordinator.nodes))
            )
        processed = state_payload.get("records_processed", [0] * len(node_payloads))
        for node, node_payload, count in zip(coordinator.nodes, node_payloads, processed, strict=False):
            node.sketch = ecm_sketch_from_dict(node_payload)
            node.records_processed = int(count)
        root_payload = state_payload.get("root")
        coordinator._root = (
            None
            if root_payload is None
            else ecm_sketch_from_dict(root_payload)
        )
        coordinator._last_round_clock = state_payload.get("last_round_clock")
        coordinator._next_round_clock = state_payload.get("next_round_clock")
        recorded = state_payload.get("stats", {})
        coordinator.stats.arrivals = int(recorded.get("arrivals", 0))
        coordinator.stats.rounds = int(recorded.get("rounds", 0))
        coordinator.stats.transfer_bytes = int(recorded.get("transfer_bytes", 0))
        coordinator.stats.messages = int(recorded.get("messages", 0))
        coordinator.stats.round_clocks = list(recorded.get("round_clocks", []))
        state = coordinator
    elif config.mode == "hierarchical":
        state = hierarchical_from_dict(state_payload["sketch"])
    else:
        state = ecm_sketch_from_dict(state_payload["sketch"])
    applied_seqs = {
        str(client): int(seq)
        for client, seq in dict(payload.get("applied_seqs", {})).items()
    }
    return SketchService(
        config,
        state=state,
        records_ingested=int(payload["records_ingested"]),
        applied_clock=payload.get("applied_clock"),
        applied_seqs=applied_seqs,
        journal_seq=int(payload.get("journal_seq", 0)),
    )
