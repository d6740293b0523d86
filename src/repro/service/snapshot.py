"""Atomic snapshot/restore of the whole service state.

A snapshot is one JSON document built on the existing serialization wire
format (:mod:`repro.serialization`): the service configuration, the ingest
watermarks, and the mode-specific sketch state — the flat sketch, the
hierarchical stack, or every site sketch plus the coordinator's round state.
Restoring a snapshot into a fresh process yields a service whose answers are
byte-identical to the process that wrote it, and which keeps ingesting from
the recorded high-water mark.

Snapshots stream.  :func:`snapshot_payload` takes the consistent cut: a
small envelope dictionary whose sketches are already JSON text, encoded one
counter at a time (:func:`~repro.serialization.to_json_pieces`), so the
state never exists as a graph of per-bucket lists.  :func:`write_snapshot`
writes the envelope and those pieces to the file in order and never joins
the document into one string; the bytes are those of ``json.dumps`` over
the ``*_to_dict`` form of the same state.

Writes are atomic and durable: the document lands in a temporary file in
the target directory, is fsynced, is moved over the destination with
:func:`os.replace`, and the directory is fsynced so the rename itself
survives power loss — a crash mid-write leaves the previous snapshot
intact, and the journal rotation a caller runs after a returned write cannot
reach the disk ahead of the snapshot it relies on.

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
from collections.abc import Iterable, Iterator
from typing import Any, TYPE_CHECKING

from ..core.errors import ConfigurationError
from . import failpoints
from .config import ServiceConfig
from .journal import fsync_directory

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


class _JSONText:
    """A value already encoded as JSON, kept as the pieces it was encoded in."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list[str]) -> None:
        self.pieces = pieces


def _holds_text(value: Any) -> bool:
    if isinstance(value, _JSONText):
        return True
    if isinstance(value, dict):
        return any(_holds_text(item) for item in value.values())
    if isinstance(value, list):
        return any(_holds_text(item) for item in value)
    return False


def _json_chunks(value: Any) -> Iterator[str]:
    """``json.dumps(value, separators=(",", ":"))`` in order, as chunks.

    Containers holding pre-encoded text (whose keys are strings, like every
    envelope :func:`snapshot_payload` builds) are walked and the text is
    spliced in; everything else is encoded by ``json.dumps`` whole.
    """
    if isinstance(value, _JSONText):
        yield from value.pieces
    elif isinstance(value, dict) and _holds_text(value):
        opening = "{"
        for key, item in value.items():
            yield opening + json.dumps(key) + ":"
            yield from _json_chunks(item)
            opening = ","
        yield "}"
    elif isinstance(value, list) and _holds_text(value):
        opening = "["
        for item in value:
            yield opening
            yield from _json_chunks(item)
            opening = ","
        yield "]"
    else:
        yield json.dumps(value, separators=(",", ":"))


def snapshot_payload(service: SketchService) -> dict[str, Any]:
    """Take the consistent cut of a service's *applied* state.

    Returns the snapshot envelope as a dictionary.  Every ECM-sketch in it
    (the flat sketch, the stack, each site sketch and the root) is already
    JSON text, encoded here one counter at a time, so the cut no longer
    depends on the live state; those values are for :func:`write_snapshot`
    to write out, while the envelope's other fields read as plain values.

    Arrivals still sitting in the ingest queue are not part of the snapshot;
    the service drains the queue before its final shutdown snapshot, so a
    graceful stop loses nothing that was acknowledged.
    """
    from ..serialization import to_json_pieces
    from .core import SketchService  # local import: cycle with core

    def encoded(sketch: Any) -> _JSONText:
        return _JSONText(to_json_pieces(sketch))

    assert isinstance(service, SketchService)
    mode = service.config.mode
    state_payload: dict[str, Any]
    if mode == "flat":
        state_payload = {"sketch": encoded(service._require_flat())}
    elif mode == "hierarchical":
        state_payload = {"sketch": encoded(service._require_hierarchical())}
    else:
        # Multisite: the periodic-aggregation coordinator.
        coordinator = service._require_multisite()
        state_payload = {
            "nodes": [encoded(node.sketch) for node in coordinator.nodes],
            "records_processed": [node.records_processed for node in coordinator.nodes],
            "root": None if coordinator._root is None else encoded(coordinator._root),
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
    """Atomically and durably write a snapshot document; returns the final path.

    ``payload`` is a :func:`snapshot_payload` cut or any plain
    JSON-compatible dictionary (the shard router's manifest).  The document
    is written piece by piece; it is never joined into one string.
    """
    destination = os.fspath(path)
    directory = os.path.dirname(destination) or "."
    os.makedirs(directory, exist_ok=True)
    descriptor, temporary = tempfile.mkstemp(
        prefix=os.path.basename(destination) + ".", suffix=".tmp", dir=directory
    )
    corrupt = failpoints.fire("snapshot.write")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            chunks: Iterable[str] = _json_chunks(payload)
            if corrupt is not None and corrupt[0] == "corrupt":
                # Injected corruption: half the document reaches the file —
                # what a crash inside an unprotected (non-atomic) writer
                # would leave.  The atomic-replace path still runs, so this
                # exercises the *reader's* validation, not the temp cleanup.
                document = "".join(chunks)
                chunks = [document[: len(document) // 2]]
            handle.writelines(chunks)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, destination)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise
    # The rename is an entry of the directory: until the directory is
    # fsynced, power loss can undo it even though the file's bytes are on
    # disk, while the journal rotation the caller runs next deletes epochs
    # that only this snapshot covers.
    fsync_directory(directory)
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
