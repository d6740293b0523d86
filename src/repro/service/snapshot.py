"""Atomic snapshot/restore of the whole service state.

A snapshot is one JSON document built on the existing serialization wire
format (:mod:`repro.serialization`): the service configuration, the ingest
watermarks, and the mode-specific sketch state — the flat sketch, the
hierarchical stack, or every site sketch plus the coordinator's round state.
Restoring a snapshot into a fresh process yields a service whose answers are
byte-identical to the process that wrote it, and which keeps ingesting from
the recorded high-water mark.

Snapshots stream in both directions and hold about one counter of text at a
time; the bytes are those of ``json.dumps`` over the ``*_to_dict`` form of
the same state.

* **Write.**  :func:`snapshot_payload` takes the consistent cut: given a
  :class:`SnapshotPipe`, it encodes the whole document in one go, a counter
  per piece (:func:`~repro.serialization.to_json_pieces`), and puts each
  piece on the pipe as soon as it is made.  :func:`write_snapshot`, in a
  worker thread, takes the pieces off and writes them to a temporary file
  while the encode goes on.  The pipe is bounded: when the writer falls
  more than :data:`_PIPE_LIMIT` characters behind, the encoder waits for
  it, so a lagging writer never lets the document pile up in memory.  If
  the writer fails, the encoder stops at its next counter; if the encoder
  fails, the writer drops its temporary file.  Without a pipe,
  :func:`snapshot_payload` returns the envelope with each sketch still to
  be encoded, which :func:`write_snapshot` encodes as it writes.
* **Read.**  :func:`read_snapshot` walks the file with a
  :class:`~repro.jsonstream.JSONStream` and rebuilds each sketch counter by
  counter (:func:`~repro.serialization.read_ecm_sketch`), through the same
  validation and errors as the ``*_from_dict`` functions.
  :func:`load_snapshot` still returns the whole document as a dictionary,
  for inspection.

Writes are atomic and durable: the document lands in a temporary file in
the target directory, is fsynced, is moved over the destination with
:func:`os.replace`, and the directory is fsynced so the rename itself
survives power loss — a crash mid-write leaves the previous snapshot
intact, and the journal rotation a caller runs after a returned write cannot
reach the disk ahead of the snapshot it relies on.

The serialization code is imported by the functions that build or read a
state, and it loads the sketch classes of the mode it meets: a flat server
never loads the hierarchy, and the shard router, which writes only its
manifest through :func:`write_snapshot`, loads no sketch code at all.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
from collections.abc import Callable, Iterable, Iterator
from typing import Any, TYPE_CHECKING

from ..core.errors import ConfigurationError
from ..jsonstream import JSONStream
from . import failpoints
from .config import ServiceConfig
from .journal import fsync_directory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import SketchService

__all__ = [
    "SNAPSHOT_KIND",
    "SNAPSHOT_VERSION",
    "SnapshotPipe",
    "snapshot_payload",
    "write_snapshot",
    "read_snapshot",
    "load_snapshot",
    "document_kind",
    "service_state_from_snapshot",
]

SNAPSHOT_KIND = "service_snapshot"
SNAPSHOT_VERSION = 1

#: Characters gathered into one ``os.write`` when the writer encodes itself.
_BATCH = 1 << 16

#: Characters a :class:`SnapshotPipe` holds before its encoder waits: a few
#: counters' pieces (a flat sketch at epsilon 0.05 writes ~3 KB a counter),
#: so the writer still takes runs of several pieces at a time.
_PIPE_LIMIT = 1 << 14


class _Sketch:
    """A live sketch in a snapshot envelope, in place of its payload.

    :func:`snapshot_payload` puts it there to be encoded a counter at a
    time when written; :func:`read_snapshot` puts the sketch it rebuilt
    while reading.
    """

    __slots__ = ("sketch",)

    def __init__(self, sketch: Any) -> None:
        self.sketch = sketch


def _holds_text(value: Any) -> bool:
    if isinstance(value, _Sketch):
        return True
    if isinstance(value, dict):
        return any(_holds_text(item) for item in value.values())
    if isinstance(value, list):
        return any(_holds_text(item) for item in value)
    return False


def _json_chunks(value: Any) -> Iterator[str]:
    """``json.dumps(value, separators=(",", ":"))`` in order, as chunks.

    Containers holding sketches (whose keys are strings, like every
    envelope :func:`snapshot_payload` builds) are walked and each sketch is
    encoded in its place; everything else is encoded by ``json.dumps`` whole.
    """
    if isinstance(value, _Sketch):
        from ..serialization import to_json_pieces

        yield from to_json_pieces(value.sketch)
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


class _EncoderFailed(Exception):
    """Ends the writer of a streamed snapshot whose encoder failed."""


_END = object()


class SnapshotPipe:
    """The pieces of one document, on their way from the encoder to the writer.

    :func:`snapshot_payload` puts each piece as it is encoded;
    :func:`write_snapshot`, in another thread, takes every piece queued so
    far as one run and writes it.  The pipe is bounded: a piece and the run
    that holds it count against :data:`_PIPE_LIMIT` characters until the
    writer comes back for the next run, and the encoder waits for room
    while they fill it.  So a writer that falls behind slows the encoder
    down rather than letting the backlog grow.  Each side tells the other
    when it fails: the writer calls :meth:`stop`, and the encoder closes the
    pipe with its error.
    """

    def __init__(self) -> None:
        self._pieces: list[Any] = []
        #: Characters put and not yet written.
        self._pending = 0
        self._changed = threading.Condition(threading.Lock())
        #: Set by the writer when it gives up; the encoder then stops.
        self.stopped = False

    def put(self, piece: str) -> bool:
        """Hand one piece to the writer, once the pipe has room for it;
        ``False`` once the writer has stopped."""
        with self._changed:
            while self._pending >= _PIPE_LIMIT and not self.stopped:
                self._changed.wait()
            if self.stopped:
                return False
            self._pieces.append(piece)
            self._pending += len(piece)
            self._changed.notify_all()
        return True

    def close(self, error: BaseException | None = None) -> None:
        """End the document, or abort it because the encoder failed with ``error``."""
        with self._changed:
            self._pieces.append(_END if error is None else error)
            self._changed.notify_all()

    def stop(self) -> None:
        """Give up writing; a waiting or later :meth:`put` returns ``False``."""
        with self._changed:
            self.stopped = True
            self._changed.notify_all()

    def __iter__(self) -> Iterator[str]:
        """The document as runs: each run is every piece put while the
        previous run was being written, joined."""
        written = 0
        while True:
            with self._changed:
                self._pending -= written
                self._changed.notify_all()
                while not self._pieces:
                    self._changed.wait()
                pieces, self._pieces = self._pieces, []
            end = None if isinstance(pieces[-1], str) else pieces.pop()
            if isinstance(end, BaseException):
                raise _EncoderFailed("the snapshot encoder failed: %r" % (end,))
            run = "".join(pieces)
            del pieces  # the run alone stays while it is written
            yield run
            if end is not None:
                return
            written = len(run)


def snapshot_payload(service: SketchService, pipe: SnapshotPipe | None = None) -> dict[str, Any]:
    """Take the consistent cut of a service's *applied* state.

    Returns the snapshot envelope as a dictionary, whose fields other than
    the sketches (the flat sketch, the stack, each site sketch and the
    root) read as plain values.  With a ``pipe``, the whole document is
    encoded here, one counter per piece, and each piece is put on the pipe
    for :func:`write_snapshot` to write: the cut is then independent of the
    live state when this returns, and nothing here waits on the writer.  It
    stops early when the writer has stopped, and closes the pipe with its
    own error if it fails.  Without a pipe, the sketches are encoded only
    when :func:`write_snapshot` writes the returned envelope, so the state
    must not change until then.

    Arrivals still sitting in the ingest queue are not part of the snapshot;
    the service drains the queue before its final shutdown snapshot, so a
    graceful stop loses nothing that was acknowledged.
    """
    from .core import SketchService  # local import: cycle with core

    assert isinstance(service, SketchService)
    mode = service.config.mode
    state_payload: dict[str, Any]
    if mode == "flat":
        state_payload = {"sketch": _Sketch(service._require_flat())}
    elif mode == "hierarchical":
        state_payload = {"sketch": _Sketch(service._require_hierarchical())}
    else:
        # Multisite: the periodic-aggregation coordinator.
        coordinator = service._require_multisite()
        state_payload = {
            "nodes": [_Sketch(node.sketch) for node in coordinator.nodes],
            "records_processed": [node.records_processed for node in coordinator.nodes],
            "root": None if coordinator._root is None else _Sketch(coordinator._root),
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
    payload = {
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
    if pipe is not None:
        try:
            for piece in _json_chunks(payload):
                if not pipe.put(piece):
                    break
        except BaseException as exc:
            pipe.close(exc)
            raise
        pipe.close()
    return payload


def _batched(pieces: Iterable[str]) -> Iterator[str]:
    """``pieces`` joined into runs of at least :data:`_BATCH` characters."""
    batch: list[str] = []
    length = 0
    for piece in pieces:
        batch.append(piece)
        length += len(piece)
        if length >= _BATCH:
            yield "".join(batch)
            batch, length = [], 0
    if batch:
        yield "".join(batch)


def _write_all(descriptor: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(descriptor, view) :]


def write_snapshot(path: str | os.PathLike, document: dict[str, Any] | SnapshotPipe) -> str:
    """Atomically and durably write a snapshot document; returns the final path.

    ``document`` is a :class:`SnapshotPipe` that :func:`snapshot_payload`
    is filling (the writer then runs in another thread), a
    :func:`snapshot_payload` envelope, or any plain JSON-compatible
    dictionary (the shard router's manifest).  The document is written in
    batches as it is encoded; it is never joined into one string.  On any
    failure the temporary file is removed and the destination is left as
    it was.
    """
    destination = os.fspath(path)
    directory = os.path.dirname(destination) or "."
    pipe = document if isinstance(document, SnapshotPipe) else None
    temporary: str | None = None
    try:
        os.makedirs(directory, exist_ok=True)
        descriptor, temporary = tempfile.mkstemp(
            prefix=os.path.basename(destination) + ".", suffix=".tmp", dir=directory
        )
        try:
            batches: Iterable[str]
            if pipe is None:
                batches = _batched(_json_chunks(document))
            else:
                # Everything queued goes out in one write as soon as the
                # writer is back for more: each write releases the GIL, and
                # getting it back can take a switch interval of encoding.
                batches = pipe
            corrupt = failpoints.fire("snapshot.write")
            if corrupt is not None and corrupt[0] == "corrupt":
                # Injected corruption: half the document reaches the file —
                # what a crash inside an unprotected (non-atomic) writer
                # would leave.  The atomic-replace path still runs, so this
                # exercises the *reader's* validation, not the temp cleanup.
                text = "".join(batches)
                batches = [text[: len(text) // 2]]
            for batch in batches:
                _write_all(descriptor, batch.encode("utf-8"))
            os.fsync(descriptor)
        finally:
            os.close(descriptor)
        os.replace(temporary, destination)
    except BaseException:
        if pipe is not None:
            pipe.stop()
        if temporary is not None:
            with contextlib.suppress(OSError):
                os.unlink(temporary)
        raise
    # The rename is an entry of the directory: until the directory is
    # fsynced, power loss can undo it even though the file's bytes are on
    # disk, while the journal rotation the caller runs next deletes epochs
    # that only this snapshot covers.
    fsync_directory(directory)
    return destination


def _check_envelope(payload: Any) -> None:
    if not isinstance(payload, dict) or payload.get("kind") != SNAPSHOT_KIND:
        raise ConfigurationError("not a service snapshot: missing kind %r" % (SNAPSHOT_KIND,))
    if payload.get("version") != SNAPSHOT_VERSION:
        raise ConfigurationError(
            "unsupported snapshot version %r (this build reads version %d)"
            % (payload.get("version"), SNAPSHOT_VERSION)
        )


def _invalid_json(exc: json.JSONDecodeError) -> ConfigurationError:
    return ConfigurationError("snapshot is not valid JSON: %s" % (exc,))


def load_snapshot(path: str | os.PathLike) -> dict[str, Any]:
    """Read and validate a whole snapshot document, for inspection.

    Restoring a service does not go through here: :func:`read_snapshot`
    rebuilds the sketches while it reads.
    """
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise _invalid_json(exc) from exc
    _check_envelope(payload)
    return payload


def _read_state(stream: JSONStream, mode: str) -> Any:
    """The ``state`` object at the cursor, each sketch rebuilt as it is read."""
    from ..serialization import read_ecm_sketch, read_hierarchical

    if stream.peek() != "{":
        return stream.value()
    state: dict[str, Any] = {}
    for key in stream.keys():
        if key == "sketch" and mode != "multisite":
            reader = read_hierarchical if mode == "hierarchical" else read_ecm_sketch
            state[key] = _Sketch(reader(stream))
        elif key == "nodes" and mode == "multisite" and stream.peek() == "[":
            state[key] = [_Sketch(read_ecm_sketch(stream)) for _ in stream.items()]
        elif key == "root" and mode == "multisite" and stream.peek() == "{":
            state[key] = _Sketch(read_ecm_sketch(stream))
        else:
            state[key] = stream.value()
    return state


def read_snapshot(path: str | os.PathLike) -> SketchService:
    """Restore a service from a snapshot file, reading it one counter at a time.

    The result and the errors are those of :func:`service_state_from_snapshot`
    over :func:`load_snapshot`; the document is never held whole.  The
    sketches are streamed when ``kind``, ``version`` and ``config`` come
    before ``state``, as :func:`snapshot_payload` writes them; a document
    in another key order is read into memory first.
    """
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        stream = JSONStream(handle)
        try:
            if stream.peek() != "{":
                payload = stream.value()
            else:
                payload = {}
                for key in stream.keys():
                    if key == "state" and {"kind", "version", "config"} <= payload.keys():
                        _check_envelope(payload)
                        mode = ServiceConfig.from_dict(payload["config"]).mode
                        payload[key] = _read_state(stream, mode)
                    else:
                        payload[key] = stream.value()
            stream.end()
        except json.JSONDecodeError as exc:
            raise _invalid_json(exc) from exc
    _check_envelope(payload)
    return service_state_from_snapshot(payload)


def document_kind(path: str | os.PathLike) -> Any:
    """The ``kind`` field of a JSON document, read from the head of the file.

    ``None`` when the document is not an object or has no ``kind``.  Only
    the fields before ``kind`` are decoded (none, in the files this package
    writes), so probing a large snapshot costs one read chunk.
    """
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        stream = JSONStream(handle)
        if stream.peek() != "{":
            return None
        for key in stream.keys():
            value = stream.value()
            if key == "kind":
                return value
    return None


def _rebuild(value: Any, from_dict: Callable[[Any], Any]) -> Any:
    return value.sketch if isinstance(value, _Sketch) else from_dict(value)


def service_state_from_snapshot(payload: dict[str, Any]) -> SketchService:
    """Rebuild a :class:`~repro.service.core.SketchService` from a snapshot.

    ``payload`` is a :func:`load_snapshot` document, or the one
    :func:`read_snapshot` builds with its sketches already rebuilt.
    """
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
            node.sketch = _rebuild(node_payload, ecm_sketch_from_dict)
            node.records_processed = int(count)
        root_payload = state_payload.get("root")
        coordinator._root = (
            None if root_payload is None else _rebuild(root_payload, ecm_sketch_from_dict)
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
        state = _rebuild(state_payload["sketch"], hierarchical_from_dict)
    else:
        state = _rebuild(state_payload["sketch"], ecm_sketch_from_dict)
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
