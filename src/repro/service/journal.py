"""Write-ahead ingest journal for the serving tier.

Every validated ingest chunk is appended to an NDJSON journal *before* the
server acks it, so a crashed worker can be rebuilt as *snapshot + journal
tail* with no acked record lost.  The journal is epoch-aligned with the
snapshot cycle: each snapshot rotates the journal to a fresh
``wal.<epoch>.ndjson`` file, and recovery replays only the epochs at or
after the restored snapshot's journal position.

File format (one JSON object per line)::

    {"c": <crc32 of the compact record JSON>, "r": {"kind": "header", ...}}
    {"c": ..., "r": {"kind": "ingest", "jseq": 1, "site": 0, "keys": [...],
                     "clocks": [...], "values": null,
                     "client": "<uuid>", "seq": 7}}

* ``jseq`` is the journal-global sequence number, strictly increasing
  across epochs; the snapshot stores the last *applied* ``jseq`` so replay
  can skip records the snapshot already contains.
* The CRC covers the compact (``separators=(",", ":")``, ``sort_keys``)
  JSON encoding of the ``r`` payload, so torn or bit-flipped lines are
  detected without trusting line framing alone.
* A torn tail (partial last line, bad CRC, or a ``jseq`` regression) is
  *truncated*, never fatal: everything after the first bad record is
  discarded — by the write-ahead contract those records were never acked,
  or were acked and fsynced earlier in an intact prefix.

Durability posture: appends are flushed to the OS (``file.flush``) on every
record, which makes them SIGKILL-durable — the crash mode the supervisor
heals — but not power-loss-durable.  ``fsync_each=True`` upgrades to a
per-append ``os.fsync`` for callers that want the stronger contract and can
afford the throughput cost; it also fsyncs the journal *directory* whenever
an epoch file is created, so the new file's directory entry survives power
loss too.  Rotation always fsyncs before switching files, and it deletes
covered epochs only after :func:`~repro.service.snapshot.write_snapshot`
has fsynced the snapshot *and* its directory: power loss cannot keep the
old snapshot yet lose epochs that only the new one covers.

All methods do blocking file I/O and are meant to be called from the
service's single-thread journal executor, never directly on the event loop
(the same escape hatch the tenant catalog uses).
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path
from typing import Any

from . import failpoints

__all__ = ["IngestJournal", "JournalRecord", "fsync_directory", "journal_dir_for_shard"]

_FILE_PATTERN = re.compile(r"^wal\.(\d+)\.ndjson$")

#: Journal file format version (bump on incompatible record changes).
JOURNAL_VERSION = 1


def fsync_directory(directory: str | os.PathLike) -> None:
    """Flush a directory's entries: a file created or renamed in it then
    survives power loss (the file's own fsync covers only its bytes)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def journal_dir_for_shard(base: str, shard: int) -> str:
    """Per-shard journal directory under a tier-level base directory."""
    return os.path.join(base, "shard%d" % (shard,))


class JournalRecord:
    """One recovered ingest record, decoded and CRC-verified."""

    __slots__ = ("jseq", "site", "keys", "clocks", "values", "client_id", "seq")

    def __init__(self, payload: dict[str, Any]) -> None:
        self.jseq = int(payload["jseq"])
        self.site = int(payload["site"])
        self.keys: list[Any] = payload["keys"]
        self.clocks: list[int] = payload["clocks"]
        self.values: list[float] | None = payload["values"]
        self.client_id: str | None = payload.get("client")
        self.seq: int | None = payload.get("seq")


def _encode(payload: dict[str, Any]) -> bytes:
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    crc = zlib.crc32(body.encode("utf-8"))
    return ('{"c":%d,"r":%s}\n' % (crc, body)).encode("utf-8")


def _decode(line: bytes) -> dict[str, Any] | None:
    """Decode one journal line; ``None`` means torn/corrupt."""
    try:
        wrapper = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(wrapper, dict) or "c" not in wrapper or "r" not in wrapper:
        return None
    payload = wrapper["r"]
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    if zlib.crc32(body.encode("utf-8")) != wrapper["c"]:
        return None
    if not isinstance(payload, dict):
        return None
    return payload


class IngestJournal:
    """Append-only, epoch-rotated NDJSON write-ahead log for one service."""

    def __init__(self, directory: str | Path, *, fsync_each: bool = False) -> None:
        self.directory = Path(directory)
        self.fsync_each = fsync_each
        self.epoch = 0
        self.next_jseq = 1
        self.records_appended = 0
        self.records_replayed = 0
        self.truncations = 0
        self._file: Any = None
        # Highest jseq each closed epoch holds (populated by recover() and
        # at rotation): the deletion fence — an epoch may only be unlinked
        # once a snapshot's applied position has passed its tail, or a
        # journaled-but-still-queued record would lose its epoch file.
        self._epoch_tails: dict[int, int] = {}

    # -- recovery ---------------------------------------------------------

    def _epoch_files(self) -> list[tuple[int, Path]]:
        if not self.directory.is_dir():
            return []
        found = []
        for entry in self.directory.iterdir():
            match = _FILE_PATTERN.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
        found.sort()
        return found

    def recover(self, after_jseq: int = 0) -> list[JournalRecord]:
        """Replay intact records with ``jseq > after_jseq``, healing damage.

        Walks every epoch file in order, CRC-checking each line and
        enforcing strictly increasing ``jseq``.  The first bad record
        truncates its file in place and deletes all later epochs (they
        were written after the corruption point and cannot be trusted to
        be contiguous).  After recovery, ``epoch``/``next_jseq`` point past
        the last intact record, so the next append continues the sequence.
        """
        records: list[JournalRecord] = []
        last_jseq = 0
        truncated = False
        for epoch, path in self._epoch_files():
            if truncated:
                path.unlink()
                continue
            self.epoch = max(self.epoch, epoch)
            offset = 0
            with open(path, "rb") as handle:
                for line in handle:
                    payload = _decode(line) if line.endswith(b"\n") else None
                    if payload is None:
                        truncated = True
                        break
                    kind = payload.get("kind")
                    if kind == "header":
                        offset += len(line)
                        continue
                    if kind != "ingest":
                        truncated = True
                        break
                    record = JournalRecord(payload)
                    if record.jseq <= last_jseq:
                        truncated = True
                        break
                    offset += len(line)
                    last_jseq = record.jseq
                    if record.jseq > after_jseq:
                        self.records_replayed += 1
                        records.append(record)
            self._epoch_tails[epoch] = last_jseq
            if truncated:
                # Truncate in place (to zero for whole-file damage — the
                # empty file keeps this epoch number from being reused).
                self.truncations += 1
                with open(path, "r+b") as handle:
                    handle.truncate(offset)
                    handle.flush()
                    os.fsync(handle.fileno())
        self.next_jseq = max(self.next_jseq, last_jseq + 1)
        return records

    # -- appending --------------------------------------------------------

    def _path_for(self, epoch: int) -> Path:
        return self.directory / ("wal.%d.ndjson" % (epoch,))

    def open_for_append(self) -> None:
        """Open (creating if needed) the current epoch file for appends."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path_for(self.epoch)
        fresh = not path.exists() or path.stat().st_size == 0
        self._file = open(path, "ab")
        if fresh:
            self._write_header()
            if self.fsync_each:
                # Per-record fsync promises power-loss durability, which the
                # file's own fsync alone cannot deliver for a *new* file: the
                # directory entry is metadata of the directory, so it must be
                # fsynced too or the freshly created epoch can vanish whole.
                os.fsync(self._file.fileno())
                fsync_directory(self.directory)

    def _write_header(self) -> None:
        header = {
            "kind": "header",
            "version": JOURNAL_VERSION,
            "epoch": self.epoch,
        }
        self._file.write(_encode(header))
        self._file.flush()

    def append(
        self,
        site: int,
        keys: list[Any],
        clocks: list[int],
        values: list[float] | None,
        client_id: str | None,
        seq: int | None,
    ) -> int:
        """Append one validated ingest chunk; returns its ``jseq``.

        Must complete before the chunk is acked — that ordering is the
        entire write-ahead contract.
        """
        if self._file is None:
            raise RuntimeError("journal is not open for append")
        jseq = self.next_jseq
        payload: dict[str, Any] = {
            "kind": "ingest",
            "jseq": jseq,
            "site": site,
            "keys": keys,
            "clocks": clocks,
            "values": values,
        }
        if client_id is not None:
            payload["client"] = client_id
            payload["seq"] = seq
        encoded = _encode(payload)
        torn = failpoints.fire("journal.append")
        if torn is not None and torn[0] == "torn":
            # Tear the write mid-record: half the bytes reach the file, the
            # trailing newline never does — exactly what a crash mid-append
            # leaves behind.
            self._file.write(encoded[: max(1, len(encoded) // 2)])
            self._file.flush()
            os.fsync(self._file.fileno())
            raise OSError("failpoint journal.append: torn write injected")
        self._file.write(encoded)
        self._file.flush()
        if self.fsync_each:
            os.fsync(self._file.fileno())
        self.next_jseq = jseq + 1
        self.records_appended += 1
        return jseq

    # -- rotation ---------------------------------------------------------

    def rotate(self, applied_jseq: int | None = None) -> None:
        """Start a new epoch file; delete epochs the snapshot has covered.

        Called right after a snapshot lands.  ``applied_jseq`` is the
        journal position that snapshot captured: an epoch is deleted only
        when it is older than the previous one (the previous epoch is kept
        as cheap insurance for a crash between the snapshot write and this
        rotation) *and* its last record is at or below ``applied_jseq``.
        The second fence matters under backpressure: a chunk journaled —
        and acked — epochs ago can still be sitting queued-unapplied, in
        which case its ``jseq`` is past every snapshot taken so far and
        its epoch file must survive until a snapshot finally covers it.
        ``applied_jseq=None`` (position unknown) deletes nothing.
        """
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None
        self._epoch_tails[self.epoch] = self.next_jseq - 1
        self.epoch += 1
        for epoch, path in self._epoch_files():
            if epoch >= self.epoch - 1:
                continue
            tail = self._epoch_tails.get(epoch)
            if applied_jseq is None or tail is None or tail > applied_jseq:
                continue
            path.unlink()
            self._epoch_tails.pop(epoch, None)
        self.open_for_append()

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    def stats(self) -> dict[str, Any]:
        return {
            "epoch": self.epoch,
            "next_jseq": self.next_jseq,
            "records_appended": self.records_appended,
            "records_replayed": self.records_replayed,
            "truncations": self.truncations,
            "fsync_each": self.fsync_each,
        }
