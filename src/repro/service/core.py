"""The live sketch service core: one sketch, one ingest queue, many queries.

:class:`SketchService` owns the live sketch state of one serving process and
everything that mutates it:

* **Ingest** goes through a bounded :class:`asyncio.Queue` of column chunks.
  A single consumer task coalesces queued chunks into micro-batches of at
  most ``batch_size`` arrivals and applies them with the batched fast path
  (``add_many`` / the coordinator's batched observe), yielding to the event
  loop between batches.  A full queue suspends producers — that is the
  backpressure path, and the TCP server propagates it to the socket by simply
  not reading the next request line until ``ingest`` returns.
* **Queries** are answered synchronously from the live state.  The event
  loop is single-threaded, so a query never observes a half-applied batch:
  it runs either before or after an ``add_many`` call, both of which are
  consistent sketch states.  Answers therefore trail acknowledged ingest by
  at most the queue content (use ``drain`` as a read-your-writes barrier).
* **Background tasks** run the periodic ``expire`` sweep (so quiet cells
  shed out-of-window state without waiting for their next arrival) and
  periodic snapshots.  In multisite mode, aggregation rounds fire inside the
  ingest path itself, at exactly the stream clocks where
  :class:`~repro.distributed.continuous.PeriodicAggregationCoordinator`
  would fire them.

Ordering contract: arrival clocks must be globally non-decreasing across all
producers (the sliding-window structures require in-order streams).  The
service validates each chunk against its high-water mark *before* enqueueing
and rejects violations at acknowledgement time, so the apply path never
fails mid-batch.
"""

from __future__ import annotations
import contextlib

import asyncio
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from collections.abc import Hashable, Sequence
from typing import TYPE_CHECKING, Any, cast

import numpy as np

from ..core.config import ECMConfig
from ..core.ecm_sketch import ECMSketch
from ..core.errors import EmptyStructureError
from ..streams.stream import StreamRecord
from .config import ServiceConfig
from .errors import (
    ClockRegressionError,
    IngestRejectedError,
    InvalidParameterError,
    ModeMismatchError,
    ServiceError,
    ServiceStoppedError,
)
from .journal import IngestJournal, JournalRecord
from .ops import query_handler

if TYPE_CHECKING:
    # Imported where a state of their mode is built, so a flat server never
    # loads the hierarchy or the distributed package.
    from ..distributed.continuous import PeriodicAggregationCoordinator
    from ..queries.hierarchical import HierarchicalECMSketch

    ServiceState = ECMSketch | HierarchicalECMSketch | PeriodicAggregationCoordinator

__all__ = [
    "ServiceError",
    "IngestRejectedError",
    "ServiceStoppedError",
    "SketchService",
    "validate_clock_column",
    "validate_values_column",
    "validate_keys_for_mode",
]


#: Chunk size from which clock validation switches to the vectorized NumPy
#: pass; below it, per-element checks are cheaper (and give the precise
#: offending value in the error message).
_VECTOR_VALIDATE_CUTOFF = 64


def validate_clock_column(clocks: Sequence[float], previous: float | None) -> None:
    """Reject non-numeric, non-finite or out-of-order clocks, pre-ack.

    Finiteness matters for more than hygiene: every comparison against NaN is
    False, so one NaN clock would disable the ordering high-water mark for
    the rest of the stream.  Large chunks validate through one vectorized
    pass — this runs per arrival on the ack hot path.  Shared by the
    single-process service (global high-water mark) and the shard router
    (per-shard high-water marks).
    """
    if len(clocks) >= _VECTOR_VALIDATE_CUTOFF:
        array = np.asarray(clocks)
        if (
            array.ndim == 1
            and array.dtype != np.bool_
            and (np.issubdtype(array.dtype, np.floating)
                 or np.issubdtype(array.dtype, np.integer))
        ):
            if not np.isfinite(array).all():
                raise IngestRejectedError("clocks must be finite")
            if (np.diff(array) < 0).any() or (
                previous is not None and float(array[0]) < previous
            ):
                raise ClockRegressionError(
                    "out-of-order clocks (high-water mark %r); arrival clocks "
                    "must be non-decreasing" % (previous,)
                )
            return
        # Mixed/object dtype: fall through to the scalar walk, which names
        # the offending element.
    for clock in clocks:
        if not isinstance(clock, (int, float)) or isinstance(clock, bool):
            raise IngestRejectedError("clocks must be numbers, got %r" % (clock,))
        if not math.isfinite(clock):
            raise IngestRejectedError("clocks must be finite, got %r" % (clock,))
        if previous is not None and clock < previous:
            raise ClockRegressionError(
                "out-of-order clock %r (high-water mark %r); arrival clocks "
                "must be non-decreasing" % (clock, previous)
            )
        previous = clock


def validate_values_column(values: Sequence[int]) -> None:
    """Reject anything but non-negative integers in a values column."""
    for value in values:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise IngestRejectedError(
                "values must be non-negative integers, got %r" % (value,)
            )


def validate_keys_for_mode(keys: Sequence[Hashable], mode: str, universe_bits: int) -> None:
    """Reject keys the given service mode cannot ingest, pre-ack."""
    if mode == "hierarchical":
        universe = 1 << universe_bits
        for key in keys:
            if not isinstance(key, int) or isinstance(key, bool) or not (0 <= key < universe):
                raise IngestRejectedError(
                    "hierarchical keys must be integers in [0, %d), got %r" % (universe, key)
                )
    else:
        # Flat/multisite keys arrive as arbitrary JSON values; an unhashable
        # one (list, dict) would otherwise blow up inside add_many *after*
        # the chunk was acknowledged, killing the consumer task.  Validation
        # happens here, before the ack.
        for key in keys:
            try:
                # Hashability probe only — the salted value is discarded, so
                # process-randomized hashing cannot leak into sketch state.
                hash(key)  # reprolint: disable=RL001 -- probe, not partitioning
            except TypeError:
                raise IngestRejectedError(
                    "keys must be hashable scalars, got %s" % (type(key).__name__,)
                ) from None


@dataclass
class _IngestChunk:
    """One validated, not-yet-applied column chunk."""

    site: int
    keys: list[Hashable]
    clocks: list[float]
    values: list[int] | None
    # Retry identity of the producing client, when it sent one: the highest
    # applied seq per client rides in snapshots so a reconnect-and-resend
    # after recovery still dedups exactly-once.
    client_id: str | None = None
    seq: int | None = None
    # Position of this chunk in the write-ahead journal (None: not journaled).
    journal_seq: int | None = None

    def __len__(self) -> int:
        return len(self.keys)


class SketchService:
    """Concurrent ingest/query service over one live sketch state.

    Args:
        config: Full service parameterisation.
        state: Pre-built sketch state (used by snapshot restore); when
            ``None`` a fresh state is built from ``config``.
        records_ingested: Ingest counter carried over from a snapshot.
        applied_clock: Stream clock carried over from a snapshot.
        applied_seqs: Per-client highest *applied* ingest seq, carried over
            from a snapshot, so retry dedup survives a crash.
        journal_seq: Journal position of the snapshot this service was
            restored from; boot replay skips journal records at or below it.
    """

    def __init__(
        self,
        config: ServiceConfig,
        state: ServiceState | None = None,
        records_ingested: int = 0,
        applied_clock: float | None = None,
        applied_seqs: dict[str, int] | None = None,
        journal_seq: int = 0,
    ) -> None:
        self.config = config
        self.state: ServiceState = state if state is not None else self._build_state(config)
        self.records_ingested = records_ingested
        self.ingest_batches = 0
        self.ingest_apply_errors = 0
        self.background_errors = 0
        self.snapshots_written = 0
        self.duplicate_chunks = 0
        self.journal_errors = 0
        self.last_snapshot_path: str | None = None
        self._applied_clock: float | None = applied_clock
        self._submitted_clock: float | None = applied_clock
        self._pending_arrivals = 0
        self._started_monotonic = time.monotonic()
        self._snapshot_lock = asyncio.Lock()
        self._queue: asyncio.Queue[_IngestChunk] | None = None
        self._ingest_task: asyncio.Task[None] | None = None
        self._background_tasks: list[asyncio.Task[None]] = []
        self._stopping = False
        # Exactly-once dedup state.  `_applied_seqs` only advances when a
        # chunk is applied (it is what snapshots persist); `_acked_seqs`
        # advances at ack time and is what the ingest path checks, so a
        # retry of a still-queued chunk dedups too.
        self._applied_seqs: dict[str, int] = dict(applied_seqs or {})
        self._acked_seqs: dict[str, int] = dict(self._applied_seqs)
        self._applied_journal_seq = journal_seq
        self._journal: IngestJournal | None = None
        if config.journal_dir is not None:
            self._journal = IngestJournal(config.journal_dir, fsync_each=config.journal_fsync)
        # Single-thread executor: journal appends must hit the file in ack
        # order, and a one-worker pool is a FIFO queue (the same sanctioned
        # blocking-I/O escape the tenant catalog uses).
        self._journal_executor: ThreadPoolExecutor | None = None

    # -------------------------------------------------------------- building
    @staticmethod
    def _build_state(config: ServiceConfig) -> ServiceState:
        ecm_config = ECMConfig.for_point_queries(
            epsilon=config.epsilon,
            delta=config.delta,
            window=config.window,
            model=config.model,
            counter_type=config.counter_type,
            max_arrivals=config.max_arrivals,
            seed=config.seed,
        )
        if config.mode == "flat":
            return ECMSketch(ecm_config)
        if config.mode == "hierarchical":
            from ..queries.hierarchical import HierarchicalECMSketch

            return HierarchicalECMSketch(
                universe_bits=config.universe_bits,
                epsilon=config.epsilon,
                delta=config.delta,
                window=config.window,
                model=config.model,
                counter_type=config.counter_type,
                max_arrivals=config.max_arrivals,
                seed=config.seed,
            )
        from ..distributed.continuous import PeriodicAggregationCoordinator

        return PeriodicAggregationCoordinator(
            num_nodes=config.sites, config=ecm_config, period=config.period
        )

    @classmethod
    def from_snapshot(cls, path: str | os.PathLike) -> SketchService:
        """Rebuild a service from a snapshot written by :meth:`snapshot_now`."""
        from .snapshot import load_snapshot, service_state_from_snapshot

        payload = load_snapshot(path)
        return service_state_from_snapshot(payload)

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Create the ingest queue and spawn the consumer and background tasks."""
        if self._queue is not None:
            raise ServiceError("service already started")
        self._queue = asyncio.Queue(maxsize=self.config.queue_chunks)
        self._stopping = False
        if self._journal is not None:
            # Recover before accepting ingest: replay the journal tail the
            # restored snapshot does not contain, then continue appending
            # where the intact journal ends.
            self._journal_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="ingest-journal"
            )
            loop = asyncio.get_running_loop()
            records = await loop.run_in_executor(
                self._journal_executor, self._journal.recover, self._applied_journal_seq
            )
            self._replay_journal_records(records)
            await loop.run_in_executor(self._journal_executor, self._journal.open_for_append)
        self._ingest_task = asyncio.create_task(self._ingest_loop(), name="sketch-ingest")
        if self.config.expire_every is not None:
            self._background_tasks.append(
                asyncio.create_task(self._expire_loop(), name="sketch-expire")
            )
        if self.config.snapshot_every is not None:
            self._background_tasks.append(
                asyncio.create_task(self._snapshot_loop(), name="sketch-snapshot")
            )

    async def stop(self, drain: bool = True) -> str | None:
        """Stop the service; optionally drain the queue and snapshot first.

        Returns:
            The path of the final snapshot, when one was written.
        """
        self._stopping = True
        final_snapshot: str | None = None
        if drain and self._queue is not None:
            await self._queue.join()
        if self._ingest_task is not None:
            self._ingest_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._ingest_task
            self._ingest_task = None
        for task in self._background_tasks:
            task.cancel()
        for task in self._background_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception:
                # Already counted/reported by _background_failure (or the
                # task died before the guards existed); a stale background
                # error must not abort the shutdown path below — the final
                # drain snapshot still has to happen.
                pass
        self._background_tasks = []
        if drain and self.config.snapshot_path is not None:
            final_snapshot = self.snapshot_now()
        if self._journal is not None and self._journal_executor is not None:
            await asyncio.get_running_loop().run_in_executor(
                self._journal_executor, self._journal.close
            )
            self._journal_executor.shutdown(wait=True)
            self._journal_executor = None
        self._queue = None
        return final_snapshot

    async def __aenter__(self) -> SketchService:
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop(drain=True)

    # ---------------------------------------------------------------- ingest
    def _validate_chunk(
        self,
        keys: Sequence[Hashable],
        clocks: Sequence[float],
        values: Sequence[int] | None,
        site: int,
    ) -> _IngestChunk:
        if self._stopping or self._queue is None:
            raise ServiceStoppedError("service is not accepting ingest")
        n = len(keys)
        if n == 0:
            raise IngestRejectedError("empty ingest chunk")
        if len(clocks) != n:
            raise IngestRejectedError(
                "clocks length %d does not match keys length %d" % (len(clocks), n)
            )
        if values is not None and len(values) != n:
            raise IngestRejectedError(
                "values length %d does not match keys length %d" % (len(values), n)
            )
        self._validate_clocks(clocks)
        if values is not None:
            validate_values_column(values)
        mode = self.config.mode
        validate_keys_for_mode(keys, mode, self.config.universe_bits)
        if mode == "multisite" and (
            not isinstance(site, int) or not (0 <= site < self.config.sites)
        ):
            raise IngestRejectedError(
                "site must be an integer in [0, %d), got %r" % (self.config.sites, site)
            )
        # Clocks are passed through as-is: count-based windows carry integer
        # clocks, and coercing them to float would change the serialized
        # state relative to a serial reference run (1 vs 1.0 on the wire).
        return _IngestChunk(
            site=site,
            keys=list(keys),
            clocks=list(clocks),
            values=list(values) if values is not None else None,
        )

    def _validate_clocks(self, clocks: Sequence[float]) -> None:
        """Validate a clock column against the service's high-water mark."""
        validate_clock_column(clocks, self._submitted_clock)

    async def ingest(
        self,
        keys: Sequence[Hashable],
        clocks: Sequence[float],
        values: Sequence[int] | None = None,
        site: int = 0,
        client_id: str | None = None,
        seq: int | None = None,
    ) -> int:
        """Validate and enqueue one chunk of arrivals; returns the accepted count.

        The returned acknowledgement means *accepted and ordered*, not yet
        applied: queries reflect the chunk only after it leaves the queue
        (await :meth:`drain` for a barrier).  Without a journal, a crash
        before the next snapshot loses acked-unapplied chunks; with
        ``journal_dir`` set the chunk hits the write-ahead journal *before*
        this call returns, so the ack is crash-durable.  When the queue is
        full this call suspends until the consumer frees a slot —
        backpressure, not loss.

        ``(client_id, seq)`` is the optional retry identity: a chunk whose
        seq is at or below the client's acked high-water mark is re-acked
        without being re-applied, which is what makes reconnect-and-resend
        exactly-once.
        """
        if client_id is not None and seq is not None:
            acked = self._acked_seqs.get(client_id)
            if acked is not None and seq <= acked:
                # Duplicate of an already-acked chunk (client retried after a
                # lost response): idempotent re-ack, nothing applied.
                self.duplicate_chunks += 1
                return len(keys)
        chunk = self._validate_chunk(keys, clocks, values, site)
        chunk.client_id = client_id
        chunk.seq = seq
        assert self._queue is not None  # _validate_chunk guarantees started
        # Ordering-critical section: the mark advance must follow validation
        # with no await in between, or a concurrent producer could validate
        # against a stale mark and regress clocks after the ack.
        self._submitted_clock = chunk.clocks[-1]
        self._pending_arrivals += len(chunk)
        previous_ack: int | None = None
        if client_id is not None and seq is not None:
            # Claim the seq *before* the awaited journal append: a client
            # that reconnected and resent while this request is parked on
            # the journal executor must hit the dedup check above, or both
            # copies would be journaled and applied.  Rolled back below if
            # the append fails (so the seq is not marked acked-and-lost).
            previous_ack = self._acked_seqs.get(client_id)
            self._note_seq(self._acked_seqs, client_id, seq)
        if self._journal is not None and self._journal_executor is not None:
            # Journal-before-ack.  The single-worker executor is FIFO and
            # run_in_executor submits synchronously here (before this
            # coroutine yields), so journal order matches mark order — and
            # loop wakeups of these futures are FIFO too, so queue order
            # matches journal order.
            loop = asyncio.get_running_loop()
            try:
                chunk.journal_seq = await loop.run_in_executor(
                    self._journal_executor,
                    self._journal.append,
                    chunk.site,
                    chunk.keys,
                    chunk.clocks,
                    chunk.values,
                    client_id,
                    seq,
                )
            except Exception as exc:
                # Not acked; the chunk is dropped.  The submitted mark stays
                # advanced (another producer may have validated against it
                # already), so a retry of *this* clock range can be rejected
                # as a regression — disk-failure-class behaviour, surfaced
                # loudly rather than silently un-journaled.
                self._pending_arrivals -= len(chunk)
                if (
                    client_id is not None
                    and seq is not None
                    and self._acked_seqs.get(client_id) == seq
                ):
                    # Undo only *our* claim: a concurrent chunk from the
                    # same client may have advanced the mark past ours, and
                    # that chunk's ack must stand.
                    if previous_ack is None:
                        self._acked_seqs.pop(client_id, None)
                    else:
                        self._acked_seqs[client_id] = previous_ack
                self.journal_errors += 1
                raise ServiceError(
                    "write-ahead journal append failed: %s" % (exc,)
                ) from exc
        await self._queue.put(chunk)
        return len(chunk)

    def _note_seq(self, table: dict[str, int], client_id: str, seq: int) -> None:
        """Advance a client's seq high-water mark; LRU-evict beyond the cap."""
        previous = table.pop(client_id, None)
        table[client_id] = seq if previous is None or seq > previous else previous
        limit = self.config.dedup_clients
        while len(table) > limit:
            table.pop(next(iter(table)))

    def _replay_journal_records(self, records: list[JournalRecord]) -> None:
        """Apply recovered journal records (acked pre-crash, lost from state)."""
        for record in records:
            chunk = _IngestChunk(
                site=record.site,
                keys=record.keys,
                clocks=record.clocks,
                values=record.values,
                client_id=record.client_id,
                seq=record.seq,
                journal_seq=record.jseq,
            )
            self._pending_arrivals += len(chunk)
            self._apply_chunks([chunk])
            if record.client_id is not None and record.seq is not None:
                self._note_seq(self._acked_seqs, record.client_id, record.seq)
        if records:
            self._submitted_clock = self._applied_clock

    async def drain(self) -> None:
        """Resolve once every acknowledged arrival has been applied."""
        if self._queue is None:
            raise ServiceStoppedError("service is not started")
        await self._queue.join()

    async def _ingest_loop(self) -> None:
        assert self._queue is not None
        queue = self._queue
        batch_cap = self.config.batch_size
        while True:
            chunks = [await queue.get()]
            total = len(chunks[0])
            # Coalesce whatever else is already queued, up to the micro-batch
            # cap, so a burst of small client chunks still ingests through
            # few large add_many calls.
            while total < batch_cap:
                try:
                    chunk = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                chunks.append(chunk)
                total += len(chunk)
            # _apply_chunks decrements _pending_arrivals per applied group
            # and runs synchronously (no await), so no other coroutine can
            # touch the counter between this capture and the except below.
            pending_before = self._pending_arrivals
            try:
                self._apply_chunks(chunks)
            except Exception:
                # Validation runs before the ack, so an apply failure is a
                # bug — but one that must not kill the consumer: a dead
                # consumer would silently strand every later acknowledged
                # chunk and deadlock drain().  Drop the batch, count it,
                # keep consuming.  The absolute assignment (not -=) avoids
                # double-counting groups _apply_chunks already decremented
                # before it raised.
                self._pending_arrivals = pending_before - total
                self.ingest_apply_errors += 1
            finally:
                for _ in chunks:
                    queue.task_done()
            # Yield between micro-batches so queued queries interleave with
            # a sustained ingest flood instead of starving behind it.
            await asyncio.sleep(0)

    def _apply_chunks(self, chunks: list[_IngestChunk]) -> None:
        """Apply coalesced chunks in arrival order, grouped per site."""
        state = self.state
        multisite = self.config.mode == "multisite"
        batch_cap = self.config.batch_size
        index = 0
        while index < len(chunks):
            # Merge consecutive chunks from the same site into one call.
            head = chunks[index]
            site = head.site
            group_size = len(head)
            scan = index + 1
            while scan < len(chunks):
                candidate = chunks[scan]
                if (
                    candidate.site != site
                    or group_size + len(candidate) > batch_cap
                    or (head.values is None) != (candidate.values is None)
                ):
                    break
                group_size += len(candidate)
                scan += 1
            if scan == index + 1:
                # Steady-state common case (consumer keeping up, one chunk
                # per micro-batch): hand the chunk's own lists to add_many —
                # _validate_chunk already copied them, a second copy here
                # would just be hot-path waste.
                keys: list[Hashable] = head.keys
                clocks: list[float] = head.clocks
                values: list[int] | None = head.values
            else:
                keys = []
                clocks = []
                values = [] if head.values is not None else None
                for chunk in chunks[index:scan]:
                    keys.extend(chunk.keys)
                    clocks.extend(chunk.clocks)
                    if values is not None and chunk.values is not None:
                        values.extend(chunk.values)
            if not multisite:
                sketch = cast("ECMSketch | HierarchicalECMSketch", state)
                for start in range(0, len(keys), batch_cap):
                    stop = start + batch_cap
                    sketch.add_many(
                        keys[start:stop],
                        clocks[start:stop],
                        values[start:stop] if values is not None else None,
                    )
            else:
                records = [
                    StreamRecord(
                        timestamp=clocks[i],
                        key=keys[i],
                        node=site,
                        value=values[i] if values is not None else 1,
                    )
                    for i in range(len(keys))
                ]
                cast("PeriodicAggregationCoordinator", state).observe_batch(
                    records, batch_size=batch_cap
                )
            count = len(keys)
            weight = count if values is None else sum(values)
            self.records_ingested += weight
            self._pending_arrivals -= count
            self._applied_clock = clocks[-1]
            self.ingest_batches += 1
            # Applied-position bookkeeping rides the same synchronous apply
            # step, so any snapshot (a cut between micro-batches) carries a
            # journal position and dedup map consistent with its state.
            for chunk in chunks[index:scan]:
                if chunk.journal_seq is not None:
                    self._applied_journal_seq = chunk.journal_seq
                if chunk.client_id is not None and chunk.seq is not None:
                    self._note_seq(self._applied_seqs, chunk.client_id, chunk.seq)
            index = scan

    # ----------------------------------------------------- background sweeps
    def _background_failure(self, task_name: str, error: Exception) -> None:
        """Count and report a background-task failure without dying.

        A transient error (disk full during a snapshot, say) must not
        silently kill the loop — the service would keep serving while its
        durability quietly stopped.  The loop retries on its next period;
        the counter surfaces the problem in ``stats()``.
        """
        self.background_errors += 1
        print(
            "sketch-service: background %s failed (%s: %s); will retry"
            % (task_name, type(error).__name__, error),
            file=sys.stderr,
            flush=True,
        )

    async def _expire_loop(self) -> None:
        assert self.config.expire_every is not None
        while True:
            await asyncio.sleep(self.config.expire_every)
            try:
                self.expire_now()
            except Exception as exc:
                self._background_failure("expire sweep", exc)

    def expire_now(self) -> None:
        """Sweep out-of-window state from every served sketch, immediately."""
        clock = self._applied_clock
        if clock is None:
            return
        state = self.state
        if isinstance(state, ECMSketch):
            state.expire(clock)
        elif self.config.mode == "hierarchical":
            stack = self._require_hierarchical()
            for level in range(stack.universe_bits):
                stack.level_sketch(level).expire(clock)
        else:
            for node in self._require_multisite().nodes:
                node.sketch.expire(clock)

    async def _snapshot_loop(self) -> None:
        assert self.config.snapshot_every is not None
        while True:
            await asyncio.sleep(self.config.snapshot_every)
            try:
                await self.snapshot_async()
            except Exception as exc:
                self._background_failure("snapshot", exc)

    async def snapshot_async(self, path: str | None = None) -> str:
        """Snapshot without stalling the event loop for the disk write.

        The payload is built on the loop (that is what makes it a consistent
        cut between micro-batches), but the JSON encode + fsync + rename —
        tens of milliseconds even for modest states — run in the default
        executor so ingest and queries keep flowing.

        Args:
            path: Explicit destination; overrides ``config.snapshot_path``
                (the shard router drives per-shard snapshots through this).
        """
        from .snapshot import snapshot_payload, write_snapshot

        destination = path if path is not None else self.config.snapshot_path
        if destination is None:
            raise InvalidParameterError("no snapshot_path configured")
        # One snapshot at a time: with concurrent writers (the periodic loop
        # plus a protocol `snapshot` op), an older payload could finish its
        # os.replace *after* a newer one and silently roll the file back.
        async with self._snapshot_lock:
            payload = snapshot_payload(self)
            # Captured in the same no-await tick as the payload: the mark
            # may advance during the disk write below, but rotation must
            # fence epoch deletion on the position *this* snapshot covers.
            applied_jseq = self._applied_journal_seq
            loop = asyncio.get_running_loop()
            path_written = await loop.run_in_executor(
                None, write_snapshot, destination, payload
            )
            if self._journal is not None and self._journal_executor is not None:
                # The snapshot carries the applied journal position, so the
                # journal can rotate: recovery = this snapshot + the epochs
                # holding records past that position.  Rotation keeps the
                # previous epoch as insurance against a crash between these
                # two steps, and keeps any epoch whose tail the snapshot
                # has not covered (journaled-but-queued records).
                await loop.run_in_executor(
                    self._journal_executor, self._journal.rotate, applied_jseq
                )
        self.snapshots_written += 1
        self.last_snapshot_path = path_written
        return path_written

    def snapshot_now(self, path: str | None = None) -> str:
        """Write an atomic snapshot of the applied state; returns the path.

        Synchronous (blocks the caller, and the event loop when called from
        it) — the right tool at shutdown and in scripts; the periodic
        snapshot task and the ``snapshot`` protocol op use
        :meth:`snapshot_async` instead.
        """
        from .snapshot import snapshot_payload, write_snapshot

        destination = path if path is not None else self.config.snapshot_path
        if destination is None:
            raise InvalidParameterError("no snapshot_path configured")
        payload = snapshot_payload(self)
        applied_jseq = self._applied_journal_seq
        path_written = write_snapshot(destination, payload)
        if self._journal is not None:
            # Route the rotation through the journal executor when it is
            # live so it cannot interleave with an in-flight append.
            if self._journal_executor is not None:
                self._journal_executor.submit(self._journal.rotate, applied_jseq).result()
            else:
                self._journal.rotate(applied_jseq)
        self.snapshots_written += 1
        self.last_snapshot_path = path_written
        return path_written

    # ---------------------------------------------------------------- queries
    @property
    def applied_clock(self) -> float | None:
        """Stream clock of the most recent *applied* arrival."""
        return self._applied_clock

    def query(self, op: str, message: dict[str, Any]) -> Any:
        """Answer one query operation against the live state.

        Dispatches to ``_query_<op>`` through the op table
        (:func:`~repro.service.ops.query_handler`).

        Raises:
            ServiceError: Unknown or mode-incompatible operation, or missing
                parameters.
            EmptyStructureError: Multisite queries before the first round.
        """
        return query_handler(self, op, self.config.mode)(message)

    def _require_flat(self) -> ECMSketch:
        if not isinstance(self.state, ECMSketch):
            raise ModeMismatchError("operation requires mode=flat (running %s)" % self.config.mode)
        return self.state

    def _require_hierarchical(self) -> HierarchicalECMSketch:
        if self.config.mode != "hierarchical":
            raise ModeMismatchError(
                "operation requires mode=hierarchical (running %s)" % self.config.mode
            )
        return cast("HierarchicalECMSketch", self.state)

    def _require_multisite(self) -> PeriodicAggregationCoordinator:
        if self.config.mode != "multisite":
            raise ModeMismatchError(
                "operation requires mode=multisite (running %s)" % self.config.mode
            )
        return cast("PeriodicAggregationCoordinator", self.state)

    def _query_point(self, message: dict[str, Any]) -> float:
        key = _require_param(message, "key")
        range_length = message.get("range")
        state = self.state
        if isinstance(state, ECMSketch):
            return float(state.point_query(key, range_length))
        if self.config.mode == "hierarchical":
            stack = self._require_hierarchical()
            return float(stack.point_query(_as_int_key(key), range_length))
        return float(self._require_multisite().query_frequency(key, range_length))

    def _query_range(self, message: dict[str, Any]) -> float:
        stack = self._require_hierarchical()
        lo = _as_int_key(_require_param(message, "lo"))
        hi = _as_int_key(_require_param(message, "hi"))
        return float(stack.range_query(lo, hi, message.get("range")))

    def _query_heavy_hitters(self, message: dict[str, Any]) -> list[tuple[int, float]]:
        stack = self._require_hierarchical()
        absolute = message.get("absolute")
        if absolute is None:
            phi = float(_require_param(message, "phi"))
            hitters = stack.heavy_hitters(phi, message.get("range"))
        else:
            # Absolute-threshold detection: used by the shard router, which
            # converts the relative phi into occurrences against the *global*
            # arrival total before fanning out (each shard only sees its own
            # slice of the stream, so a per-shard phi would be meaningless).
            hitters = stack.heavy_hitters(
                1.0, message.get("range"), absolute_threshold=float(absolute)
            )
        return sorted(hitters.items(), key=lambda item: (-item[1], item[0]))

    def _query_quantile(self, message: dict[str, Any]) -> int:
        stack = self._require_hierarchical()
        fraction = float(_require_param(message, "fraction"))
        return int(stack.quantile(fraction, message.get("range")))

    def _query_quantiles(self, message: dict[str, Any]) -> list[int]:
        stack = self._require_hierarchical()
        fractions = _require_param(message, "fractions")
        if not isinstance(fractions, (list, tuple)) or not fractions:
            raise InvalidParameterError("fractions must be a non-empty list")
        return [int(key) for key in stack.quantiles([float(f) for f in fractions],
                                                    message.get("range"))]

    def _query_self_join(self, message: dict[str, Any]) -> float:
        if self.config.mode == "multisite":
            return float(self._require_multisite().query_self_join(message.get("range")))
        return float(self._require_flat().self_join(message.get("range")))

    def _query_arrivals(self, message: dict[str, Any]) -> float:
        if self.config.mode == "hierarchical":
            return float(self._require_hierarchical().estimate_total(message.get("range")))
        sketch = self._require_flat()
        return float(sketch.estimate_arrivals(message.get("range")))

    def _query_staleness(self, message: dict[str, Any]) -> float:
        coordinator = self._require_multisite()
        now = message.get("now", self._applied_clock)
        if now is None:
            raise EmptyStructureError("no arrivals applied yet")
        return float(coordinator.staleness(float(now)))

    def _query_root_state(self, message: dict[str, Any]) -> dict[str, Any]:
        """Serialized root aggregate of the latest round (multisite only).

        The shard router merges these per-worker roots with
        :meth:`~repro.core.ecm_sketch.ECMSketch.aggregate` to answer
        cross-shard self-join queries (Theorem 4 order-preserving
        aggregation over the wire format).
        """
        from ..serialization import ecm_sketch_to_dict

        coordinator = self._require_multisite()
        return {
            "sketch": ecm_sketch_to_dict(coordinator.root_sketch()),
            "round_clock": coordinator.last_round_clock,
        }

    # ------------------------------------------------------------------ stats
    def info(self) -> dict[str, Any]:
        """Static service parameters (what a client needs to build load)."""
        from .protocol import PROTOCOL_VERSION

        info = self.config.describe()
        info["protocol_version"] = PROTOCOL_VERSION
        return info

    def stats(self) -> dict[str, Any]:
        """Live service counters."""
        memory: int
        synopsis: int
        if self.config.mode != "multisite":
            sketch = cast("ECMSketch | HierarchicalECMSketch", self.state)
            memory = sketch.memory_bytes()
            synopsis = sketch.synopsis_bytes()
        else:
            nodes = self._require_multisite().nodes
            memory = sum(node.sketch.memory_bytes() for node in nodes)
            synopsis = sum(node.sketch.synopsis_bytes() for node in nodes)
        stats: dict[str, Any] = {
            "mode": self.config.mode,
            "backend": self.config.resolved_backend,
            "records_ingested": self.records_ingested,
            "ingest_batches": self.ingest_batches,
            "ingest_apply_errors": self.ingest_apply_errors,
            "background_errors": self.background_errors,
            "pending_arrivals": self._pending_arrivals,
            "pending_chunks": self._queue.qsize() if self._queue is not None else 0,
            "applied_clock": self._applied_clock,
            "submitted_clock": self._submitted_clock,
            "memory_bytes": memory,
            "synopsis_bytes": synopsis,
            "snapshots_written": self.snapshots_written,
            "last_snapshot_path": self.last_snapshot_path,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "draining": self._stopping,
            "duplicate_chunks": self.duplicate_chunks,
            "dedup_clients_tracked": len(self._acked_seqs),
        }
        if self._journal is not None:
            stats["journal"] = self._journal.stats()
            stats["journal_errors"] = self.journal_errors
        if self.config.mode == "multisite":
            coordinator = self._require_multisite()
            stats["rounds"] = coordinator.stats.rounds
            stats["transfer_bytes"] = coordinator.stats.transfer_bytes
            stats["last_round_clock"] = coordinator.last_round_clock
        return stats

    def __repr__(self) -> str:
        return "SketchService(mode=%s, ingested=%d, pending=%d)" % (
            self.config.mode,
            self.records_ingested,
            self._pending_arrivals,
        )


def _require_param(message: dict[str, Any], name: str) -> Any:
    if name not in message:
        raise InvalidParameterError("missing required parameter %r" % (name,))
    return message[name]


def _as_int_key(key: Any) -> int:
    if isinstance(key, bool) or not isinstance(key, int):
        raise InvalidParameterError("hierarchical keys must be integers, got %r" % (key,))
    return key

