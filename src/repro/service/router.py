"""Sharded serving tier: a front-end router over shard-worker services.

One :class:`ShardRouter` partitions the key universe (or the sites, in
multisite mode) across ``config.shards`` workers, each a full, unmodified
:class:`~repro.service.core.SketchService`.  Ingest chunks are split by a
stable hash of the key and fanned out; queries are answered by collecting
per-shard estimates and merging them — which is exactly the paper's
order-preserving aggregation story (Theorem 4): sketches built with
identical dimensions and seeds compose, so a partitioned deployment answers
like a single sketch, up to the documented per-operation semantics below.

Merge semantics per operation (key-partitioned modes):

* ``point`` — routed to the single shard that owns the key.  With one shard
  the answer is byte-identical to an unsharded service.
* ``arrivals`` / ``range`` / ``self_join`` (flat) — sums of the per-shard
  estimates.  The key partition is disjoint, so the sums are exact: a flat
  self-join has no cross-shard product terms, and a range/arrival total is a
  plain partition of the in-range mass.
* ``heavy_hitters`` — the relative threshold ``phi`` is converted to an
  absolute occurrence threshold against the *global* arrival total, then
  each shard runs its group-testing descent with that absolute threshold
  over the keys it owns; the disjoint result sets are merged and re-sorted.
* ``quantile`` / ``quantiles`` — the router runs the same binary search as
  :meth:`~repro.queries.hierarchical.HierarchicalECMSketch.quantile`, with
  each cumulative probe ``[0, mid]`` answered by a fanned range query.
* multisite ``point``/``arrivals``/``self_join`` — each worker coordinates
  its own block of sites; frequencies sum across blocks, and self-join
  fetches every worker's serialized root aggregate and merges them through
  :meth:`~repro.core.ecm_sketch.ECMSketch.aggregate` (the wire-format
  state transfer shared with the distributed runner).

Ordering is enforced per shard, not globally: the router keeps one ingest
high-water mark per shard and validates each sub-chunk against its target
shard's mark before anything is submitted (all-or-nothing, so a rejected
chunk leaves no shard partially updated).  That is what makes multiple
replay connections sound — each connection owns a disjoint set of shards.

Persistence is a manifest over per-shard snapshots: ``snapshot`` fans an
explicit epoch-versioned path to every worker, then atomically writes a
manifest naming them all.  A router restarted from the manifest respawns
every worker from its recorded per-shard snapshot and reseeds the per-shard
high-water marks from the workers' restored clocks — reassembling the exact
pre-crash state.  A single crashed worker restarts the same way
(:meth:`ShardRouter.restart_shard`) without touching its siblings.
"""

from __future__ import annotations
import contextlib

import asyncio
import json
import os
import time
import zlib
from collections import deque
from collections.abc import Awaitable, Hashable, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.ecm_sketch import ECMSketch
from ..core.errors import ConfigurationError, EmptyStructureError
from ..serialization import ecm_sketch_from_dict
from .config import ServiceConfig
from .core import (
    IngestRejectedError,
    ServiceError,
    ServiceStoppedError,
    SketchService,
    validate_clock_column,
    validate_keys_for_mode,
    validate_values_column,
)
from .core import _require_param  # shared "missing required parameter" wording
from .errors import (
    ClockRegressionError,
    DeadlineExceededError,
    InvalidParameterError,
    ServiceRequestError,
    VersionMismatchError,
    exception_for_error,
)
from .ops import query_handler, require_tenant
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    check_protocol_version,
    decode_line,
    encode_message,
)
from .server import dispatch_service_op
from .shard_worker import ShardProcess, ShardUnavailableError, sites_of_shard, worker_config
from .snapshot import write_snapshot

if TYPE_CHECKING:
    from .supervision import ShardSupervisor

__all__ = [
    "PARTITION_SCHEME",
    "MANIFEST_KIND",
    "MANIFEST_VERSION",
    "shard_of",
    "shard_column",
    "ShardRouter",
    "LocalShardBackend",
    "ProcessShardBackend",
]

#: Name of the key-partitioning function, recorded in every manifest.  A
#: manifest written under a different partitioning must be rejected: restored
#: shards would own different key sets than the router routes to.
PARTITION_SCHEME = "crc32v1"

MANIFEST_KIND = "shard_manifest"
MANIFEST_VERSION = 1

#: Default deadline of one shard fan-out, in seconds.  Generous — it exists
#: to bound *hangs* (a worker wedged mid-request would otherwise stall the
#: router forever), not to race healthy operations; ingest backpressure and
#: large snapshots finish orders of magnitude sooner.
_FAN_DEADLINE = 120.0

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15  # Fibonacci-hashing multiplier (2**64 / phi)


def shard_of(key: Hashable, shards: int) -> int:
    """Stable shard index of ``key`` — the ``crc32v1`` partitioning.

    Deliberately *not* Python's ``hash()``: string hashing is salted per
    process, and the shard owning a key must survive restarts and be
    reproducible across the router, reference tests, and replay clients.
    Integers (including bools, which JSON ``true``/``false`` decode to) mix
    through a 64-bit Fibonacci multiply; strings and bytes go through CRC-32
    of their UTF-8 form; anything else hashes its ``repr``.
    """
    if shards <= 1:
        return 0
    if isinstance(key, int):
        mixed = ((key & _MASK64) * _GOLDEN) & _MASK64
        mixed ^= mixed >> 29
        return int(mixed % shards)
    if isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, (bytes, bytearray)):
        data = bytes(key)
    else:
        data = repr(key).encode("utf-8")
    return zlib.crc32(data) % shards


#: Chunks at least this long take the vectorized partitioning path.
_VECTOR_PARTITION_CUTOFF = 64


def shard_column(keys: Sequence[Hashable], shards: int) -> list[int]:
    """Shard index of every key in a column (vectorized for integer keys).

    The NumPy path reproduces :func:`shard_of` bit-for-bit: unsigned 64-bit
    wrap-around multiply, the same xor-shift, the same modulus.  Columns
    that are not plain machine integers (strings, mixed types, big ints
    promoted to object dtype) fall back to the scalar loop.
    """
    if shards <= 1:
        return [0] * len(keys)
    if len(keys) >= _VECTOR_PARTITION_CUTOFF:
        array = np.asarray(keys)
        if array.ndim == 1 and np.issubdtype(array.dtype, np.integer):
            mixed = array.astype(np.uint64) * np.uint64(_GOLDEN)
            mixed ^= mixed >> np.uint64(29)
            return (mixed % np.uint64(shards)).astype(np.int64).tolist()
    return [shard_of(key, shards) for key in keys]


class _ShardChannel:
    """One pipelined NDJSON connection from the router to a shard worker.

    Requests are written immediately and acknowledged in FIFO order: the
    submitter gets a future, and a single reader task resolves futures as
    response lines arrive.  The worker serves one request at a time per
    connection, so FIFO resolution is exact.  A broken connection fails
    every in-flight future with :class:`ShardUnavailableError` and marks the
    channel closed — the router then reports the shard as degraded instead
    of hanging.
    """

    def __init__(
        self, shard_id: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.shard_id = shard_id
        self.closed_reason: str | None = None
        self._reader = reader
        self._writer = writer
        self._pending: deque[asyncio.Future[Any]] = deque()
        self._reader_task = asyncio.create_task(
            self._read_loop(), name="repro-shard%d-reader" % shard_id
        )

    @classmethod
    async def connect(
        cls, shard_id: int, host: str, port: int, timeout: float = 30.0
    ) -> _ShardChannel:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=MAX_LINE_BYTES), timeout
        )
        channel = cls(shard_id, reader, writer)
        # Version handshake before any real traffic: an incompatible worker
        # fails loudly here, not on an unknown op mid-stream.
        try:
            result = await asyncio.wait_for(
                channel.submit({"op": "hello", "protocol_version": PROTOCOL_VERSION}), timeout
            )
            version = result.get("protocol_version") if isinstance(result, dict) else None
            if isinstance(version, str):
                check_protocol_version(version)
        except VersionMismatchError:
            await channel.close()
            raise
        except ServiceRequestError as exc:
            await channel.close()
            raise VersionMismatchError(
                "shard %d did not complete the protocol handshake "
                "(pre-%s worker?): %s" % (shard_id, PROTOCOL_VERSION, exc)
            ) from exc
        return channel

    def submit(self, message: dict[str, Any]) -> asyncio.Future[Any]:
        """Write one request; returns the future of its response."""
        if self.closed_reason is not None:
            raise ShardUnavailableError(
                "shard %d is down (%s)" % (self.shard_id, self.closed_reason)
            )
        future: asyncio.Future[Any] = asyncio.get_running_loop().create_future()
        self._pending.append(future)
        try:
            self._writer.write(encode_message(message))
        except Exception as exc:  # transport already torn down
            self._pending.remove(future)
            self._fail_pending(str(exc) or type(exc).__name__)
            raise ShardUnavailableError(
                "shard %d connection lost (%s)" % (self.shard_id, exc)
            ) from exc
        return future

    async def _read_loop(self) -> None:
        reason = "connection closed"
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = decode_line(line)
                except ProtocolError as exc:
                    reason = "protocol error: %s" % (exc,)
                    break
                if not self._pending:
                    reason = "unsolicited response"
                    break
                future = self._pending.popleft()
                if future.cancelled():
                    continue
                if response.get("ok"):
                    future.set_result(response.get("result"))
                else:
                    # Worker-side failures are ordinary service errors (bad
                    # parameters, mode mismatches, ...), not availability
                    # problems: rebuild the typed exception from the envelope
                    # — its code survives the hop, so the front server
                    # re-emits the worker's code — name the shard, and keep
                    # the channel healthy.
                    future.set_exception(
                        exception_for_error(
                            response.get("error"), prefix="shard %d" % (self.shard_id,)
                        )
                    )
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            reason = str(exc) or type(exc).__name__
        finally:
            self._fail_pending(reason)

    def _fail_pending(self, reason: str) -> None:
        if self.closed_reason is None:
            self.closed_reason = reason
        while self._pending:
            future = self._pending.popleft()
            if not future.done():
                future.set_exception(
                    ShardUnavailableError(
                        "shard %d connection lost (%s)" % (self.shard_id, reason)
                    )
                )

    async def close(self) -> None:
        self._reader_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._reader_task
        self._fail_pending("closed")
        self._writer.close()
        with contextlib.suppress(ConnectionResetError, BrokenPipeError, OSError):
            await self._writer.wait_closed()


class LocalShardBackend:
    """Shard backend running every worker in-process.

    Each shard is a real :class:`~repro.service.core.SketchService`, and
    requests go through :func:`~repro.service.server.dispatch_service_op` —
    the exact code path a TCP worker serves — just without processes or
    sockets.  This is what the property-based equivalence suite sweeps:
    hundreds of random topologies per minute, which process spawning could
    never afford.  ``submit`` wraps the dispatch coroutine in a task
    immediately, so per-shard FIFO ordering matches the channel semantics
    (``SketchService.ingest`` records its high-water mark before its first
    suspension point).
    """

    def __init__(self, config: ServiceConfig, host: str = "127.0.0.1") -> None:
        self.num_shards = int(config.shards or 0)
        self._configs = [worker_config(config, shard) for shard in range(self.num_shards)]
        self.services: list[SketchService | None] = [None] * self.num_shards

    async def start(self, restore_paths: dict[int, str]) -> None:
        for shard in range(self.num_shards):
            await self._boot(shard, restore_paths.get(shard))

    async def _boot(self, shard: int, restore: str | None) -> None:
        if restore is not None:
            service = SketchService.from_snapshot(restore)
        else:
            service = SketchService(self._configs[shard])
        await service.start()
        self.services[shard] = service

    def alive(self, shard: int) -> bool:
        return self.services[shard] is not None

    def submit(self, shard: int, message: dict[str, Any]) -> Awaitable[Any]:
        service = self.services[shard]
        if service is None:
            raise ShardUnavailableError("shard %d is down" % (shard,))
        return asyncio.ensure_future(dispatch_service_op(service, message))

    async def restart(self, shard: int, restore: str | None) -> None:
        service = self.services[shard]
        self.services[shard] = None
        if service is not None:
            await service.stop(drain=False)
        await self._boot(shard, restore)

    def kill(self, shard: int) -> None:
        """Drop a shard abruptly (fault injection): pending state is lost.

        The abandoned service's tasks are cancelled in the background
        (``stop(drain=False)`` never drains or snapshots) so the loop does
        not warn about destroyed pending tasks.
        """
        service = self.services[shard]
        self.services[shard] = None
        if service is not None:
            asyncio.ensure_future(service.stop(drain=False))

    def describe(self, shard: int) -> dict[str, Any]:
        return {"shard": shard, "alive": self.alive(shard), "pid": None, "port": None}

    async def stop(self, graceful: bool = True) -> None:
        for shard, service in enumerate(self.services):
            if service is not None:
                await service.stop(drain=graceful)
            self.services[shard] = None


class ProcessShardBackend:
    """Shard backend spawning one worker process (and connection) per shard."""

    def __init__(self, config: ServiceConfig, host: str = "127.0.0.1") -> None:
        self.num_shards = int(config.shards or 0)
        self.host = host
        self._config = config
        self.processes: list[ShardProcess | None] = [None] * self.num_shards
        self.channels: list[_ShardChannel | None] = [None] * self.num_shards

    async def start(self, restore_paths: dict[int, str]) -> None:
        # Spawn every process first (they boot concurrently), then collect
        # ports and connect.  A boot failure kills the already-spawned rest.
        for shard in range(self.num_shards):
            self.processes[shard] = ShardProcess(
                shard,
                worker_config(self._config, shard),
                host=self.host,
                restore=restore_paths.get(shard),
            )
        try:
            await asyncio.gather(*(self._connect(shard) for shard in range(self.num_shards)))
        except BaseException:
            await self.stop(graceful=False)
            raise

    async def _connect(self, shard: int) -> None:
        process = self.processes[shard]
        assert process is not None
        port = await process.wait_ready()
        self.channels[shard] = await _ShardChannel.connect(shard, self.host, port, timeout=30.0)

    def alive(self, shard: int) -> bool:
        process = self.processes[shard]
        channel = self.channels[shard]
        return (
            process is not None
            and process.is_alive()
            and channel is not None
            and channel.closed_reason is None
        )

    def submit(self, shard: int, message: dict[str, Any]) -> Awaitable[Any]:
        if not self.alive(shard):
            raise ShardUnavailableError("shard %d is down" % (shard,))
        channel = self.channels[shard]
        assert channel is not None
        return channel.submit(message)

    async def restart(self, shard: int, restore: str | None) -> None:
        channel = self.channels[shard]
        process = self.processes[shard]
        self.channels[shard] = None
        if channel is not None:
            await channel.close()
        if process is not None:
            process.kill()
            await process.join(timeout=10.0)
        self.processes[shard] = ShardProcess(
            shard, worker_config(self._config, shard), host=self.host, restore=restore
        )
        await self._connect(shard)

    def kill(self, shard: int) -> None:
        """SIGKILL one worker (fault injection)."""
        process = self.processes[shard]
        if process is not None:
            process.kill()

    def describe(self, shard: int) -> dict[str, Any]:
        process = self.processes[shard]
        return {
            "shard": shard,
            "alive": self.alive(shard),
            "pid": process.pid if process is not None else None,
            "port": process.port if process is not None else None,
        }

    async def stop(self, graceful: bool = True) -> None:
        if graceful:
            # Ask every reachable worker to drain and exit; ignore the ones
            # that are already gone.
            acks = []
            for channel in self.channels:
                if channel is not None and channel.closed_reason is None:
                    with contextlib.suppress(ShardUnavailableError):
                        acks.append(channel.submit({"op": "shutdown"}))
            if acks:
                await asyncio.gather(*acks, return_exceptions=True)
        for shard, channel in enumerate(self.channels):
            if channel is not None:
                await channel.close()
            self.channels[shard] = None
        for shard, process in enumerate(self.processes):
            if process is None:
                continue
            exitcode = await process.join(timeout=30.0 if graceful else 5.0)
            if exitcode is None:
                process.kill()
                await process.join(timeout=10.0)
            self.processes[shard] = None


class ShardRouter:
    """Front-end of the sharded serving tier.

    Duck-types the :class:`~repro.service.core.SketchService` surface the
    TCP server consumes (``start``/``stop``/``ingest``/``drain``/``query``/
    ``info``/``stats``/``expire_now``/``snapshot_async``/...), with
    awaitable results where the service answers synchronously — the shared
    dispatch layer awaits either.

    Args:
        config: Router configuration; ``config.shards`` must be set.
        local: Run shards in-process (:class:`LocalShardBackend`) instead of
            spawning worker processes.  Used by the equivalence tests; real
            serving always uses processes.
        host: Interface workers bind (process backend only).
    """

    def __init__(
        self, config: ServiceConfig, local: bool = False, host: str = "127.0.0.1"
    ) -> None:
        if config.shards is None:
            raise ConfigurationError("ShardRouter requires config.shards to be set")
        self.config = config
        # Pooled tier: tenants are hashed across shards *ahead of* the key
        # partition — each tenant lives wholly on shard_of(tenant), whose
        # worker runs its own TenantPool.  The router is then a forwarder:
        # no cross-shard merges and no router-side clock marks (ordering is
        # per tenant, enforced by the owning worker's tenant service).
        self.supports_tenants = config.pool
        self.num_shards = config.shards
        self.workers = (
            LocalShardBackend(config, host=host)
            if local
            else ProcessShardBackend(config, host=host)
        )
        self._high_water: list[float | None] = [None] * self.num_shards
        # Per-client highest seq recorded at fan-out time: a retried chunk
        # (seq at or below the record) skips the per-shard clock pre-flight
        # — its first attempt already advanced the marks — and is re-fanned
        # so every worker can apply-or-dedup it.
        self._client_seqs: dict[str, int] = {}
        self._supervisor: ShardSupervisor | None = None
        self._restore_paths: dict[int, str] = {}
        self._snapshot_epoch = 0
        self._snapshot_lock = asyncio.Lock()
        self._started = False
        self._stopping = False
        self._started_monotonic = time.monotonic()
        self.records_ingested = 0
        self.ingest_batches = 0
        self.snapshots_written = 0
        self.last_snapshot_path: str | None = None
        # Multisite: global site id -> (owning shard, site id local to it).
        self._site_shard: list[int] = []
        self._site_local: list[int] = []
        if config.mode == "multisite" and not config.pool:
            for shard in range(self.num_shards):
                for local_site, _site in enumerate(
                    sites_of_shard(config.sites, self.num_shards, shard)
                ):
                    self._site_shard.append(shard)
                    self._site_local.append(local_site)

    # -------------------------------------------------------------- manifest
    @classmethod
    def from_manifest(
        cls,
        path: str,
        overrides: ServiceConfig | None = None,
        local: bool = False,
        host: str = "127.0.0.1",
    ) -> ShardRouter:
        """Rebuild a router from a shard manifest written by ``snapshot``.

        The manifest's configuration pins everything that determines sketch
        state (mode, epsilon, window, counter type, seed, *and* the shard count —
        re-sharding a snapshot is not a restore).  The operational knobs —
        ``snapshot_path``, background periods, batch/queue sizes — follow
        ``overrides`` (the current invocation), mirroring the single-process
        restore path of :func:`~repro.service.server.run_server`.
        """
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigurationError("manifest is not valid JSON: %s" % (exc,)) from exc
        if not isinstance(payload, dict) or payload.get("kind") != MANIFEST_KIND:
            raise ConfigurationError(
                "not a shard manifest: missing kind %r" % (MANIFEST_KIND,)
            )
        if payload.get("version") != MANIFEST_VERSION:
            raise ConfigurationError(
                "unsupported manifest version %r (this build reads version %d)"
                % (payload.get("version"), MANIFEST_VERSION)
            )
        if payload.get("partition") != PARTITION_SCHEME:
            raise ConfigurationError(
                "manifest was written under partition scheme %r; this build routes "
                "with %r — restoring would misroute every key"
                % (payload.get("partition"), PARTITION_SCHEME)
            )
        config = ServiceConfig.from_dict(payload["config"])
        if overrides is not None:
            config.snapshot_path = overrides.snapshot_path
            config.snapshot_every = overrides.snapshot_every
            config.expire_every = overrides.expire_every
            config.batch_size = overrides.batch_size
            config.queue_chunks = overrides.queue_chunks
        router = cls(config, local=local, host=host)
        entries = payload.get("shards")
        if not isinstance(entries, list) or len(entries) != router.num_shards:
            raise ConfigurationError(
                "manifest lists %r shard snapshots for a %d-shard configuration"
                % (len(entries) if isinstance(entries, list) else entries, router.num_shards)
            )
        base = os.path.dirname(os.path.abspath(path))
        for entry in entries:
            shard = int(entry["shard"])
            shard_path = str(entry["path"])
            if not os.path.isabs(shard_path):
                shard_path = os.path.join(base, shard_path)
            router._restore_paths[shard] = shard_path
        router._snapshot_epoch = int(payload.get("epoch", 0))
        return router

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        if self._started:
            raise ServiceError("router is already started")
        await self.workers.start(dict(self._restore_paths))
        self._started = True
        self._stopping = False
        self._started_monotonic = time.monotonic()
        if self._restore_paths:
            await self._reseed_from_workers()
        if self.config.supervise:
            from .supervision import ShardSupervisor

            self._supervisor = ShardSupervisor(self)
            await self._supervisor.start()

    async def _reseed_from_workers(self) -> None:
        """Adopt the workers' restored clocks as the routing high-water marks."""
        stats = await self._fan({"op": "stats"})
        self._high_water = [shard_stats.get("applied_clock") for shard_stats in stats]
        self.records_ingested = sum(
            int(shard_stats.get("records_ingested", 0)) for shard_stats in stats
        )

    async def stop(self, drain: bool = True) -> str | None:
        """Drain, final-snapshot (when configured and healthy), stop workers."""
        self._stopping = True
        final_path: str | None = None
        if self._supervisor is not None:
            await self._supervisor.stop()
            self._supervisor = None
        if self._started:
            degraded = self.degraded_shards()
            if drain and not degraded:
                try:
                    await self.drain()
                except ServiceError:
                    degraded = self.degraded_shards()
            if drain and self.config.snapshot_path is not None and not degraded:
                try:
                    final_path = await self.snapshot_async()
                except ServiceError:
                    final_path = None
            if drain and self.config.pool and not degraded:
                # Each worker's graceful shutdown evicts + snapshots its own
                # tenants; the per-shard catalogs under pool_dir are the
                # durable restart state.
                final_path = self.config.pool_dir
                self.last_snapshot_path = final_path
            await self.workers.stop(graceful=drain)
        self._started = False
        return final_path

    async def __aenter__(self) -> ShardRouter:
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop(drain=True)

    # ----------------------------------------------------------------- state
    @property
    def applied_clock(self) -> float | None:
        """Highest ingest high-water mark across shards (equals the applied
        clock once :meth:`drain` has resolved)."""
        marks = [mark for mark in self._high_water if mark is not None]
        return max(marks) if marks else None

    def degraded_shards(self) -> list[int]:
        """Shards that are down (dead worker or broken connection)."""
        if not self._started:
            return []
        return [shard for shard in range(self.num_shards) if not self.workers.alive(shard)]

    def _require_started(self) -> None:
        if not self._started:
            raise ServiceStoppedError("service is not started")

    def _require_all_shards(self) -> None:
        degraded = self.degraded_shards()
        if degraded:
            raise ShardUnavailableError(
                "shard%s %s %s down"
                % (
                    "" if len(degraded) == 1 else "s",
                    ", ".join(str(shard) for shard in degraded),
                    "is" if len(degraded) == 1 else "are",
                )
            )

    async def _gather(
        self, futures: Sequence[Awaitable[Any]], deadline: float | None = None
    ) -> list[Any]:
        """Await all submissions; raise the first failure after all settle.

        ``return_exceptions`` keeps every future retrieved even when one
        fails fast — otherwise a slow shard's later failure would surface as
        an unretrieved-exception warning from the event loop.  Every await
        carries a deadline (:data:`_FAN_DEADLINE` by default): a wedged
        worker surfaces as :class:`~repro.service.errors
        .DeadlineExceededError` instead of hanging the router and everything
        queued behind this request.
        """
        limit = deadline if deadline is not None else _FAN_DEADLINE
        gathered = asyncio.gather(*futures, return_exceptions=True)
        try:
            results = await asyncio.wait_for(gathered, timeout=limit)
        except asyncio.TimeoutError:
            raise DeadlineExceededError(
                "shard fan-out exceeded its %.0f s deadline" % (limit,)
            ) from None
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return list(results)

    async def _fan(self, message: dict[str, Any]) -> list[Any]:
        """Send one message to every shard; per-shard results in shard order."""
        self._require_started()
        self._require_all_shards()
        return await self._gather(
            [self.workers.submit(shard, message) for shard in range(self.num_shards)]
        )

    # ------------------------------------------------------------ tenant ops
    def _tenant_shard(self, tenant: str) -> int:
        """Owning shard of a tenant (hashed ahead of the key partition)."""
        shard = shard_of(tenant, self.num_shards)
        self._require_started()
        if not self.workers.alive(shard):
            raise ShardUnavailableError("shard %d is down" % (shard,))
        return shard

    async def _tenant_submit(self, tenant: str | None, message: dict[str, Any]) -> Any:
        name = require_tenant(tenant)
        shard = self._tenant_shard(name)
        results = await self._gather([self.workers.submit(shard, message)])
        return results[0]

    async def tenant_create(
        self, tenant: str, overrides: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        message: dict[str, Any] = {"op": "tenant_create", "tenant": tenant}
        if overrides is not None:
            message["config"] = overrides
        return await self._tenant_submit(tenant, message)

    async def tenant_delete(self, tenant: str) -> dict[str, Any]:
        return await self._tenant_submit(tenant, {"op": "tenant_delete", "tenant": tenant})

    async def tenant_stats(self, tenant: str) -> dict[str, Any]:
        return await self._tenant_submit(tenant, {"op": "tenant_stats", "tenant": tenant})

    async def tenant_list(self) -> list[dict[str, Any]]:
        listings = await self._fan({"op": "tenant_list"})
        merged = [entry for listing in listings for entry in listing]
        return sorted(merged, key=lambda entry: entry["tenant"])

    async def sweep(self) -> dict[str, Any]:
        reports = await self._fan({"op": "pool_sweep"})
        return {
            "accounted_bytes": sum(int(report["accounted_bytes"]) for report in reports),
            "memory_budget_bytes": self.config.memory_budget_bytes,
            "resident": sum(int(report["resident"]) for report in reports),
            "evicted": [tenant for report in reports for tenant in report["evicted"]],
        }

    # ---------------------------------------------------------------- ingest
    async def ingest(
        self,
        keys: Sequence[Hashable],
        clocks: Sequence[float],
        values: Sequence[int] | None = None,
        site: int = 0,
        tenant: str | None = None,
        client_id: str | None = None,
        seq: int | None = None,
    ) -> int:
        """Partition one chunk across shards and await every worker's ack.

        Validation is all-or-nothing: every sub-chunk is checked against its
        shard's high-water mark (and every target shard's health) before the
        first byte is submitted, then the marks are advanced and the
        sub-chunks written back-to-back with no suspension point in between
        — concurrent callers cannot interleave a conflicting chunk into the
        middle of the fan-out.

        A ``(client_id, seq)`` retry identity makes partial fan-out failures
        recoverable: the seq is recorded before anything is submitted, and a
        retried chunk skips the per-shard clock pre-flight (its first attempt
        already advanced the marks) and is re-fanned with the identity
        attached, so each worker either applies it or dedups it — the ack
        the client finally sees covers every shard exactly once.
        """
        if self._stopping or not self._started:
            raise ServiceStoppedError("service is not accepting ingest")
        n = len(keys)
        if n == 0:
            raise IngestRejectedError("empty ingest chunk")
        if self.config.pool:
            # Forward the whole chunk to the tenant's owner shard; validation
            # (including the per-tenant clock high-water mark) happens in the
            # worker's tenant service, which is the ordering authority.
            result = await self._tenant_submit(
                tenant,
                {
                    "op": "ingest",
                    "tenant": tenant,
                    "keys": list(keys),
                    "clocks": list(clocks),
                    "values": list(values) if values is not None else None,
                    "site": site,
                },
            )
            self.records_ingested += n
            self.ingest_batches += 1
            return int(result["accepted"])
        if len(clocks) != n:
            raise IngestRejectedError(
                "clocks length %d does not match keys length %d" % (len(clocks), n)
            )
        if values is not None and len(values) != n:
            raise IngestRejectedError(
                "values length %d does not match keys length %d" % (len(values), n)
            )
        validate_clock_column(clocks, None)
        if values is not None:
            validate_values_column(values)
        mode = self.config.mode
        validate_keys_for_mode(keys, mode, self.config.universe_bits)
        retry = False
        if client_id is not None and seq is not None:
            recorded = self._client_seqs.get(client_id)
            retry = recorded is not None and seq <= recorded

        if mode == "multisite":
            if not isinstance(site, int) or isinstance(site, bool) or not (
                0 <= site < self.config.sites
            ):
                raise IngestRejectedError(
                    "site must be an integer in [0, %d), got %r" % (self.config.sites, site)
                )
            shard = self._site_shard[site]
            parts = {
                shard: {
                    "op": "ingest",
                    "keys": list(keys),
                    "clocks": list(clocks),
                    "values": list(values) if values is not None else None,
                    "site": self._site_local[site],
                }
            }
        elif self.num_shards == 1:
            parts = {
                0: {
                    "op": "ingest",
                    "keys": list(keys),
                    "clocks": list(clocks),
                    "values": list(values) if values is not None else None,
                    "site": 0,
                }
            }
        else:
            parts = self._partition(keys, clocks, values)

        # Pre-flight every target shard, then advance all marks and submit
        # all sub-chunks synchronously (no awaits until the gather).  A
        # retry skips the clock pre-flight: its first attempt already
        # advanced these marks, so re-checking would self-reject it.
        for shard, message in parts.items():
            if not self.workers.alive(shard):
                raise ShardUnavailableError("shard %d is down" % (shard,))
            if retry:
                continue
            mark = self._high_water[shard]
            first = message["clocks"][0]
            if mark is not None and first < mark:
                raise ClockRegressionError(
                    "shard %d: out-of-order clock %r (high-water mark %r); arrival "
                    "clocks must be non-decreasing per shard" % (shard, first, mark)
                )
        if client_id is not None and seq is not None and not retry:
            # Recorded before the fan-out, not after: if the gather fails
            # midway the chunk may have reached some shards, and the retry
            # must be recognized as such.
            self._note_client_seq(client_id, seq)
        futures = []
        for shard, message in parts.items():
            if client_id is not None and seq is not None:
                message["client"] = client_id
                message["seq"] = seq
            mark = self._high_water[shard]
            last = message["clocks"][-1]
            if mark is None or last > mark:
                self._high_water[shard] = last
            futures.append(self.workers.submit(shard, message))
        await self._gather(futures)
        if not retry:
            self.records_ingested += n
            self.ingest_batches += 1
        return n

    def _note_client_seq(self, client_id: str, seq: int) -> None:
        """Record a client's fan-out seq; LRU-evict beyond the dedup cap."""
        previous = self._client_seqs.pop(client_id, None)
        self._client_seqs[client_id] = (
            seq if previous is None or seq > previous else previous
        )
        limit = self.config.dedup_clients
        while len(self._client_seqs) > limit:
            self._client_seqs.pop(next(iter(self._client_seqs)))

    def _partition(
        self,
        keys: Sequence[Hashable],
        clocks: Sequence[float],
        values: Sequence[int] | None,
    ) -> dict[int, dict[str, Any]]:
        shard_ids = shard_column(keys, self.num_shards)
        parts: dict[int, dict[str, Any]] = {}
        for index, shard in enumerate(shard_ids):
            message = parts.get(shard)
            if message is None:
                message = parts[shard] = {
                    "op": "ingest",
                    "keys": [],
                    "clocks": [],
                    "values": [] if values is not None else None,
                    "site": 0,
                }
            message["keys"].append(keys[index])
            message["clocks"].append(clocks[index])
            if values is not None:
                message["values"].append(values[index])
        return parts

    async def drain(self, tenant: str | None = None) -> Any:
        """Barrier: resolves once every shard has applied its acknowledged
        arrivals.  Raises :class:`ShardUnavailableError` if any shard is
        down (its acknowledged tail cannot be applied)."""
        if self.config.pool:
            if tenant is not None:
                return await self._tenant_submit(tenant, {"op": "drain", "tenant": tenant})
            results = await self._fan({"op": "drain"})
            clocks = [result.get("applied_clock") for result in results]
            finite = [clock for clock in clocks if clock is not None]
            return {"applied_clock": max(finite) if finite else None}
        await self._fan({"op": "drain"})
        return None

    async def expire_now(self, tenant: str | None = None) -> Any:
        if self.config.pool:
            if tenant is not None:
                return await self._tenant_submit(tenant, {"op": "expire", "tenant": tenant})
            results = await self._fan({"op": "expire"})
            return {"applied_clock": None, "swept": [result.get("swept") for result in results]}
        await self._fan({"op": "expire"})
        return None

    # --------------------------------------------------------------- queries
    async def query(self, op: str, message: dict[str, Any]) -> Any:
        if self.config.pool:
            # A tenant lives wholly on its owner shard: forward the query
            # verbatim, no cross-shard merge semantics involved.
            return await self._tenant_submit(message.get("tenant"), dict(message, op=op))
        # Each _query_<op> merges the per-shard answers (Theorem 4).
        return await query_handler(self, op, self.config.mode)(message)

    def _owner_shard(self, key: Hashable) -> int:
        shard = shard_of(key, self.num_shards)
        self._require_started()
        if not self.workers.alive(shard):
            raise ShardUnavailableError("shard %d is down" % (shard,))
        return shard

    async def _fan_sum(self, message: dict[str, Any]) -> float:
        return float(sum(float(result) for result in await self._fan(message)))

    async def _query_point(self, message: dict[str, Any]) -> float:
        key = _require_param(message, "key")
        if self.config.mode == "multisite":
            # Every worker coordinates a block of sites; the key's frequency
            # is the sum of the per-block frequencies (Theorem 4 linearity).
            return await self._fan_sum(message)
        shard = self._owner_shard(key)
        results = await self._gather([self.workers.submit(shard, message)])
        return float(results[0])

    async def _query_arrivals(self, message: dict[str, Any]) -> float:
        return await self._fan_sum(message)

    async def _query_range(self, message: dict[str, Any]) -> float:
        return await self._fan_sum(message)

    async def _query_self_join(self, message: dict[str, Any]) -> float:
        if self.config.mode == "flat":
            # The key partition is disjoint, so F2 has no cross-shard
            # product terms: the per-shard self-joins sum exactly.
            return await self._fan_sum(message)
        # Multisite: merge every worker's root aggregate (wire-format state
        # transfer + aggregate) and self-join the merged sketch — the
        # cross-shard product terms are real here, one sketch per site block.
        payloads = await self._fan({"op": "root_state"})
        sketches = [ecm_sketch_from_dict(payload["sketch"]) for payload in payloads]
        clocks = [
            payload["round_clock"]
            for payload in payloads
            if payload.get("round_clock") is not None
        ]
        merged = sketches[0] if len(sketches) == 1 else ECMSketch.aggregate(sketches)
        now = max(clocks) if clocks else None
        return float(merged.self_join(message.get("range"), now=now))

    async def _query_staleness(self, message: dict[str, Any]) -> float:
        now = message.get("now", self.applied_clock)
        if now is None:
            raise EmptyStructureError("no arrivals applied yet")
        results = await self._fan({"op": "staleness", "now": float(now)})
        return float(max(float(result) for result in results))

    async def _query_heavy_hitters(self, message: dict[str, Any]) -> list[Any]:
        range_length = message.get("range")
        absolute = message.get("absolute")
        if absolute is None:
            phi = float(_require_param(message, "phi"))
            if not (0.0 < phi <= 1.0):
                raise ConfigurationError("phi must be in (0, 1], got %r" % (phi,))
            # Each shard sees only its own slice of the stream, so the
            # relative threshold is resolved against the global total first.
            total = await self._fan_sum({"op": "arrivals", "range": range_length})
            absolute = phi * total
        results = await self._fan(
            {"op": "heavy_hitters", "absolute": float(absolute), "range": range_length}
        )
        merged = [tuple(pair) for shard_hitters in results for pair in shard_hitters]
        return sorted(merged, key=lambda item: (-item[1], item[0]))

    async def _cumulative(
        self, upper: int, range_length: float | None, cache: dict[int, float]
    ) -> float:
        estimate = cache.get(upper)
        if estimate is None:
            estimate = await self._fan_sum(
                {"op": "range", "lo": 0, "hi": upper, "range": range_length}
            )
            cache[upper] = estimate
        return estimate

    async def _quantile_search(
        self,
        fraction: float,
        total: float,
        range_length: float | None,
        cache: dict[int, float],
    ) -> int:
        # The exact binary search of HierarchicalECMSketch.quantile, with
        # each cumulative probe answered by a fanned range query — summing
        # disjoint per-shard prefixes reproduces the unsharded cumulative.
        target = fraction * total
        lo, hi = 0, (1 << self.config.universe_bits) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if await self._cumulative(mid, range_length, cache) >= target:
                hi = mid
            else:
                lo = mid + 1
        return lo

    async def _quantile_total(self, range_length: float | None) -> float:
        total = await self._fan_sum({"op": "arrivals", "range": range_length})
        if total <= 0.0:
            raise EmptyStructureError(
                "quantile of an empty window is undefined (no in-range arrivals)"
            )
        return total

    @staticmethod
    def _validate_fraction(fraction: float) -> float:
        fraction = float(fraction)
        if not (0.0 <= fraction <= 1.0):
            raise ConfigurationError("fraction must be in [0, 1], got %r" % (fraction,))
        return fraction

    async def _query_quantile(self, message: dict[str, Any]) -> int:
        fraction = self._validate_fraction(_require_param(message, "fraction"))
        range_length = message.get("range")
        total = await self._quantile_total(range_length)
        return await self._quantile_search(fraction, total, range_length, {})

    async def _query_quantiles(self, message: dict[str, Any]) -> list[int]:
        fractions = _require_param(message, "fractions")
        if not isinstance(fractions, (list, tuple)) or not fractions:
            raise InvalidParameterError("fractions must be a non-empty list")
        validated = [self._validate_fraction(fraction) for fraction in fractions]
        range_length = message.get("range")
        total = await self._quantile_total(range_length)
        cache: dict[int, float] = {}
        return [
            await self._quantile_search(fraction, total, range_length, cache)
            for fraction in validated
        ]

    async def _query_root_state(self, message: dict[str, Any]) -> Any:
        results = await self._fan(message)
        return results[0] if self.num_shards == 1 else results

    # ------------------------------------------------------------ inspection
    def info(self) -> dict[str, Any]:
        info = self.config.describe()
        info["protocol_version"] = PROTOCOL_VERSION
        return info

    async def stats(self) -> dict[str, Any]:
        """Aggregated live counters plus per-shard detail and health."""
        self._require_started()
        futures: dict[int, Awaitable[Any]] = {}
        for shard in range(self.num_shards):
            if self.workers.alive(shard):
                with contextlib.suppress(ShardUnavailableError):
                    futures[shard] = self.workers.submit(shard, {"op": "stats"})
        settled = await asyncio.gather(*futures.values(), return_exceptions=True)
        per_shard: dict[int, dict[str, Any] | None] = {
            shard: None for shard in range(self.num_shards)
        }
        for shard, result in zip(futures.keys(), settled, strict=False):
            if not isinstance(result, BaseException):
                per_shard[shard] = result

        def total(field: str) -> int:
            return sum(
                int(stats.get(field, 0)) for stats in per_shard.values() if stats is not None
            )

        applied = [
            stats.get("applied_clock")
            for stats in per_shard.values()
            if stats is not None and stats.get("applied_clock") is not None
        ]
        details = []
        for shard in range(self.num_shards):
            entry = self.workers.describe(shard)
            stats = per_shard[shard]
            if stats is not None:
                entry["records_ingested"] = stats.get("records_ingested")
                entry["applied_clock"] = stats.get("applied_clock")
                entry["pending_arrivals"] = stats.get("pending_arrivals")
                entry["memory_bytes"] = stats.get("memory_bytes")
            details.append(entry)
        supervision = self._supervisor.describe() if self._supervisor is not None else {}
        if self.config.pool:
            return {
                "mode": self.config.mode,
                "backend": self.config.resolved_backend,
                "pool": True,
                **supervision,
                "shards": self.num_shards,
                "degraded": self.degraded_shards(),
                "tenants_total": total("tenants_total"),
                "tenants_resident": total("tenants_resident"),
                "tenants_created": total("tenants_created"),
                "evictions": total("evictions"),
                "restores": total("restores"),
                "accounted_memory_bytes": total("accounted_memory_bytes"),
                "memory_budget_bytes": self.config.memory_budget_bytes,
                "records_ingested": total("records_ingested"),
                "background_errors": total("background_errors"),
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "draining": self._stopping,
                "shard_details": details,
            }
        return {
            "mode": self.config.mode,
            "backend": self.config.resolved_backend,
            "shards": self.num_shards,
            "degraded": self.degraded_shards(),
            **supervision,
            "records_ingested": total("records_ingested"),
            "ingest_batches": self.ingest_batches,
            "ingest_apply_errors": total("ingest_apply_errors"),
            "background_errors": total("background_errors"),
            "pending_arrivals": total("pending_arrivals"),
            "pending_chunks": total("pending_chunks"),
            "applied_clock": max(applied) if applied else None,
            "submitted_clock": self.applied_clock,
            "memory_bytes": total("memory_bytes"),
            "synopsis_bytes": total("synopsis_bytes"),
            "snapshots_written": self.snapshots_written,
            "last_snapshot_path": self.last_snapshot_path,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "draining": self._stopping,
            "shard_details": details,
        }

    # ----------------------------------------------------------- persistence
    async def snapshot_async(
        self, path: str | None = None, tenant: str | None = None
    ) -> str:
        """Fan per-shard snapshots out, then atomically write the manifest.

        Shard snapshots are epoch-versioned (``<base>.shard<k>.e<epoch>``)
        and the manifest is replaced last: a crash mid-snapshot leaves the
        previous manifest pointing at the previous epoch's intact files.
        Superseded epoch files are unlinked best-effort afterwards.  Refuses
        to snapshot while degraded — a manifest missing live shards would
        restore into silent data loss.
        """
        self._require_started()
        if self.config.pool:
            # Pooled workers snapshot their own tenants into per-shard pool
            # directories; the SQLite catalogs are the manifest, so there is
            # no router-level manifest file to write.
            if tenant is not None:
                result = await self._tenant_submit(
                    tenant, {"op": "snapshot", "tenant": tenant, "path": path}
                )
                self.last_snapshot_path = str(result["path"])
                return self.last_snapshot_path
            await self._fan({"op": "snapshot"})
            self.snapshots_written += 1
            assert self.config.pool_dir is not None
            self.last_snapshot_path = self.config.pool_dir
            return self.config.pool_dir
        base = path if path is not None else self.config.snapshot_path
        if base is None:
            raise InvalidParameterError("no snapshot_path configured")
        async with self._snapshot_lock:
            self._require_all_shards()
            epoch = self._snapshot_epoch + 1
            shard_paths = {
                shard: "%s.shard%d.e%d" % (base, shard, epoch)
                for shard in range(self.num_shards)
            }
            await self._gather(
                [
                    self.workers.submit(
                        shard, {"op": "snapshot", "path": shard_paths[shard]}
                    )
                    for shard in range(self.num_shards)
                ]
            )
            manifest = {
                "kind": MANIFEST_KIND,
                "version": MANIFEST_VERSION,
                "partition": PARTITION_SCHEME,
                "epoch": epoch,
                "config": self.config.to_dict(),
                "shards": [
                    {"shard": shard, "path": shard_paths[shard]}
                    for shard in range(self.num_shards)
                ],
            }
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, write_snapshot, base, manifest)
            superseded = [
                old_path
                for old_path in self._restore_paths.values()
                if old_path not in shard_paths.values()
            ]
            self._restore_paths = shard_paths
            self._snapshot_epoch = epoch
            for old_path in superseded:
                with contextlib.suppress(OSError):
                    os.unlink(old_path)
        self.snapshots_written += 1
        self.last_snapshot_path = base
        return base

    async def restart_shard(self, shard: int) -> dict[str, Any]:
        """Respawn one worker, restoring its last per-shard snapshot.

        The shard's high-water mark is reset to the worker's restored clock,
        so a replay client can re-send everything after the last snapshot —
        the recovery contract is snapshot-granular, exactly like the
        single-process service.
        """
        self._require_started()
        if not (0 <= shard < self.num_shards):
            raise InvalidParameterError(
                "shard must be in [0, %d), got %r" % (self.num_shards, shard)
            )
        restore = self._restore_paths.get(shard)
        if restore is not None and not os.path.exists(restore):
            restore = None
        await self.workers.restart(shard, restore)
        stats = (await self._gather([self.workers.submit(shard, {"op": "stats"})]))[0]
        self._high_water[shard] = stats.get("applied_clock")
        return {
            "shard": shard,
            "restored_from": restore,
            "applied_clock": self._high_water[shard],
        }

    async def forward_failpoint(self, shard: int, message: dict[str, Any]) -> Any:
        """Forward a ``failpoint`` op to one worker (chaos fault targeting).

        Runtime arming through the protocol, rather than the environment, is
        what keeps supervised chaos bounded: a respawned worker boots with a
        clean failpoint registry instead of re-arming a kill from an
        inherited variable and dying in a loop.
        """
        self._require_started()
        if not (0 <= shard < self.num_shards):
            raise InvalidParameterError(
                "shard must be in [0, %d), got %r" % (self.num_shards, shard)
            )
        forwarded = {
            key: value for key, value in message.items() if key not in ("shard", "id")
        }
        results = await self._gather([self.workers.submit(shard, forwarded)])
        return results[0]

    def __repr__(self) -> str:
        return "ShardRouter(mode=%s, shards=%d, ingested=%d, degraded=%r)" % (
            self.config.mode,
            self.num_shards,
            self.records_ingested,
            self.degraded_shards(),
        )

