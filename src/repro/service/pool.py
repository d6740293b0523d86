"""Multi-tenant sketch pool: a tenant catalog plus a memory governor.

One :class:`TenantPool` hosts many independent sketches ("tenants") inside
one serving process.  Each tenant is a full
:class:`~repro.service.core.SketchService` — its own mode, error budgets,
window model and counter type — created from the pool's default configuration
plus per-tenant overrides, and addressed by a ``tenant`` id on every
protocol operation.

Two pieces make it scale past RAM:

* **The catalog** (:class:`TenantCatalog`) is a SQLite table mapping tenant
  id to its full configuration and lifecycle metadata (created/last-touched
  stamps, residency, eviction snapshot path, ingest watermarks).  The
  catalog *is* the pool's manifest: a restarted process with the same pool
  directory lists exactly the tenants it had, and restores each lazily on
  first touch.
* **The memory governor** tracks resident tenants' ``memory_bytes()`` (the
  PR 4 accounting APIs) against ``memory_budget_bytes``.  When the
  accounted total exceeds the budget, cold tenants — least recently touched
  first — are drained and evicted to atomic per-tenant snapshots (the PR 5
  format, unchanged), and restored byte-identically on their next touch.
  The hottest tenant is never evicted: after a sweep either the accounted
  total fits the budget or exactly one tenant remains resident.

Concurrency: every operation on a tenant serializes through that tenant's
``asyncio.Lock``.  That is what makes eviction safe under load — a query
racing an eviction either runs before the drain-and-snapshot or waits and
triggers a restore; it never observes half a tenant.
"""

from __future__ import annotations
import contextlib

import asyncio
import functools
import json
import os
import sqlite3
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable, Hashable, Sequence
from typing import Any, TypeVar

from ..core.config import CounterType, store_layout
from ..core.errors import ConfigurationError
from .config import ServiceConfig
from .core import SketchService
from .errors import (
    InvalidParameterError,
    ServiceError,
    ServiceStoppedError,
    TenantEvictedError,
    TenantExistsError,
    TenantNotFoundError,
)
from .ops import TENANT_ID_PATTERN, require_tenant

__all__ = ["TenantCatalog", "TenantPool", "TENANT_ID_PATTERN"]

_T = TypeVar("_T")

#: Configuration keys a tenant may override at ``tenant_create`` — the
#: sketch-state parameters.  Operational knobs (batch size, queue bound,
#: persistence, sharding) belong to the pool, not to tenants.
TENANT_CONFIG_KEYS = frozenset(
    [
        "mode",
        "epsilon",
        "delta",
        "window",
        "model",
        "counter_type",
        "universe_bits",
        "sites",
        "period",
        "max_arrivals",
        "seed",
    ]
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS tenants (
    tenant TEXT PRIMARY KEY,
    config TEXT NOT NULL,
    created_at REAL NOT NULL,
    last_touched REAL NOT NULL,
    touch_seq INTEGER NOT NULL DEFAULT 0,
    resident INTEGER NOT NULL DEFAULT 0,
    snapshot_path TEXT,
    records_ingested INTEGER NOT NULL DEFAULT 0,
    applied_clock REAL
)
"""


class TenantCatalog:
    """SQLite-backed tenant catalog (id -> config + lifecycle metadata).

    Single-writer by construction: only the pool that owns the directory
    touches it, so plain autocommit-per-statement durability is enough.  On
    open, residency flags left behind by a crash are cleared — those
    tenants' last eviction snapshots (if any) are their durable state,
    exactly like a tenant evicted before the crash.

    Threading: the synchronous methods are the catalog's surface (scripts
    and tests call them directly), but the pool's async paths route every
    one of them through :meth:`call`, which runs the statement on the
    catalog's own single worker thread — a SQLite commit is an fsync, and
    an fsync on the event loop stalls ingest, queries and heartbeats
    together.  One worker thread keeps the single-writer ordering.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # check_same_thread=False because statements run on the catalog's
        # worker thread via call() but open/close may happen on the caller's;
        # the single-worker executor serializes all access.
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.row_factory = sqlite3.Row
        self._connection.execute(_SCHEMA)
        # Crash recovery: anything marked resident belongs to a dead process.
        self._connection.execute("UPDATE tenants SET resident = 0 WHERE resident != 0")
        self._connection.commit()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="tenant-catalog"
        )

    async def call(self, method: Callable[..., _T], /, *args: Any) -> _T:
        """Run one synchronous catalog method off the event loop.

        ``await catalog.call(catalog.touch, tenant, now, seq)`` executes the
        statement on the catalog's single worker thread, so the commit's
        fsync never runs on the loop.  This is the only way the pool's async
        paths are allowed to reach the catalog.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, functools.partial(method, *args))

    def close(self) -> None:
        self._connection.close()
        # wait=False: close() itself may be running on the worker thread
        # (via call()), and a thread cannot join itself.
        self._executor.shutdown(wait=False)

    def create(self, tenant: str, config_payload: dict[str, Any], now: float, seq: int) -> None:
        try:
            self._connection.execute(
                "INSERT INTO tenants (tenant, config, created_at, last_touched, touch_seq, "
                "resident) VALUES (?, ?, ?, ?, ?, 1)",
                (tenant, json.dumps(config_payload, sort_keys=True), now, now, seq),
            )
        except sqlite3.IntegrityError:
            raise TenantExistsError("tenant %r already exists" % (tenant,)) from None
        self._connection.commit()

    def get(self, tenant: str) -> sqlite3.Row | None:
        cursor = self._connection.execute("SELECT * FROM tenants WHERE tenant = ?", (tenant,))
        return cursor.fetchone()

    def delete(self, tenant: str) -> bool:
        cursor = self._connection.execute("DELETE FROM tenants WHERE tenant = ?", (tenant,))
        self._connection.commit()
        return cursor.rowcount > 0

    def rows(self) -> list[sqlite3.Row]:
        cursor = self._connection.execute("SELECT * FROM tenants ORDER BY tenant")
        return list(cursor.fetchall())

    def count(self) -> int:
        cursor = self._connection.execute("SELECT COUNT(*) FROM tenants")
        return int(cursor.fetchone()[0])

    def touch(self, tenant: str, now: float, seq: int) -> None:
        self._connection.execute(
            "UPDATE tenants SET last_touched = ?, touch_seq = ? WHERE tenant = ?",
            (now, seq, tenant),
        )
        self._connection.commit()

    def mark_resident(self, tenant: str) -> None:
        self._connection.execute(
            "UPDATE tenants SET resident = 1 WHERE tenant = ?", (tenant,)
        )
        self._connection.commit()

    def mark_evicted(
        self,
        tenant: str,
        snapshot_path: str,
        records_ingested: int,
        applied_clock: float | None,
    ) -> None:
        self._connection.execute(
            "UPDATE tenants SET resident = 0, snapshot_path = ?, records_ingested = ?, "
            "applied_clock = ? WHERE tenant = ?",
            (snapshot_path, records_ingested, applied_clock, tenant),
        )
        self._connection.commit()

    def max_touch_seq(self) -> int:
        cursor = self._connection.execute("SELECT COALESCE(MAX(touch_seq), 0) FROM tenants")
        return int(cursor.fetchone()[0])


class TenantPool:
    """Many tenant sketch services behind one serving surface.

    Duck-types the surface :func:`~repro.service.server.dispatch_service_op`
    serves (``supports_tenants`` marks the tenant-namespaced extension), so
    a :class:`~repro.service.server.SketchServer` — or a pooled shard worker
    — fronts a pool exactly like a single service.

    Args:
        config: Pool configuration; ``pool=True`` and ``pool_dir`` are
            required, ``memory_budget_bytes`` arms the governor, and the
            sketch parameters become the default tenant configuration.
    """

    supports_tenants = True

    def __init__(self, config: ServiceConfig) -> None:
        if not config.pool or config.pool_dir is None:
            raise ConfigurationError("TenantPool requires pool=True and pool_dir")
        self.config = config
        self.pool_dir = config.pool_dir
        os.makedirs(os.path.join(self.pool_dir, "tenants"), exist_ok=True)
        self.catalog = TenantCatalog(os.path.join(self.pool_dir, "catalog.sqlite"))
        self.records_ingested = 0
        self.tenants_created = 0
        self.evictions = 0
        self.restores = 0
        self.background_errors = 0
        self.last_snapshot_path: str | None = None
        self._resident: dict[str, SketchService] = {}
        self._locks: dict[str, asyncio.Lock] = {}
        self._touch_seq = self.catalog.max_touch_seq()
        # Cached catalog cardinality so stats()/info()/__repr__ stay
        # synchronous without a SQLite query on the event loop; maintained
        # on create/delete, seeded from the durable catalog here.
        self._tenant_count = self.catalog.count()
        self._started = False
        self._stopping = False
        self._started_monotonic = time.monotonic()
        self._sweep_task: asyncio.Task[None] | None = None

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Open the pool for requests and start the background sweep."""
        if self._started:
            raise ServiceError("pool already started")
        self._started = True
        self._stopping = False
        self._started_monotonic = time.monotonic()
        if self.config.expire_every is not None:
            self._sweep_task = asyncio.create_task(self._sweep_loop(), name="pool-sweep")

    async def stop(self, drain: bool = True) -> str | None:
        """Stop the pool; with ``drain`` every resident tenant is evicted
        (drained + snapshotted), making the catalog + snapshots a complete
        restart manifest.  Returns the pool directory when drained."""
        self._stopping = True
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweep_task
            self._sweep_task = None
        if drain:
            for tenant in list(self._resident):
                await self._evict(tenant)
            self.last_snapshot_path = self.pool_dir
        else:
            for tenant, service in list(self._resident.items()):
                await service.stop(drain=False)
                del self._resident[tenant]
        await self.catalog.call(self.catalog.close)
        self._started = False
        return self.last_snapshot_path

    async def __aenter__(self) -> TenantPool:
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop(drain=True)

    # ------------------------------------------------------------ tenant ids
    def _lock_for(self, tenant: str) -> asyncio.Lock:
        lock = self._locks.get(tenant)
        if lock is None:
            lock = self._locks[tenant] = asyncio.Lock()
        return lock

    def tenant_config(self, overrides: dict[str, Any]) -> ServiceConfig:
        """Default tenant configuration with per-tenant overrides applied.

        Only sketch-state parameters (:data:`TENANT_CONFIG_KEYS`) may be
        overridden; operational knobs stay pool-wide.  Validation happens in
        :class:`~repro.service.config.ServiceConfig` itself.
        """
        if not isinstance(overrides, dict):
            raise InvalidParameterError("tenant config must be an object")
        payload = self.config.to_dict()
        # Tenants are plain single-process services: the pool owns sharding,
        # persistence and budgets; the pool's sweep loop owns expiry.
        payload.update(
            shards=None,
            pool=False,
            pool_dir=None,
            memory_budget_bytes=None,
            snapshot_path=None,
            snapshot_every=None,
            expire_every=None,
            journal_dir=None,
            journal_fsync=False,
            supervise=False,
        )
        for key, value in overrides.items():
            if key not in TENANT_CONFIG_KEYS:
                raise InvalidParameterError(
                    "unknown tenant config key %r (tenants may set: %s)"
                    % (key, ", ".join(sorted(TENANT_CONFIG_KEYS)))
                )
            payload[key] = value
        return ServiceConfig.from_dict(payload)

    def _snapshot_path_for(self, tenant: str) -> str:
        return os.path.join(self.pool_dir, "tenants", "%s.snapshot.json" % tenant)

    async def _touch(self, tenant: str) -> None:
        self._touch_seq += 1
        await self.catalog.call(self.catalog.touch, tenant, time.time(), self._touch_seq)

    # ------------------------------------------------------- residency + LRU
    async def _acquire(self, tenant: str) -> SketchService:
        """Resident service for one tenant, restoring it if evicted.

        Caller must hold the tenant's lock.  Raises
        :class:`TenantNotFoundError` for unknown tenants and
        :class:`TenantEvictedError` when the eviction snapshot is missing or
        unreadable (the catalog entry survives, so the operator can delete
        or re-create the tenant explicitly).
        """
        if self._stopping or not self._started:
            raise ServiceStoppedError("pool is not accepting requests")
        service = self._resident.get(tenant)
        if service is None:
            row = await self.catalog.call(self.catalog.get, tenant)
            if row is None:
                raise TenantNotFoundError("unknown tenant %r" % (tenant,))
            service = await self._restore(tenant, row)
            self._resident[tenant] = service
            await self.catalog.call(self.catalog.mark_resident, tenant)
        await self._touch(tenant)
        return service

    async def _restore(self, tenant: str, row: sqlite3.Row) -> SketchService:
        config = ServiceConfig.from_dict(json.loads(row["config"]))
        snapshot_path = row["snapshot_path"]
        if snapshot_path is None:
            # Never evicted (fresh tenant, or acknowledged-but-unsnapshotted
            # work lost to a crash): start from the configured empty state.
            service = SketchService(config)
        else:
            try:
                service = SketchService.from_snapshot(snapshot_path)
            except FileNotFoundError:
                raise TenantEvictedError(
                    "tenant %r was evicted but its snapshot %s is missing"
                    % (tenant, snapshot_path)
                ) from None
            except (ConfigurationError, KeyError, ValueError, TypeError, OSError) as exc:
                raise TenantEvictedError(
                    "tenant %r was evicted but its snapshot %s is unreadable: %s"
                    % (tenant, snapshot_path, exc)
                ) from exc
            self.restores += 1
        await service.start()
        return service

    async def _evict(self, tenant: str) -> bool:
        """Drain one tenant to its snapshot and drop it from residency."""
        async with self._lock_for(tenant):
            service = self._resident.get(tenant)
            if service is None:
                return False
            path = self._snapshot_path_for(tenant)
            # stop(drain=True) empties the ingest queue; the tenant config
            # carries no snapshot_path, so the final write below is the only
            # one — through the same atomic snapshot format as PR 5.  The
            # write and the catalog commit both run off-loop: eviction of a
            # cold tenant must not stall the hot ones.
            await service.stop(drain=True)
            await service.snapshot_async(path)
            await self.catalog.call(
                self.catalog.mark_evicted,
                tenant, path, service.records_ingested, service.applied_clock,
            )
            del self._resident[tenant]
            self.evictions += 1
            return True

    def accounted_bytes(self) -> int:
        """Resident memory accounted against the budget (sum of tenants')."""
        return sum(self._service_memory(service) for service in self._resident.values())

    @staticmethod
    def _service_memory(service: SketchService) -> int:
        stats = service.stats()
        return int(stats["memory_bytes"])

    async def _eviction_order(self) -> list[str]:
        """Resident tenants, coldest (smallest touch_seq) first."""
        sequence: dict[str, int] = {}
        for row in await self.catalog.call(self.catalog.rows):
            sequence[row["tenant"]] = int(row["touch_seq"])
        return sorted(self._resident, key=lambda tenant: sequence.get(tenant, 0))

    async def _enforce_budget(self) -> list[str]:
        """Evict cold tenants until the accounted total fits the budget.

        Never evicts the last (hottest) resident: a single tenant larger
        than the whole budget stays resident — eviction would just thrash
        restore/evict on every touch without freeing anything durable.
        """
        budget = self.config.memory_budget_bytes
        if budget is None:
            return []
        evicted: list[str] = []
        while self.accounted_bytes() > budget and len(self._resident) > 1:
            for tenant in await self._eviction_order():
                if await self._evict(tenant):
                    evicted.append(tenant)
                    break
            else:  # pragma: no cover - defensive: nothing evictable
                break
        return evicted

    async def sweep(self) -> dict[str, Any]:
        """Expire out-of-window state and enforce the budget, immediately."""
        for tenant in list(self._resident):
            async with self._lock_for(tenant):
                service = self._resident.get(tenant)
                if service is not None:
                    service.expire_now()
        evicted = await self._enforce_budget()
        return {
            "accounted_bytes": self.accounted_bytes(),
            "memory_budget_bytes": self.config.memory_budget_bytes,
            "resident": len(self._resident),
            "evicted": evicted,
        }

    async def _sweep_loop(self) -> None:
        assert self.config.expire_every is not None
        while True:
            await asyncio.sleep(self.config.expire_every)
            try:
                await self.sweep()
            except Exception as exc:
                self.background_errors += 1
                print(
                    "tenant-pool: background sweep failed (%s: %s); will retry"
                    % (type(exc).__name__, exc),
                    file=sys.stderr,
                    flush=True,
                )

    # ------------------------------------------------------ tenant lifecycle
    async def tenant_create(
        self, tenant: str, overrides: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Create a tenant (resident immediately); returns its description."""
        tenant = require_tenant(tenant)
        if self._stopping or not self._started:
            raise ServiceStoppedError("pool is not accepting requests")
        config = self.tenant_config(overrides or {})
        async with self._lock_for(tenant):
            existing = tenant in self._resident or (
                await self.catalog.call(self.catalog.get, tenant) is not None
            )
            if existing:
                raise TenantExistsError("tenant %r already exists" % (tenant,))
            # Built before the catalog insert: a configuration the service
            # rejects must leave no catalog row behind.
            service = SketchService(config)
            self._touch_seq += 1
            await self.catalog.call(
                self.catalog.create, tenant, config.to_dict(), time.time(), self._touch_seq
            )
            await service.start()
            self._resident[tenant] = service
            self.tenants_created += 1
            self._tenant_count += 1
        await self._enforce_budget()
        return await self.tenant_stats(tenant)

    async def tenant_delete(self, tenant: str) -> dict[str, Any]:
        """Delete a tenant: stop it, drop its snapshot and catalog row."""
        tenant = require_tenant(tenant)
        async with self._lock_for(tenant):
            service = self._resident.pop(tenant, None)
            if service is not None:
                await service.stop(drain=False)
            existed = await self.catalog.call(self.catalog.delete, tenant)
            if not existed:
                raise TenantNotFoundError("unknown tenant %r" % (tenant,))
            self._tenant_count -= 1
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._snapshot_path_for(tenant))
        self._locks.pop(tenant, None)
        return {"deleted": tenant}

    async def tenant_list(self) -> list[dict[str, Any]]:
        """Describe every tenant in the catalog (resident or evicted)."""
        listing = []
        for row in await self.catalog.call(self.catalog.rows):
            listing.append(self._describe_row(row))
        return listing

    def _describe_row(self, row: sqlite3.Row) -> dict[str, Any]:
        tenant = row["tenant"]
        config = json.loads(row["config"])
        service = self._resident.get(tenant)
        description: dict[str, Any] = {
            "tenant": tenant,
            "resident": service is not None,
            "mode": config.get("mode"),
            "backend": store_layout(CounterType(config["counter_type"])),
            "created_at": row["created_at"],
            "last_touched": row["last_touched"],
            "snapshot_path": row["snapshot_path"],
            "records_ingested": (
                service.records_ingested if service is not None else int(row["records_ingested"])
            ),
            "applied_clock": (
                service.applied_clock if service is not None else row["applied_clock"]
            ),
            "memory_bytes": self._service_memory(service) if service is not None else None,
        }
        return description

    async def tenant_stats(self, tenant: str) -> dict[str, Any]:
        """Live counters of one tenant (restores it when evicted)."""
        tenant = require_tenant(tenant)
        async with self._lock_for(tenant):
            service = await self._acquire(tenant)
            stats = service.stats()
        stats["tenant"] = tenant
        stats["resident"] = True
        return stats

    # ----------------------------------------------------- namespaced ops
    async def ingest(
        self,
        keys: Sequence[Hashable],
        clocks: Sequence[float],
        values: Sequence[int] | None = None,
        site: int = 0,
        tenant: str | None = None,
    ) -> int:
        """Validate and enqueue one chunk into one tenant's service."""
        name = require_tenant(tenant)
        async with self._lock_for(name):
            service = await self._acquire(name)
            accepted = await service.ingest(keys, clocks, values, site=site)
        self.records_ingested += accepted
        await self._enforce_budget()
        return accepted

    async def drain(self, tenant: str | None = None) -> dict[str, Any]:
        """Apply-barrier for one tenant, or for every resident tenant."""
        if tenant is None:
            clocks: list[Any] = []
            for name in list(self._resident):
                async with self._lock_for(name):
                    service = self._resident.get(name)
                    if service is not None:
                        await service.drain()
                        clocks.append(service.applied_clock)
            finite = [clock for clock in clocks if clock is not None]
            return {"applied_clock": max(finite) if finite else None}
        name = require_tenant(tenant)
        async with self._lock_for(name):
            service = await self._acquire(name)
            await service.drain()
            return {"applied_clock": service.applied_clock}

    async def expire_now(self, tenant: str | None = None) -> dict[str, Any]:
        """Expire out-of-window state in one tenant (or all resident)."""
        if tenant is None:
            result = await self.sweep()
            return {"applied_clock": None, "swept": result}
        name = require_tenant(tenant)
        async with self._lock_for(name):
            service = await self._acquire(name)
            service.expire_now()
            return {"applied_clock": service.applied_clock}

    async def snapshot_async(
        self, path: str | None = None, tenant: str | None = None
    ) -> str:
        """Snapshot one tenant (staying resident), or every resident tenant.

        With a tenant: writes that tenant's eviction-format snapshot (to
        ``path`` if given) and returns its path.  Without: snapshots every
        resident tenant to its eviction path and returns the pool directory.
        """
        if tenant is None:
            for name in list(self._resident):
                await self.snapshot_async(tenant=name)
            self.last_snapshot_path = self.pool_dir
            return self.pool_dir
        name = require_tenant(tenant)
        async with self._lock_for(name):
            service = await self._acquire(name)
            destination = path if path is not None else self._snapshot_path_for(name)
            await service.drain()
            written = await service.snapshot_async(destination)
            await self.catalog.call(  # records the durable watermarks ...
                self.catalog.mark_evicted,
                name, written, service.records_ingested, service.applied_clock,
            )
            # ... without leaving residency
            await self.catalog.call(self.catalog.mark_resident, name)
        self.last_snapshot_path = written
        return written

    async def query(self, op: str, message: dict[str, Any]) -> Any:
        """Answer one query op against the tenant named in the message."""
        name = require_tenant(message.get("tenant"))
        async with self._lock_for(name):
            service = await self._acquire(name)
            return service.query(op, message)

    # ------------------------------------------------------------------ info
    @property
    def applied_clock(self) -> float | None:
        clocks = [service.applied_clock for service in self._resident.values()]
        finite = [clock for clock in clocks if clock is not None]
        return max(finite) if finite else None

    def info(self) -> dict[str, Any]:
        from .protocol import PROTOCOL_VERSION

        info = self.config.describe()
        info["protocol_version"] = PROTOCOL_VERSION
        info["pool"] = True
        info["tenants"] = self._tenant_count
        return info

    def stats(self) -> dict[str, Any]:
        return {
            "mode": self.config.mode,
            "backend": self.config.resolved_backend,
            "pool": True,
            "tenants_total": self._tenant_count,
            "tenants_resident": len(self._resident),
            "tenants_created": self.tenants_created,
            "evictions": self.evictions,
            "restores": self.restores,
            "accounted_memory_bytes": self.accounted_bytes(),
            "memory_budget_bytes": self.config.memory_budget_bytes,
            "records_ingested": self.records_ingested,
            "background_errors": self.background_errors,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "draining": self._stopping,
        }

    def __repr__(self) -> str:
        return "TenantPool(tenants=%d, resident=%d, ingested=%d)" % (
            self._tenant_count if self._started else -1,
            len(self._resident),
            self.records_ingested,
        )
