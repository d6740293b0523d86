"""Configuration of the live sketch service.

One :class:`ServiceConfig` fully determines the served sketch state (mode,
error budgets, window, counter type) plus the service-level knobs (micro-batch
size, queue bound, background periods).  It round-trips through plain
dictionaries so snapshots can embed it and a restored process can rebuild an
identically parameterised service without re-specifying flags.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from ..core.config import CounterType, store_layout
from ..core.errors import ConfigurationError
from ..windows.base import WindowModel, validate_delta, validate_epsilon, validate_window

__all__ = ["ServiceConfig", "SERVICE_MODES"]

#: Supported service modes.
#:
#: * ``"flat"`` — one :class:`~repro.core.ecm_sketch.ECMSketch` over arbitrary
#:   scalar keys; point / self-join / arrivals queries.
#: * ``"hierarchical"`` — one
#:   :class:`~repro.queries.hierarchical.HierarchicalECMSketch` over an integer
#:   universe; adds range / heavy-hitter / quantile queries.
#: * ``"multisite"`` — ``sites`` local sketches behind a
#:   :class:`~repro.distributed.continuous.PeriodicAggregationCoordinator`;
#:   queries are answered from the latest aggregation round (stale by at most
#:   one period).
SERVICE_MODES = ("flat", "hierarchical", "multisite")

#: Default of :func:`_decoded` for required keys.
_ABSENT = object()


def _decoded(
    payload: dict[str, Any], key: str, decode: Callable[[Any], Any], default: Any = _ABSENT
) -> Any:
    """``decode(payload[key])``, or ``default`` when an optional key is absent.

    A value ``decode`` rejects raises :class:`ConfigurationError` naming the key.
    """
    if key not in payload and default is not _ABSENT:
        return default
    value = payload[key]
    try:
        return decode(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError("%s: cannot decode %r (%s)" % (key, value, exc)) from exc


@dataclass
class ServiceConfig:
    """Full parameterisation of a :class:`~repro.service.core.SketchService`.

    Attributes:
        mode: One of :data:`SERVICE_MODES`.
        epsilon: Total point-query error budget of the served sketches.
        delta: Failure probability of the served sketches.
        window: Sliding-window length (stream-clock units, or arrivals for
            count-based windows).
        model: Time-based or count-based window model.
        counter_type: Sliding-window counter algorithm (EH by default).  It
            also decides the counter-grid layout (:attr:`resolved_backend`);
            no field selects the layout.
        universe_bits: Key-universe capacity of the hierarchical mode
            (``2**universe_bits`` distinct integer keys).
        sites: Number of observation sites of the multisite mode.
        period: Aggregation period of the multisite mode, in stream-clock
            units.
        batch_size: Micro-batch cap of the ingest loop: queued chunks are
            coalesced into ``add_many`` calls of at most this many arrivals.
        queue_chunks: Bound of the ingest queue, in chunks.  A full queue
            suspends producers (and, through the TCP server, stops reading
            from their sockets) — that is the backpressure path.
        expire_every: Wall-clock period of the background ``expire`` sweep,
            in seconds (``None`` disables the sweep).
        snapshot_every: Wall-clock period of the background snapshot task,
            in seconds (``None`` disables periodic snapshots).
        snapshot_path: Where snapshots are written (atomic replace).  Also
            the target of the final drain-on-shutdown snapshot.
        max_arrivals: Arrival cap per window for wave counters.
        seed: Hash seed shared by all served sketches.
        shards: When set, serve through the sharded tier: a front-end router
            partitions the key universe (or the sites, in multisite mode)
            across this many :class:`~repro.service.core.SketchService`
            worker processes.  ``None`` serves from one in-process service.
        pool: Serve a multi-tenant :class:`~repro.service.pool.TenantPool`
            instead of one sketch: every stateful op is namespaced by a
            ``tenant`` id, and this config becomes the default tenant
            parameterisation (per-tenant overrides at ``tenant_create``).
            Composes with ``shards``: tenants are hashed across workers
            ahead of the key partition, each worker running its own pool.
        pool_dir: Durable pool directory — the SQLite tenant catalog plus
            per-tenant eviction snapshots live here.  Required when ``pool``
            is set.
        memory_budget_bytes: Resident-memory budget of the pool, summed over
            per-tenant ``memory_bytes()``.  When the accounted total exceeds
            it, cold tenants are evicted (LRU) to snapshots until it fits.
            ``None`` disables eviction.
        journal_dir: Directory of the write-ahead ingest journal.  When set,
            every validated chunk is journaled *before* it is acked, the
            journal rotates at snapshot epochs, and a restarted service
            replays the tail on boot — no acked record is lost to a crash.
            ``None`` disables journaling (the pre-WAL durability posture).
        journal_fsync: Per-append ``os.fsync`` of the journal.  The default
            (``False``) flushes to the OS on every record — durable against
            process crashes, which is what the supervisor heals — while the
            fsync upgrade buys power-loss durability at a throughput cost.
        dedup_clients: Per-client ingest dedup window size: the service
            remembers the highest acked ``(client_id, seq)`` for this many
            most-recent clients, so a retried chunk is acked idempotently
            instead of double-applied.  Exactly-once ingest holds as long
            as a client's entry is not evicted mid-retry.
        supervise: Automatic shard recovery in the sharded tier: the router
            watches worker liveness and respawns dead shards (snapshot
            restore + journal replay) with capped exponential backoff.
            Off by default — the unsupervised tier fails fast and leaves
            recovery to the operator (``restart_shard``).
    """

    mode: str = "flat"
    epsilon: float = 0.05
    delta: float = 0.05
    window: float = 1_000_000.0
    model: WindowModel = WindowModel.TIME_BASED
    counter_type: CounterType = CounterType.EXPONENTIAL_HISTOGRAM
    universe_bits: int = 12
    sites: int = 4
    period: float = 10_000.0
    batch_size: int = 1_024
    queue_chunks: int = 64
    expire_every: float | None = 5.0
    snapshot_every: float | None = None
    snapshot_path: str | None = None
    max_arrivals: int | None = None
    seed: int = 0
    shards: int | None = None
    pool: bool = False
    pool_dir: str | None = None
    memory_budget_bytes: int | None = None
    journal_dir: str | None = None
    journal_fsync: bool = False
    dedup_clients: int = 1_024
    supervise: bool = False

    def __post_init__(self) -> None:
        if self.mode not in SERVICE_MODES:
            raise ConfigurationError(
                "mode must be one of %s, got %r" % (", ".join(SERVICE_MODES), self.mode)
            )
        validate_epsilon(self.epsilon)
        validate_delta(self.delta)
        validate_window(self.window)
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive, got %r" % (self.batch_size,))
        if self.queue_chunks <= 0:
            raise ConfigurationError("queue_chunks must be positive, got %r" % (self.queue_chunks,))
        if self.mode == "multisite" and self.sites <= 0:
            raise ConfigurationError("sites must be positive, got %r" % (self.sites,))
        if self.mode == "multisite":
            validate_window(self.period, "period")
        if self.expire_every is not None and self.expire_every <= 0:
            raise ConfigurationError("expire_every must be positive, got %r" % (self.expire_every,))
        if self.snapshot_every is not None and self.snapshot_every <= 0:
            raise ConfigurationError(
                "snapshot_every must be positive, got %r" % (self.snapshot_every,)
            )
        if self.snapshot_every is not None and self.snapshot_path is None:
            raise ConfigurationError("snapshot_every requires snapshot_path")
        if self.shards is not None:
            if self.shards <= 0:
                raise ConfigurationError("shards must be positive, got %r" % (self.shards,))
            if self.mode == "multisite" and self.shards > self.sites:
                raise ConfigurationError(
                    "multisite sharding partitions sites across workers: shards (%d) "
                    "cannot exceed sites (%d)" % (self.shards, self.sites)
                )
        if self.pool:
            if self.pool_dir is None:
                raise ConfigurationError("pool requires pool_dir (catalog + eviction snapshots)")
            if self.snapshot_path is not None or self.snapshot_every is not None:
                raise ConfigurationError(
                    "pool manages per-tenant snapshots itself; "
                    "snapshot_path/snapshot_every do not apply"
                )
        if self.memory_budget_bytes is not None:
            if not self.pool:
                raise ConfigurationError("memory_budget_bytes requires pool")
            if self.memory_budget_bytes <= 0:
                raise ConfigurationError(
                    "memory_budget_bytes must be positive, got %r" % (self.memory_budget_bytes,)
                )
        if self.pool_dir is not None and not self.pool:
            raise ConfigurationError("pool_dir requires pool")
        if self.dedup_clients <= 0:
            raise ConfigurationError(
                "dedup_clients must be positive, got %r" % (self.dedup_clients,)
            )
        if self.journal_fsync and self.journal_dir is None:
            raise ConfigurationError("journal_fsync requires journal_dir")
        if self.journal_dir is not None and self.pool:
            raise ConfigurationError(
                "journaling of pooled tenants is not supported yet; "
                "journal_dir does not compose with pool"
            )
        if self.supervise and self.shards is None:
            raise ConfigurationError("supervise requires shards (it heals the sharded tier)")

    # ------------------------------------------------------------- wire form
    def to_dict(self) -> dict[str, Any]:
        """Plain-dictionary form (JSON-compatible scalars only)."""
        return {
            "mode": self.mode,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "window": self.window,
            "model": self.model.value,
            "counter_type": self.counter_type.value,
            "universe_bits": self.universe_bits,
            "sites": self.sites,
            "period": self.period,
            "batch_size": self.batch_size,
            "queue_chunks": self.queue_chunks,
            "expire_every": self.expire_every,
            "snapshot_every": self.snapshot_every,
            "snapshot_path": self.snapshot_path,
            "max_arrivals": self.max_arrivals,
            "seed": self.seed,
            "shards": self.shards,
            "pool": self.pool,
            "pool_dir": self.pool_dir,
            "memory_budget_bytes": self.memory_budget_bytes,
            "journal_dir": self.journal_dir,
            "journal_fsync": self.journal_fsync,
            "dedup_clients": self.dedup_clients,
            "supervise": self.supervise,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> ServiceConfig:
        """Rebuild a configuration serialized by :meth:`to_dict`.

        A ``"backend"`` key, written by builds where the counter-grid layout
        was an option, is ignored with any value.  Raises
        :class:`~repro.core.errors.ConfigurationError` naming the field for
        a missing, mistyped or out-of-range value.
        """
        try:
            return cls(
                mode=payload["mode"],
                epsilon=payload["epsilon"],
                delta=payload["delta"],
                window=payload["window"],
                model=_decoded(payload, "model", WindowModel),
                counter_type=_decoded(payload, "counter_type", CounterType),
                universe_bits=_decoded(payload, "universe_bits", int),
                sites=_decoded(payload, "sites", int),
                period=payload["period"],
                batch_size=_decoded(payload, "batch_size", int),
                queue_chunks=_decoded(payload, "queue_chunks", int),
                expire_every=payload.get("expire_every"),
                snapshot_every=payload.get("snapshot_every"),
                snapshot_path=payload.get("snapshot_path"),
                max_arrivals=payload.get("max_arrivals"),
                seed=_decoded(payload, "seed", int, 0),
                shards=payload.get("shards"),
                pool=bool(payload.get("pool", False)),
                pool_dir=payload.get("pool_dir"),
                memory_budget_bytes=payload.get("memory_budget_bytes"),
                # Absent in pre-journal snapshots; default to the old posture.
                journal_dir=payload.get("journal_dir"),
                journal_fsync=bool(payload.get("journal_fsync", False)),
                dedup_clients=_decoded(payload, "dedup_clients", int, 1_024),
                supervise=bool(payload.get("supervise", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError("malformed service config payload: %s" % (exc,)) from exc

    # --------------------------------------------------------------- summary
    @property
    def resolved_backend(self) -> str:
        """Counter-grid layout of the served sketches, derived from the counter type."""
        return store_layout(self.counter_type)

    def describe(self) -> dict[str, Any]:
        """The subset of the configuration a client needs to build matching load."""
        info: dict[str, Any] = {
            "mode": self.mode,
            "epsilon": self.epsilon,
            "window": self.window,
            "model": self.model.value,
            "counter_type": self.counter_type.value,
            "backend": self.resolved_backend,
            "batch_size": self.batch_size,
        }
        if self.mode == "hierarchical":
            info["universe_bits"] = self.universe_bits
        if self.mode == "multisite":
            info["sites"] = self.sites
            info["period"] = self.period
        if self.shards is not None:
            info["shards"] = self.shards
        if self.pool:
            info["pool"] = True
            info["memory_budget_bytes"] = self.memory_budget_bytes
        if self.journal_dir is not None:
            info["journaled"] = True
        if self.supervise:
            info["supervised"] = True
        return info
