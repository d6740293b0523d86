"""Long-running sketch service: concurrent ingest/query over a live ECM-sketch.

Every layer below this package runs as a finish-then-report batch job.  The
paper's setting, however, is a *live* one: coordinators answer sliding-window
queries at any time over continuously arriving streams.  This package is that
serving path:

* :class:`~repro.service.core.SketchService` — owns the live sketch state
  (a flat :class:`~repro.core.ecm_sketch.ECMSketch`, a
  :class:`~repro.queries.hierarchical.HierarchicalECMSketch`, or a multi-site
  :class:`~repro.distributed.continuous.PeriodicAggregationCoordinator`)
  behind a bounded ingest queue.  Arrivals are micro-batched into ``add_many``
  calls; queries are answered from the live state between batches; background
  tasks run periodic ``expire`` sweeps and snapshots.
* :class:`~repro.service.server.SketchServer` — a newline-delimited-JSON TCP
  front end (``asyncio.start_server``) with graceful drain-on-shutdown.
* :class:`~repro.service.pool.TenantPool` — the multi-tenant pool: a SQLite
  tenant catalog, per-tenant sketch services, and a memory governor that
  evicts least-recently-touched tenants to snapshots under a byte budget and
  restores them lazily (byte-identically) on the next touch.
* :class:`~repro.service.gateway.GatewayServer` — the HTTP/REST face: maps
  REST routes under ``/v1`` onto protocol messages and protocol error codes
  onto HTTP statuses.
* :class:`~repro.service.client.ServiceClient` /
  :class:`~repro.service.client.SyncServiceClient` — the typed client layer
  (sync wraps async; results are :mod:`~repro.service.models` dataclasses,
  failures are :mod:`~repro.service.errors` exceptions).
* :mod:`~repro.service.snapshot` — atomic snapshot/restore of the whole
  service state on the existing serialization wire format.
* :mod:`~repro.service.replay` — a load driver that replays a generated
  stream at a target rate (optionally over several shard-affine connections)
  and reports achieved throughput and query latency.
* :mod:`~repro.service.router` / :mod:`~repro.service.shard_worker` — the
  sharded serving tier: a front-end :class:`~repro.service.router.ShardRouter`
  hash-partitions the key universe (or the sites) across worker processes,
  each a full service, and answers queries by merging per-shard estimates
  (the paper's Theorem 4 order-preserving aggregation).  ``--pool`` composes:
  tenants are hashed across workers, each worker running its own pool.
* :mod:`~repro.service.launch` — subprocess harness booting ``repro serve``
  with banner-based (not poll-based) readiness for tests and benchmarks.

The CLI front ends are ``repro serve`` (``--shards N`` for the sharded tier,
``--pool --pool-dir D --memory-budget B`` for the tenant pool), ``repro
gateway`` (the REST front), and ``repro replay`` (``--connections M`` for
concurrent ingest).
"""

from __future__ import annotations

import importlib
from typing import Any

#: Every public name of the package and the submodule that defines it.  The
#: package imports nothing up front: a name's submodule is imported on first
#: access (PEP 562), so ``repro serve`` loads only the layers its mode runs —
#: a flat server never imports the gateway, the client, the tenant pool (and
#: ``sqlite3``), the router or the worker.
_EXPORTS: dict[str, str] = {
    "ServiceConfig": "config",
    "SketchService": "core",
    "SketchServer": "server",
    "run_server": "server",
    "dispatch_service_op": "server",
    # clients + typed results
    "ServiceClient": "client",
    "SyncServiceClient": "client",
    "RetryPolicy": "client",
    "HeavyHitter": "models",
    "ServerInfo": "models",
    "ServerStats": "models",
    "TenantDescription": "models",
    "TenantStats": "models",
    # errors
    "ServiceError": "errors",
    "ServiceRequestError": "errors",
    "BadRequestError": "errors",
    "UnknownOperationError": "errors",
    "InvalidParameterError": "errors",
    "ModeMismatchError": "errors",
    "EmptyStateError": "errors",
    "IngestRejectedError": "errors",
    "ClockRegressionError": "errors",
    "ServiceStoppedError": "errors",
    "ShardUnavailableError": "errors",
    "DeadlineExceededError": "errors",
    "VersionMismatchError": "errors",
    "PoolDisabledError": "errors",
    "TenantRequiredError": "errors",
    "TenantNotFoundError": "errors",
    "TenantExistsError": "errors",
    "TenantEvictedError": "errors",
    "ERROR_CODES": "errors",
    "error_envelope": "errors",
    "exception_for_error": "errors",
    # protocol
    "ProtocolError": "protocol",
    "MAX_LINE_BYTES": "protocol",
    "PROTOCOL_VERSION": "protocol",
    "protocol_major": "protocol",
    "check_protocol_version": "protocol",
    "encode_message": "protocol",
    "decode_line": "protocol",
    # pool
    "TenantPool": "pool",
    "TenantCatalog": "pool",
    "TENANT_CONFIG_KEYS": "pool",
    # gateway
    "GatewayServer": "gateway",
    "run_gateway": "gateway",
    "STATUS_FOR_CODE": "gateway",
    "status_for_code": "gateway",
    # harness + replay
    "ServeProcess": "launch",
    "repro_env": "launch",
    "ReplayReport": "replay",
    "build_replay_stream": "replay",
    "run_replay": "replay",
    # sharded tier
    "ShardRouter": "router",
    "LocalShardBackend": "router",
    "ProcessShardBackend": "router",
    "shard_of": "router",
    "shard_column": "router",
    "ShardProcess": "shard_worker",
    "sites_of_shard": "shard_worker",
    "worker_config": "shard_worker",
    # fault tolerance
    "IngestJournal": "journal",
    "JournalRecord": "journal",
    "journal_dir_for_shard": "journal",
    "ShardSupervisor": "supervision",
    "HEALTHY": "supervision",
    "DEGRADED": "supervision",
    "RECOVERING": "supervision",
    "failpoints": "failpoints",
    # snapshots
    "snapshot_payload": "snapshot",
    "write_snapshot": "snapshot",
    "load_snapshot": "snapshot",
    "read_snapshot": "snapshot",
    "service_state_from_snapshot": "snapshot",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("." + submodule, __name__)
    value = module if submodule == name else getattr(module, name)
    globals()[name] = value
    return value
