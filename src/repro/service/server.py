"""The TCP front end of the sketch service.

One :class:`SketchServer` wraps one :class:`~repro.service.core.SketchService`
behind a newline-delimited-JSON protocol (:mod:`repro.service.protocol`) on
``asyncio.start_server``.  Each connection is served by one coroutine that
reads a request line, dispatches it, and writes the response line — so a
connection's requests are handled strictly in order, and an ``ingest`` that
is suspended on the bounded queue stops the connection from being read
further: backpressure reaches the client's socket, not a buffer.

Shutdown is graceful by default (``shutdown`` op, :func:`run_server` on
SIGTERM/SIGINT, or :meth:`SketchServer.shutdown`): the listener closes, the
ingest queue drains, a final snapshot is written when a snapshot path is
configured, and only then does the process exit.
"""

from __future__ import annotations
import contextlib

import asyncio
import inspect
import signal
import sys
from collections.abc import Callable
from typing import Any, TYPE_CHECKING

from ..core.errors import ConfigurationError, EmptyStructureError
from . import failpoints
from .config import ServiceConfig
from .errors import (
    BadRequestError,
    ModeMismatchError,
    PoolDisabledError,
    ServiceError,
    ServiceStoppedError,
    UnknownOperationError,
)
from .ops import OPS, check_params
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    check_protocol_version,
    decode_line,
    encode_message,
    error_response,
    error_response_for,
    ok_response,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import SketchService
    from .pool import TenantPool
    from .router import ShardRouter

__all__ = ["SketchServer", "ServingState", "dispatch_service_op", "run_server"]

#: Anything a :class:`SketchServer` can front: the in-process service core,
#: the multi-tenant pool, or the sharded router (which duck-type the same
#: surface, sometimes with awaitable results — :func:`dispatch_service_op`
#: awaits whatever it gets back).
# The whole alias is a string: its members are TYPE_CHECKING-only (each is
# imported where its mode builds one), so the union must not evaluate at
# runtime.
ServingState = "SketchService | TenantPool | ShardRouter"

async def _maybe_await(value: Any) -> Any:
    """Resolve a result that may be a plain value or an awaitable.

    :class:`~repro.service.core.SketchService` answers queries/stats
    synchronously; the shard router returns coroutines (it has to fan out
    over worker connections).  One dispatch path serves both.
    """
    if inspect.isawaitable(value):
        return await value
    return value


async def dispatch_service_op(service: ServingState, message: dict[str, Any]) -> Any:
    """Dispatch one protocol message against a service (or router) surface.

    Shared by the TCP server and the router's in-process shard backend, so a
    local shard answers through exactly the code path a TCP worker would.
    The op's :data:`~repro.service.ops.OPS` row gates it: unknown names fail
    ``UNKNOWN_OP``, tenant ops need a pooled server, a ``shard`` parameter
    needs a sharded one, and the fields of non-query ops are checked against
    their wire types (query handlers validate their own parameters).  Raises
    the usual service/protocol errors; the callers map them to error
    envelopes (TCP) or propagate them (router merge logic).
    """
    name = message.get("op")
    if not isinstance(name, str):
        raise ProtocolError("message is missing the 'op' field")
    op = OPS.get(name)
    if op is None:
        raise UnknownOperationError("unknown op %r" % (name,))
    pooled = bool(getattr(service, "supports_tenants", False))
    tenant = message.get("tenant")
    if tenant is not None:
        if not isinstance(tenant, str):
            raise BadRequestError("'tenant' must be a string", op=name)
        if not pooled:
            raise PoolDisabledError(
                "this server hosts a single sketch, not a tenant pool "
                "(start it with --pool to serve tenant %r)" % (tenant,),
                op=name,
            )
    if op.kind == "query":
        return await _maybe_await(service.query(name, message))
    if op.kind == "tenant" and not pooled:
        raise PoolDisabledError("%s requires a pooled server (--pool)" % (name,), op=name)
    check_params(op, message)
    shard = message.get("shard")
    if op.sharded and shard is not None and not hasattr(service, "restart_shard"):
        raise ModeMismatchError("%s with 'shard' requires a sharded server" % (name,), op=name)
    if name == "ping":
        return "pong"
    if name == "hello":
        check_protocol_version(message.get("protocol_version", PROTOCOL_VERSION))
        return {"server": "repro-sketch-service", "protocol_version": PROTOCOL_VERSION}
    if name == "info":
        return await _maybe_await(service.info())
    if name == "stats":
        return await _maybe_await(service.stats())
    if name == "tenant_list":
        return await _maybe_await(service.tenant_list())
    if name == "pool_sweep":
        return await _maybe_await(service.sweep())
    if name == "tenant_create":
        return await _maybe_await(service.tenant_create(tenant, message.get("config")))
    if name == "tenant_delete":
        return await _maybe_await(service.tenant_delete(tenant))
    if name == "tenant_stats":
        return await _maybe_await(service.tenant_stats(tenant))
    if name == "ingest":
        await failpoints.fire_async("server.ingest")
        keys, clocks, values = message["keys"], message["clocks"], message.get("values")
        site = message.get("site") or 0
        if pooled:
            # Pooled tenants are not journaled (config forbids the combo),
            # so the retry identity is dropped rather than half-honoured.
            accepted = await service.ingest(keys, clocks, values, site=site, tenant=tenant)
        else:
            accepted = await service.ingest(
                keys, clocks, values, site=site,
                client_id=message.get("client"), seq=message.get("seq"),
            )
        return {"accepted": accepted}
    if name == "drain":
        if pooled:
            return await _maybe_await(service.drain(tenant=tenant))
        await service.drain()
        return {"applied_clock": service.applied_clock}
    if name == "expire":
        if pooled:
            return await _maybe_await(service.expire_now(tenant=tenant))
        await _maybe_await(service.expire_now())
        return {"applied_clock": service.applied_clock}
    if name == "snapshot":
        path = message.get("path")
        if pooled:
            return {"path": await _maybe_await(service.snapshot_async(path, tenant=tenant))}
        return {"path": await service.snapshot_async(path)}
    if name == "restart_shard":
        return await service.restart_shard(shard)
    if name == "failpoint":
        # Fault injection: arm/disarm named failure sites in *this* process,
        # or (with 'shard') in one worker of a sharded server.  Inline
        # dispatch like restart_shard — an operator op, not a query.
        if shard is not None:
            return await service.forward_failpoint(shard, message)
        spec = message.get("spec")
        if spec is not None:
            try:
                return {"armed": failpoints.configure(spec)}
            except failpoints.FailpointError as exc:
                raise BadRequestError(str(exc), op=name) from exc
        if message.get("disarm"):
            failpoints.disarm(message.get("name"))
        return {"armed": failpoints.armed()}
    # shutdown: answered by the TCP front end (SketchServer), never here.
    raise UnknownOperationError("%s is not served by this endpoint" % (name,), op=name)


class SketchServer:
    """Serve one :class:`~repro.service.core.SketchService` over TCP.

    Args:
        service: The service core, or a
            :class:`~repro.service.router.ShardRouter` fronting worker
            processes (not yet started; :meth:`start` starts it).
        host: Interface to bind.
        port: Port to bind (0 picks a free port; see :attr:`port` after
            :meth:`start`).
    """

    def __init__(self, service: ServingState, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown_event = asyncio.Event()
        self._shutting_down = False
        self._connections: set[asyncio.StreamWriter] = set()
        self.connections_served = 0
        self.requests_served = 0

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the service core and bind the listener."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port, limit=MAX_LINE_BYTES
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request or :meth:`shutdown` arrives."""
        if self._server is None:
            raise ServiceError("server is not started")
        await self._shutdown_event.wait()
        await self._finalize()

    async def shutdown(self) -> None:
        """Trigger a graceful shutdown (drain + final snapshot)."""
        self._shutdown_event.set()

    async def _finalize(self) -> None:
        if self._shutting_down:
            return
        self._shutting_down = True
        if self._server is not None:
            self._server.close()
            # Close every established connection before wait_closed():
            # handlers parked in readline() wake up with EOF and return.
            # Without this, Python >= 3.12.1 (where Server.wait_closed
            # really waits for all handlers) would hang for as long as any
            # idle client kept its connection open.
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop(drain=True)

    async def __aenter__(self) -> SketchServer:
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self._shutdown_event.set()
        await self._finalize()

    # ------------------------------------------------------------ connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_served += 1
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode_message(error_response("PROTOCOL", "request line too long")))
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._dispatch_line(line)
                # "drop" here severs the connection *after* dispatch: the
                # request took effect but its ack is lost — the retry/dedup
                # scenario, as a failpoint.
                await failpoints.fire_async("server.respond")
                writer.write(encode_message(response))
                await writer.drain()
                if self._shutdown_event.is_set():
                    # The response (the shutdown ack, or this connection's
                    # last in-flight request) is on the wire; stop reading.
                    break
        except ConnectionResetError:
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                await writer.wait_closed()

    async def _dispatch_line(self, line: bytes) -> dict[str, Any]:
        try:
            message = decode_line(line)
        except ProtocolError as exc:
            return error_response_for(exc)
        request_id = message.get("id")
        op = message.get("op") if isinstance(message.get("op"), str) else None
        try:
            result = await self._dispatch(message)
        except (
            ServiceError,
            ProtocolError,
            ConfigurationError,
            EmptyStructureError,
        ) as exc:
            return error_response_for(exc, op, request_id)
        except (TypeError, ValueError, KeyError) as exc:
            return error_response("BAD_REQUEST", "bad request: %s" % (exc,), op, request_id)
        self.requests_served += 1
        return ok_response(result, request_id)

    async def _dispatch(self, message: dict[str, Any]) -> Any:
        op = message.get("op")
        if op == "shutdown":
            self._shutdown_event.set()
            return {"stopping": True}
        if op == "ingest" and self._shutdown_event.is_set():
            raise ServiceStoppedError("server is shutting down")
        return await dispatch_service_op(self.service, message)


async def run_server(
    config: ServiceConfig,
    host: str = "127.0.0.1",
    port: int = 0,
    restore: str | None = None,
    ready: Callable[[int], None] | None = None,
    label: str = "repro-serve",
) -> int:
    """Boot a server, serve until shutdown, return a process exit code.

    Installs SIGTERM/SIGINT handlers for graceful drain-on-shutdown (on
    platforms without ``loop.add_signal_handler`` the handlers are skipped
    and only the protocol-level ``shutdown`` op stops the server).

    When ``config.shards`` is set (or ``restore`` names a shard manifest)
    the served state is a :class:`~repro.service.router.ShardRouter` fronting
    that many worker processes instead of one in-process service.

    Args:
        config: Service configuration (ignored for sketch state when
            ``restore`` is given: the snapshot's own configuration wins,
            with the operational knobs — ``snapshot_path``, periods,
            ``batch_size``, ``queue_chunks`` — taken from ``config``).
        host: Interface to bind.
        port: Port to bind (0 picks a free one).
        restore: Path of a snapshot (or shard manifest) to restore from.
        ready: Callback invoked with the bound port once serving.
        label: Prefix of the stdout banner lines.  Shard workers use a
            distinct per-shard label so anything parsing the parent's
            ``repro-serve: listening on`` line never matches a worker's.
    """
    service: ServingState
    restore_kind: str | None = None
    if restore is not None:
        if config.pool:
            raise ConfigurationError(
                "--restore does not apply to a pooled server: the pool directory "
                "(catalog + per-tenant snapshots) is the durable state"
            )
        # Boot-time read of the file's head, before any listener exists:
        # nothing else runs on this loop yet, so there is no ingest/query
        # to stall.
        from .snapshot import document_kind

        try:
            restore_kind = document_kind(restore)
        except OSError as exc:
            raise ConfigurationError("cannot read the --restore snapshot: %s" % (exc,)) from exc
    if config.shards is not None or restore_kind == "shard_manifest":
        from .router import ShardRouter

        if restore is not None:
            service = ShardRouter.from_manifest(restore, overrides=config)
        else:
            service = ShardRouter(config)
    elif config.pool:
        from .pool import TenantPool

        service = TenantPool(config)
    elif restore is not None:
        from .core import SketchService

        service = SketchService.from_snapshot(restore)
        # Operational knobs follow the *current* invocation, not the one
        # that wrote the snapshot; only the sketch-state parameters (mode,
        # epsilon, window, counter type, ...) are pinned by the snapshot.
        service.config.snapshot_path = config.snapshot_path
        service.config.snapshot_every = config.snapshot_every
        service.config.expire_every = config.expire_every
        service.config.batch_size = config.batch_size
        service.config.queue_chunks = config.queue_chunks
        service.config.journal_dir = config.journal_dir
        service.config.journal_fsync = config.journal_fsync
        service.config.dedup_clients = config.dedup_clients
        if config.journal_dir is not None:
            from .journal import IngestJournal

            service._journal = IngestJournal(
                config.journal_dir, fsync_each=config.journal_fsync
            )
    else:
        from .core import SketchService

        service = SketchService(config)
    # Boot-time fault injection (chaos harness): a spec in REPRO_FAILPOINTS
    # arms this process before it serves its first request.
    failpoints.load_from_env()
    server = SketchServer(service, host=host, port=port)
    await server.start()

    loop = asyncio.get_running_loop()
    installed_signals = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, server._shutdown_event.set)
            installed_signals.append(signum)
    try:
        print(
            "%s: listening on %s:%d (mode=%s, backend=%s%s%s%s)"
            % (
                label,
                server.host,
                server.port,
                service.config.mode,
                service.config.resolved_backend,
                ", shards=%d" % service.config.shards
                if service.config.shards is not None
                else "",
                ", pool" if service.config.pool else "",
                ", restored" if restore is not None else "",
            ),
            flush=True,
        )
        if ready is not None:
            ready(server.port)
        await server.serve_until_shutdown()
    finally:
        for signum in installed_signals:
            loop.remove_signal_handler(signum)
    print(
        "%s: drained (%d records ingested, %d requests); %s"
        % (
            label,
            service.records_ingested,
            server.requests_served,
            "final snapshot at %s" % service.last_snapshot_path
            if service.last_snapshot_path
            else "no snapshot configured",
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - convenience entry
    sys.exit(asyncio.run(run_server(ServiceConfig())))
