"""HTTP/REST gateway in front of the NDJSON TCP tier.

``repro gateway`` runs one of these: a small stdlib-asyncio HTTP/1.1 server
that translates REST calls into protocol messages against a running sketch
server (single-process, pooled, or the sharded router — the gateway does not
care, it speaks the same protocol every client does, handshake included).

Routes live under ``/v1`` and are derived from the op table
(:data:`~repro.service.ops.OPS`): each op's ``http`` ``(method, route)``,
plus the same route under ``tenants/{id}/`` for an op taking a ``tenant``;
``GET /v1/healthz`` is the gateway's own liveness probe.  Responses are JSON
envelopes, exactly the wire shape of the TCP protocol; ``docs/api.md`` has
the route table.

Error mapping is by machine code, not message: the backend's typed error
envelope passes through verbatim as the response body, and its ``code``
picks the HTTP status from :data:`STATUS_FOR_CODE` — so the REST surface
and the TCP surface disagree on transport only, never on the error itself.

Query-string parameters are JSON-decoded when they parse (so ``key=7`` is
the integer 7, ``key="7"`` the string) and passed through as strings
otherwise; a parameter of wire type ``float_list`` (``fractions``) is a
comma-separated list.
"""

from __future__ import annotations
import contextlib

import asyncio
import json
import signal
import uuid
from collections.abc import Callable
from typing import Any
from urllib.parse import parse_qsl, unquote, urlsplit

from .client import RetryPolicy, ServiceClient
from .errors import (
    ERROR_CODES,
    DeadlineExceededError,
    ProtocolError,
    ServiceError,
    ServiceStoppedError,
    error_envelope,
)
from .ops import OPS, Op
from .protocol import MAX_LINE_BYTES

__all__ = ["STATUS_FOR_CODE", "GatewayServer", "run_gateway", "status_for_code"]

#: HTTP status for each protocol error code (its ``ERROR_CODES`` row), plus
#: the gateway's own routing codes.  Codes the registry does not know (a
#: newer server's) fall back to 500 — fail loud, not mislabelled.
STATUS_FOR_CODE: dict[str, int] = {
    **{code: row.status for code, row in ERROR_CODES.items()},
    "NOT_FOUND": 404,
    "METHOD_NOT_ALLOWED": 405,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: ``Retry-After`` value (seconds) sent with every 503: transient by
#: definition — the backend is restarting or a shard is mid-recovery.
_RETRY_AFTER_SECONDS = 1

#: Retry policy of the gateway's backend channel: reconnect-and-retry wins
#: over fail-loud now that ingest is exactly-once (``client``/``seq`` dedup).
_BACKEND_RETRY = RetryPolicy(attempts=4, base_delay=0.1, max_delay=2.0, deadline=30.0)

#: Budget for the healthz probe — a health check must answer fast.
_HEALTH_DEADLINE = 2.0

#: Bound on establishing one backend connection (RL006).
_CONNECT_TIMEOUT = 10.0

#: Request bodies larger than this are rejected (same bound as the protocol).
_MAX_BODY_BYTES = MAX_LINE_BYTES


def status_for_code(code: Any) -> int:
    """HTTP status for one error code (500 for anything unknown)."""
    if isinstance(code, str):
        return STATUS_FOR_CODE.get(code, 500)
    return 500


class _RouteError(Exception):
    """A gateway-level routing failure (never reaches the backend)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class _BackendChannel:
    """One serialized protocol connection to the backend tier.

    Requests on the NDJSON protocol are answered in order, so one connection
    guarded by a lock serves the gateway.  The connection carries a
    :class:`~repro.service.client.RetryPolicy`: a dropped connection or a
    restarted backend is reconnected and the request retried with backoff,
    which is safe for ingest because every chunk carries this channel's
    stable ``client`` id and a monotonic ``seq`` — a backend that already
    applied the chunk re-acknowledges it without double-counting.  Only when
    the whole retry budget is exhausted does the request fail (503/504), and
    the channel reconnects lazily on the next one.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._client: ServiceClient | None = None
        self._lock = asyncio.Lock()
        # Exactly-once identity of this channel: stable across backend
        # reconnects (a fresh ServiceClient would mint a fresh id, losing
        # the dedup window mid-retry).
        self._client_id = uuid.uuid4().hex[:16]
        self._seq = 0
        #: Requests that needed at least one retry/reconnect to succeed.
        self.retried_requests = 0

    async def request(self, message: dict[str, Any]) -> Any:
        # The lock intentionally serializes the whole round-trip: a channel
        # is ONE backend connection, and the TCP protocol is one-request-
        # one-response per connection (no interleaving), so peers queueing
        # behind the await is the design, not the RL003 race.
        async with self._lock:
            if message.get("op") == "ingest" and "seq" not in message:
                self._seq += 1
                message = dict(message, client=self._client_id, seq=self._seq)
            try:
                if self._client is None:
                    self._client = await ServiceClient.connect(  # reprolint: disable=RL003 -- see lock note
                        self.host, self.port, retry=_BACKEND_RETRY, timeout=_CONNECT_TIMEOUT
                    )
                retries_before = self._client.retries
                try:
                    return await self._client.call(message)
                finally:
                    if self._client is not None and self._client.retries > retries_before:
                        self.retried_requests += 1
            except DeadlineExceededError:
                # The deadline abandoned an in-flight round-trip, leaving the
                # server's eventual response unread: the stream is
                # desynchronized and reusing it would pair later requests
                # with stale answers.  Drop the client (it already closed its
                # transport) and reconnect lazily on the next request; the
                # 504 mapping for this request is unchanged.
                client, self._client = self._client, None
                if client is not None:
                    with contextlib.suppress(OSError):
                        await client.close()
                raise
            except (ConnectionError, OSError) as exc:
                client, self._client = self._client, None
                if client is not None:
                    await client.close()
                raise ServiceStoppedError(
                    "backend connection lost: %s" % (exc,), op=message.get("op")
                ) from exc

    async def ping(self, deadline: float) -> bool:
        """One bounded liveness probe; never raises.

        The outer ``wait_for`` also bounds time spent queueing behind an
        in-flight request on the channel lock: a wedged backend makes the
        health check answer "degraded", not hang.
        """
        try:
            return await asyncio.wait_for(self._ping_locked(deadline), deadline * 2.0)
        except Exception:  # noqa: BLE001 - a health probe reports, never raises
            return False

    async def _ping_locked(self, deadline: float) -> bool:
        async with self._lock:
            try:
                if self._client is None:
                    self._client = await ServiceClient.connect(  # reprolint: disable=RL003 -- bounded probe
                        self.host, self.port, retry=_BACKEND_RETRY, timeout=deadline
                    )
                # Deadline-bounded probe on the one-connection channel:
                # serializing peers behind it is the design, not the race.
                await self._client.request(  # reprolint: disable=RL003 -- bounded probe
                    {"op": "ping"}, deadline=deadline
                )
                return True
            except Exception:  # noqa: BLE001 - degraded, with cleanup
                client, self._client = self._client, None
                if client is not None:
                    with contextlib.suppress(OSError):
                        await client.close()
                return False

    async def close(self) -> None:
        async with self._lock:
            if self._client is not None:
                await self._client.close()
                self._client = None


def _build_routes() -> dict[tuple[str, ...], dict[str, Op]]:
    """REST path template -> {method: op}, from each op's ``http`` route."""
    routes: dict[tuple[str, ...], dict[str, Op]] = {}
    for op in OPS.values():
        if op.http is None:
            continue
        method, route = op.http
        templates = [route]
        if op.param("tenant") is not None and "{id}" not in route:
            templates.append("tenants/{id}/" + route)
        for template in templates:
            routes.setdefault(tuple(template.split("/")), {})[method] = op
    return routes


_ROUTES = _build_routes()


def _decode_param(op: Op, name: str, value: str) -> Any:
    param = op.param(name)
    if param is not None and param.wire == "float_list":
        try:
            return [float(part) for part in value.split(",") if part]
        except ValueError:
            raise _RouteError(
                "BAD_REQUEST", "%s must be comma-separated numbers" % (name,)
            ) from None
    try:
        return json.loads(value)
    except ValueError:
        return value


class GatewayServer:
    """The HTTP gateway: translate REST requests into protocol messages.

    Args:
        backend_host: Host of the sketch server to front.
        backend_port: Port of the sketch server to front.
        host: Interface the gateway binds.
        port: Port to bind (0 picks a free port; see :attr:`port` after
            :meth:`start`).
    """

    def __init__(
        self,
        backend_host: str = "127.0.0.1",
        backend_port: int = 7600,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.backend = _BackendChannel(backend_host, backend_port)
        self.host = host
        self.port = port
        self.requests_served = 0
        self._server: asyncio.AbstractServer | None = None
        self._shutdown_event = asyncio.Event()

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the HTTP listener (the backend connection opens lazily)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`shutdown` is called."""
        if self._server is None:
            raise ServiceError("gateway is not started")
        await self._shutdown_event.wait()
        await self.stop()

    async def shutdown(self) -> None:
        self._shutdown_event.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.backend.close()

    async def __aenter__(self) -> GatewayServer:
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self._shutdown_event.set()
        await self.stop()

    # ------------------------------------------------------------------ HTTP
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._handle_request(reader)
            body = json.dumps(payload).encode("utf-8")
            retry_after = ""
            if status == 503:
                retry_after = "Retry-After: %d\r\n" % _RETRY_AFTER_SECONDS
            writer.write(
                (
                    "HTTP/1.1 %d %s\r\n"
                    "Content-Type: application/json\r\n"
                    "Content-Length: %d\r\n"
                    "%s"
                    "Connection: close\r\n\r\n"
                    % (status, _REASONS.get(status, "Error"), len(body), retry_after)
                ).encode("ascii")
                + body
            )
            await writer.drain()
            self.requests_served += 1
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                await writer.wait_closed()

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, Any]]:
        op: str | None = None
        try:
            method, path, params, body = await self._read_request(reader)
            if path == ["v1", "healthz"]:
                if method != "GET":
                    raise _RouteError("METHOD_NOT_ALLOWED", "healthz serves GET, not %s" % method)
                return await self._healthz()
            message = self._route(method, path, params, body)
            op = message.get("op")
            # The channel's client applies each op's deadline class (the
            # op table) within _BACKEND_RETRY's overall budget.
            result = await self.backend.request(message)  # reprolint: disable=RL006
            return 200, {"ok": True, "result": result}
        except _RouteError as exc:
            envelope = {"code": exc.code, "message": str(exc), "op": op}
            return status_for_code(exc.code), {"ok": False, "error": envelope}
        except (ServiceError, ProtocolError) as exc:
            envelope = error_envelope(exc, op)
            return status_for_code(envelope["code"]), {"ok": False, "error": envelope}
        except Exception as exc:  # noqa: BLE001 - the gateway must answer
            envelope = {"code": "INTERNAL", "message": str(exc), "op": op}
            return 500, {"ok": False, "error": envelope}

    async def _healthz(self) -> tuple[int, dict[str, Any]]:
        """Liveness answer: 200 when the backend answers a bounded ping,
        503 (with ``Retry-After``) when it does not."""
        healthy = await self.backend.ping(_HEALTH_DEADLINE)
        if healthy:
            return 200, {"ok": True, "result": {"status": "healthy"}}
        return 503, {
            "ok": False,
            "error": {
                "code": "SERVICE_STOPPED",
                "message": "backend did not answer a ping within %.1f s" % _HEALTH_DEADLINE,
                "op": "ping",
            },
        }

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, list[str], list[tuple[str, str]], dict[str, Any] | None]:
        request_line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise _RouteError("BAD_REQUEST", "malformed request line %r" % request_line)
        method, target = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            header = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not header:
                break
            name, _, value = header.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _RouteError("BAD_REQUEST", "malformed Content-Length") from None
        if content_length > _MAX_BODY_BYTES:
            raise _RouteError("BAD_REQUEST", "request body too large")
        body: dict[str, Any] | None = None
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                decoded = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                raise _RouteError("BAD_REQUEST", "request body is not valid JSON") from None
            if not isinstance(decoded, dict):
                raise _RouteError("BAD_REQUEST", "request body must be a JSON object")
            body = decoded
        split = urlsplit(target)
        segments = [unquote(part) for part in split.path.split("/") if part]
        return method, segments, parse_qsl(split.query), body

    # --------------------------------------------------------------- routing
    def _route(
        self,
        method: str,
        path: list[str],
        query: list[tuple[str, str]],
        body: dict[str, Any] | None,
    ) -> dict[str, Any]:
        """Translate one HTTP request into one protocol message.

        A GET carries its fields in the query string; any other method in
        its JSON body, which an op taking a whole object (``tenant_create``'s
        ``config``) receives as that object.
        """
        if not path or path[0] != "v1":
            raise _RouteError("NOT_FOUND", "unknown path (the API lives under /v1)")
        route = path[1:]
        tenant = route[1] if len(route) > 1 and route[0] == "tenants" else None
        template = tuple(route) if tenant is None else ("tenants", "{id}", *route[2:])
        methods = _ROUTES.get(template)
        if methods is None:
            if template[:-1] in (("query",), ("tenants", "{id}", "query")):
                raise _RouteError("UNKNOWN_OP", "%r is not a query op" % (template[-1],))
            raise _RouteError("NOT_FOUND", "no such resource: %s" % "/".join(route))
        op = methods.get(method)
        if op is None:
            raise _RouteError(
                "METHOD_NOT_ALLOWED",
                "%s serves %s, not %s" % ("/".join(template), ", ".join(methods), method),
            )
        if method == "GET":
            message = {name: _decode_param(op, name, value) for name, value in query}
        else:
            whole = next((param.name for param in op.params if param.wire == "object"), None)
            message = {whole: body} if whole is not None and body else dict(body or {})
        message["op"] = op.name
        if tenant is not None:
            message["tenant"] = tenant
        return message


async def run_gateway(
    backend_host: str = "127.0.0.1",
    backend_port: int = 7600,
    host: str = "127.0.0.1",
    port: int = 8080,
    ready: Callable[[int], None] | None = None,
    label: str = "repro-gateway",
) -> int:
    """Boot a gateway, serve until SIGTERM/SIGINT, return an exit code."""
    gateway = GatewayServer(backend_host, backend_port, host=host, port=port)
    await gateway.start()
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, gateway._shutdown_event.set)
            installed.append(signum)
    try:
        print(
            "%s: listening on %s:%d (backend %s:%d)"
            % (label, gateway.host, gateway.port, backend_host, backend_port),
            flush=True,
        )
        if ready is not None:
            ready(gateway.port)
        await gateway.serve_until_shutdown()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
    print("%s: stopped (%d requests served)" % (label, gateway.requests_served), flush=True)
    return 0
