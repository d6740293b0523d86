"""The client surface of the sketch-service protocol.

One typed request layer, two faces:

* :class:`ServiceClient` — the asyncio implementation.  Every protocol
  operation is implemented exactly once, here.
* :class:`SyncServiceClient` — the blocking face for tests, scripts and
  interactive use: a thin wrapper that drives a private event loop and
  delegates every call to an inner :class:`ServiceClient`.

Connecting performs the ``hello`` handshake: the client announces its
:data:`~repro.service.protocol.PROTOCOL_VERSION` and refuses servers with a
different protocol major (:class:`~repro.service.errors.VersionMismatchError`
— also raised when the server predates the handshake entirely).

Failures are typed: an ``ok: false`` response raises the exception class
matching its error code (see :mod:`repro.service.errors`), so
``except TenantNotFoundError`` works against a remote server exactly like
in-process.  Results are typed too — :meth:`ServiceClient.get_info` /
:meth:`ServiceClient.get_stats` return dataclasses, ``heavy_hitters``
returns :class:`~repro.service.models.HeavyHitter` rows (tuple-compatible
with the old pairs).  The raw response payloads stay reachable through the
dataclasses' ``.raw`` escape hatch.

Every operation takes an optional ``tenant`` keyword: against a pooled
server it namespaces the call to that tenant; against a single-sketch
server passing one raises :class:`~repro.service.errors.PoolDisabledError`.

Connections may carry a :class:`RetryPolicy`: typed operations then retry
transient failures (dropped connections, dead shards, expired deadlines)
with capped exponential backoff and jitter, reconnecting and re-running the
handshake as needed.  Retried ingest is exactly-once: every ingest chunk
carries this connection's ``client`` id and a monotonically increasing
``seq``, and the server acknowledges-but-skips chunks it already applied.
"""

from __future__ import annotations
import contextlib

import asyncio
import random
import time
import uuid
from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from typing import Any

from .errors import (
    DeadlineExceededError,
    ProtocolError,
    ServiceRequestError,
    ShardUnavailableError,
    VersionMismatchError,
    exception_for_error,
)
from .models import HeavyHitter, ServerInfo, ServerStats, TenantDescription, TenantStats
from .ops import deadline_for
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    decode_line,
    encode_message,
    protocol_major,
)

__all__ = [
    "ServiceRequestError",
    "RetryPolicy",
    "ServiceClient",
    "SyncServiceClient",
]

#: Bound on establishing one TCP connection (RL006): a black-holed endpoint
#: (dropped SYNs, dead NAT entry) would otherwise park connect() until the
#: kernel gives up, far past any retry budget.
_CONNECT_TIMEOUT = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """Retry and deadline policy for one client connection.

    Attributes:
        attempts: Maximum attempts per operation (1 disables retries).
        base_delay: Backoff before the first retry, in seconds.
        max_delay: Cap of the exponential backoff.
        jitter: Multiplicative jitter fraction added to each delay (0.5
            means delays are scaled by a uniform factor in ``[1.0, 1.5]``),
            de-synchronizing clients that failed together.
        deadline: Overall per-operation budget in seconds (``None`` means
            unbounded); covers every attempt plus the backoff between them.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    deadline: float | None = 30.0

    def delay_for(self, retry_index: int) -> float:
        """Backoff before retry number ``retry_index`` (0-based), jittered."""
        delay = min(self.max_delay, self.base_delay * (2.0**retry_index))
        return delay * (1.0 + random.random() * self.jitter)


def _unwrap(response: dict[str, Any]) -> Any:
    if not isinstance(response, dict) or "ok" not in response:
        raise ProtocolError("malformed response: %r" % (response,))
    if not response["ok"]:
        raise exception_for_error(response.get("error"))
    return response.get("result")


class ServiceClient:
    """Asyncio client for one sketch-service connection."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        retry: RetryPolicy | None = None,
        host: str | None = None,
        port: int | None = None,
        handshake: bool = True,
    ) -> None:
        self._reader = reader
        self._writer = writer
        #: Protocol version the server announced at handshake (``None``
        #: when the connection was opened with ``handshake=False``).
        self.server_protocol_version: str | None = None
        #: Retry policy for typed operations (``None`` = fail on first error).
        self.retry = retry
        self._host = host
        self._port = port
        self._handshake = handshake
        #: Stable id of this logical client, sent with every ingest chunk
        #: (with a per-connection ``seq``) so servers can deduplicate retries.
        self.client_id = uuid.uuid4().hex[:16]
        self._ingest_seq = 0
        #: Attempts that were retried (any operation, any cause).
        self.retries = 0
        #: Successful transport reconnects performed by the retry layer.
        self.reconnects = 0

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7600,
        handshake: bool = True,
        retry: RetryPolicy | None = None,
        timeout: float = _CONNECT_TIMEOUT,
    ) -> ServiceClient:
        """Open a connection and (by default) run the version handshake.

        Args:
            retry: Optional :class:`RetryPolicy`; when given, typed
                operations retry transient failures (reconnecting as
                needed) and carry per-operation deadlines.
            timeout: Bound on establishing the TCP connection; raises the
                builtin :class:`TimeoutError` (an ``OSError``, hence
                retryable) when it expires.

        Raises:
            VersionMismatchError: The server speaks a different protocol
                major, or predates the ``hello`` operation entirely.
        """
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=MAX_LINE_BYTES), timeout
        )
        client = cls(reader, writer, retry=retry, host=host, port=port, handshake=handshake)
        if handshake:
            try:
                await client.hello()
            except VersionMismatchError:
                await client.close()
                raise
            except ServiceRequestError as exc:
                await client.close()
                raise VersionMismatchError(
                    "server did not complete the protocol handshake "
                    "(pre-2.0 server?): %s" % (exc,)
                ) from exc
        return client

    async def close(self) -> None:
        """Close the connection."""
        self._writer.close()
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await self._writer.wait_closed()

    async def __aenter__(self) -> ServiceClient:
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def request(self, message: dict[str, Any], deadline: float | None = None) -> Any:
        """Send one request and return its unwrapped result (one attempt).

        Raises the typed exception for the response's error code on any
        ``ok: false`` answer, and :class:`DeadlineExceededError` when no
        response arrives within ``deadline`` seconds.
        """
        if deadline is not None:
            try:
                return await asyncio.wait_for(self._request_once(message), deadline)
            except asyncio.TimeoutError:
                # The wait_for cancelled the round-trip mid-flight; the
                # server's eventual response would desynchronize the stream,
                # so the transport must not be reused.
                await self._invalidate()
                raise DeadlineExceededError(
                    "no response to %r within %.1f s" % (message.get("op"), deadline),
                    op=str(message.get("op")) if message.get("op") is not None else None,
                ) from None
        return await self._request_once(message)

    async def _request_once(self, message: dict[str, Any]) -> Any:
        self._writer.write(encode_message(message))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return _unwrap(decode_line(line))

    async def _invalidate(self) -> None:
        """Tear down a transport whose response stream cannot be trusted.

        Called when :meth:`call` gives up with a reconnect still pending: a
        deadline cancelled ``_request_once`` mid-round-trip, so the server's
        eventual response is sitting unread in the stream.  Reusing that
        connection would pair the *next* request with the *stale* response
        — silently misattributing every answer after it — so the transport
        is closed and any later use fails as an honest connection error.
        """
        with contextlib.suppress(OSError):
            await self.close()

    async def _reconnect(self) -> None:
        """Replace a dead/desynchronized transport with a fresh connection."""
        if self._host is None or self._port is None:
            raise ConnectionError("cannot reconnect: connection endpoint unknown")
        with contextlib.suppress(OSError):
            await self.close()
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self._host, self._port, limit=MAX_LINE_BYTES),
            _CONNECT_TIMEOUT,
        )
        self._reader = reader
        self._writer = writer
        self.reconnects += 1
        if self._handshake:
            await self.hello()

    async def call(self, message: dict[str, Any], deadline: float | None = None) -> Any:
        """Run one raw protocol message under the connection's retry policy.

        Without a policy this is a plain single-attempt :meth:`request`.
        With one, transient failures — dropped connections, dead shards,
        expired per-attempt deadlines — are retried with capped exponential
        backoff until the policy's attempts or overall deadline run out.
        After a transport-level failure the connection is torn down and
        re-opened (with handshake): a half-written request would otherwise
        desynchronize the response stream.  Without an explicit ``deadline``
        the op's deadline class applies (:func:`~repro.service.ops.deadline_for`:
        slow ops such as ``drain`` get the long budget), else the policy's.
        """
        if deadline is None:
            deadline = deadline_for(message.get("op"))
        policy = self.retry
        if policy is None:
            return await self.request(message, deadline=deadline)
        budget = policy.deadline if deadline is None else deadline
        start = time.monotonic()
        attempt = 0
        needs_reconnect = False
        while True:
            remaining: float | None = None
            if budget is not None:
                remaining = budget - (time.monotonic() - start)
                if remaining <= 0.0:
                    if needs_reconnect:
                        await self._invalidate()
                    raise DeadlineExceededError(
                        "operation %r exceeded its %.1f s deadline after %d attempt(s)"
                        % (message.get("op"), budget, attempt),
                        op=str(message.get("op")) if message.get("op") is not None else None,
                    )
            try:
                if needs_reconnect:
                    await self._reconnect()
                    needs_reconnect = False
                return await self.request(message, deadline=remaining)
            except (ShardUnavailableError, DeadlineExceededError, OSError) as exc:
                # A shard rejection arrives on a healthy stream; anything
                # transport-shaped (or an abandoned in-flight request)
                # forces a reconnect before the next attempt.
                if not isinstance(exc, ShardUnavailableError):
                    needs_reconnect = True
                attempt += 1
                if attempt >= policy.attempts:
                    if needs_reconnect:
                        await self._invalidate()
                    raise
                self.retries += 1
                await asyncio.sleep(policy.delay_for(attempt - 1))

    @staticmethod
    def _message(op: str, tenant: str | None, **fields: Any) -> dict[str, Any]:
        message: dict[str, Any] = {"op": op}
        if tenant is not None:
            message["tenant"] = tenant
        for name, value in fields.items():
            if value is not None:
                message[name] = value
        return message

    # ------------------------------------------------------------- handshake
    async def hello(self) -> dict[str, Any]:
        """Exchange protocol versions; raises on an incompatible major."""
        result = dict(
            await self.request({"op": "hello", "protocol_version": PROTOCOL_VERSION})
        )
        version = str(result.get("protocol_version", ""))
        if protocol_major(version) != protocol_major(PROTOCOL_VERSION):
            raise VersionMismatchError(
                "server speaks protocol %s, this client speaks %s"
                % (version, PROTOCOL_VERSION)
            )
        self.server_protocol_version = version
        return result

    # ------------------------------------------------------------ operations
    async def ping(self) -> str:
        return str(await self.call({"op": "ping"}))

    async def get_info(self) -> ServerInfo:
        """Static server parameters, typed."""
        return ServerInfo.from_payload(dict(await self.call({"op": "info"})))

    async def get_stats(self) -> ServerStats:
        """Live server counters, typed."""
        return ServerStats.from_payload(dict(await self.call({"op": "stats"})))

    async def ingest(
        self,
        keys: Sequence[Hashable],
        clocks: Sequence[float],
        values: Sequence[int] | None = None,
        site: int = 0,
        tenant: str | None = None,
    ) -> int:
        message = self._message("ingest", tenant, site=site)
        message["keys"] = list(keys)
        message["clocks"] = list(clocks)
        if values is not None:
            message["values"] = list(values)
        # Exactly-once marker: the same (client, seq) pair is reused across
        # retries of this chunk, so a server that applied it but lost the
        # ack re-acknowledges without double-counting.  (Pooled tenants are
        # not journaled and ignore the marker.)
        self._ingest_seq += 1
        message["client"] = self.client_id
        message["seq"] = self._ingest_seq
        result = await self.call(message)
        return int(result["accepted"])

    async def drain(self, tenant: str | None = None) -> float | None:
        result = await self.call(self._message("drain", tenant))
        return result.get("applied_clock")

    async def expire(self, tenant: str | None = None) -> float | None:
        """Force one expiry sweep; returns the applied clock."""
        result = await self.call(self._message("expire", tenant))
        return result.get("applied_clock")

    async def point(
        self,
        key: Hashable,
        range_length: float | None = None,
        tenant: str | None = None,
    ) -> float:
        message = self._message("point", tenant, range=range_length)
        message["key"] = key
        return float(await self.call(message))

    async def range_query(
        self,
        lo: int,
        hi: int,
        range_length: float | None = None,
        tenant: str | None = None,
    ) -> float:
        return float(
            await self.call(self._message("range", tenant, lo=lo, hi=hi, range=range_length))
        )

    async def heavy_hitters(
        self,
        phi: float,
        range_length: float | None = None,
        tenant: str | None = None,
    ) -> list[HeavyHitter]:
        rows = await self.call(
            self._message("heavy_hitters", tenant, phi=phi, range=range_length)
        )
        return [HeavyHitter(int(key), float(estimate)) for key, estimate in rows]

    async def quantile(
        self,
        fraction: float,
        range_length: float | None = None,
        tenant: str | None = None,
    ) -> int:
        return int(
            await self.call(
                self._message("quantile", tenant, fraction=fraction, range=range_length)
            )
        )

    async def quantiles(
        self,
        fractions: Sequence[float],
        range_length: float | None = None,
        tenant: str | None = None,
    ) -> list[int]:
        result = await self.call(
            self._message("quantiles", tenant, fractions=list(fractions), range=range_length)
        )
        return [int(key) for key in result]

    async def self_join(
        self, range_length: float | None = None, tenant: str | None = None
    ) -> float:
        return float(await self.call(self._message("self_join", tenant, range=range_length)))

    async def arrivals(
        self, range_length: float | None = None, tenant: str | None = None
    ) -> float:
        """Estimated in-window arrival total."""
        return float(await self.call(self._message("arrivals", tenant, range=range_length)))

    async def staleness(
        self, now: float | None = None, tenant: str | None = None
    ) -> float:
        """Multisite answer staleness at stream clock ``now``."""
        return float(await self.call(self._message("staleness", tenant, now=now)))

    async def snapshot(
        self, path: str | None = None, tenant: str | None = None
    ) -> str:
        result = await self.call(self._message("snapshot", tenant, path=path))
        return str(result["path"])

    async def restart_shard(self, shard: int) -> dict[str, Any]:
        """Ask a sharded server to respawn one worker from its snapshot."""
        return dict(await self.call({"op": "restart_shard", "shard": shard}))

    async def failpoint(
        self,
        spec: str | None = None,
        disarm: bool = False,
        name: str | None = None,
        shard: int | None = None,
    ) -> dict[str, Any]:
        """Arm or disarm fault-injection sites (:mod:`repro.service.failpoints`).

        Deliberately bypasses the retry layer: a failpoint that severs the
        connection would otherwise re-arm itself on every retry.
        """
        message: dict[str, Any] = {"op": "failpoint"}
        if spec is not None:
            message["spec"] = spec
        if disarm:
            message["disarm"] = True
        if name is not None:
            message["name"] = name
        if shard is not None:
            message["shard"] = shard
        return dict(await self.request(message))

    # ------------------------------------------------------ tenant lifecycle
    async def create_tenant(
        self, tenant: str, config: dict[str, Any] | None = None
    ) -> TenantStats:
        """Create a tenant on a pooled server (optional config overrides)."""
        result = await self.call(self._message("tenant_create", tenant, config=config))
        return TenantStats.from_payload(dict(result))

    async def delete_tenant(self, tenant: str) -> None:
        """Delete a tenant: its live state, snapshot and catalog entry."""
        await self.call(self._message("tenant_delete", tenant))

    async def list_tenants(self) -> list[TenantDescription]:
        """Describe every tenant in the pool's catalog."""
        rows = await self.call({"op": "tenant_list"})
        return [TenantDescription.from_payload(dict(row)) for row in rows]

    async def tenant_stats(self, tenant: str) -> TenantStats:
        """Live counters of one tenant (restores it when evicted)."""
        result = await self.call(self._message("tenant_stats", tenant))
        return TenantStats.from_payload(dict(result))

    async def pool_sweep(self) -> dict[str, Any]:
        """Run the pool's expiry + budget-enforcement sweep immediately."""
        return dict(await self.call({"op": "pool_sweep"}))

    async def shutdown(self) -> None:
        await self.request({"op": "shutdown"})


class SyncServiceClient:
    """Blocking face of :class:`ServiceClient`: same operations, no loop.

    Drives a private event loop around an inner async client, so every
    operation exists exactly once (in :class:`ServiceClient`) and this class
    is pure delegation.  Not thread-safe: one thread per client, like one
    task per async client.

    Example:
        >>> client = SyncServiceClient.connect(port=7600)   # doctest: +SKIP
        >>> client.ingest(["a", "b"], [1.0, 2.0])           # doctest: +SKIP
        2
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, client: ServiceClient) -> None:
        self._loop = loop
        self._client = client

    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7600,
        timeout: float | None = 30.0,
        handshake: bool = True,
        retry: RetryPolicy | None = None,
    ) -> SyncServiceClient:
        """Open a blocking connection (and handshake) to a running server."""
        loop = asyncio.new_event_loop()
        try:
            opening = ServiceClient.connect(host, port, handshake=handshake, retry=retry)
            if timeout is not None:
                client = loop.run_until_complete(asyncio.wait_for(opening, timeout))
            else:
                client = loop.run_until_complete(opening)
        except BaseException:
            loop.close()
            raise
        return cls(loop, client)

    def _call(self, coroutine: Any) -> Any:
        return self._loop.run_until_complete(coroutine)

    def close(self) -> None:
        """Close the connection and the private loop."""
        try:
            self._call(self._client.close())
        finally:
            self._loop.close()

    def __enter__(self) -> SyncServiceClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def server_protocol_version(self) -> str | None:
        return self._client.server_protocol_version

    @property
    def client_id(self) -> str:
        """Stable id sent with every ingest chunk (exactly-once dedup key)."""
        return self._client.client_id

    @property
    def retries(self) -> int:
        """Attempts the retry layer re-ran (any operation, any cause)."""
        return self._client.retries

    @property
    def reconnects(self) -> int:
        """Transport reconnects the retry layer performed."""
        return self._client.reconnects

    def request(self, message: dict[str, Any]) -> Any:
        """Send one request and return its unwrapped result."""
        return self._call(self._client.request(message))

    # ------------------------------------------------------------ operations
    def ping(self) -> str:
        return self._call(self._client.ping())

    def hello(self) -> dict[str, Any]:
        return self._call(self._client.hello())

    def get_info(self) -> ServerInfo:
        return self._call(self._client.get_info())

    def get_stats(self) -> ServerStats:
        return self._call(self._client.get_stats())

    def ingest(
        self,
        keys: Sequence[Hashable],
        clocks: Sequence[float],
        values: Sequence[int] | None = None,
        site: int = 0,
        tenant: str | None = None,
    ) -> int:
        return self._call(self._client.ingest(keys, clocks, values, site=site, tenant=tenant))

    def drain(self, tenant: str | None = None) -> float | None:
        return self._call(self._client.drain(tenant=tenant))

    def expire(self, tenant: str | None = None) -> float | None:
        return self._call(self._client.expire(tenant=tenant))

    def point(
        self,
        key: Hashable,
        range_length: float | None = None,
        tenant: str | None = None,
    ) -> float:
        return self._call(self._client.point(key, range_length, tenant=tenant))

    def range_query(
        self,
        lo: int,
        hi: int,
        range_length: float | None = None,
        tenant: str | None = None,
    ) -> float:
        return self._call(self._client.range_query(lo, hi, range_length, tenant=tenant))

    def heavy_hitters(
        self,
        phi: float,
        range_length: float | None = None,
        tenant: str | None = None,
    ) -> list[HeavyHitter]:
        return self._call(self._client.heavy_hitters(phi, range_length, tenant=tenant))

    def quantile(
        self,
        fraction: float,
        range_length: float | None = None,
        tenant: str | None = None,
    ) -> int:
        return self._call(self._client.quantile(fraction, range_length, tenant=tenant))

    def quantiles(
        self,
        fractions: Sequence[float],
        range_length: float | None = None,
        tenant: str | None = None,
    ) -> list[int]:
        return self._call(self._client.quantiles(fractions, range_length, tenant=tenant))

    def self_join(
        self, range_length: float | None = None, tenant: str | None = None
    ) -> float:
        return self._call(self._client.self_join(range_length, tenant=tenant))

    def arrivals(
        self, range_length: float | None = None, tenant: str | None = None
    ) -> float:
        return self._call(self._client.arrivals(range_length, tenant=tenant))

    def staleness(self, now: float | None = None, tenant: str | None = None) -> float:
        return self._call(self._client.staleness(now, tenant=tenant))

    def snapshot(self, path: str | None = None, tenant: str | None = None) -> str:
        return self._call(self._client.snapshot(path, tenant=tenant))

    def restart_shard(self, shard: int) -> dict[str, Any]:
        return self._call(self._client.restart_shard(shard))

    def failpoint(
        self,
        spec: str | None = None,
        disarm: bool = False,
        name: str | None = None,
        shard: int | None = None,
    ) -> dict[str, Any]:
        return self._call(self._client.failpoint(spec, disarm=disarm, name=name, shard=shard))

    # ------------------------------------------------------ tenant lifecycle
    def create_tenant(
        self, tenant: str, config: dict[str, Any] | None = None
    ) -> TenantStats:
        return self._call(self._client.create_tenant(tenant, config))

    def delete_tenant(self, tenant: str) -> None:
        self._call(self._client.delete_tenant(tenant))

    def list_tenants(self) -> list[TenantDescription]:
        return self._call(self._client.list_tenants())

    def tenant_stats(self, tenant: str) -> TenantStats:
        return self._call(self._client.tenant_stats(tenant))

    def pool_sweep(self) -> dict[str, Any]:
        return self._call(self._client.pool_sweep())

    def shutdown(self) -> None:
        self._call(self._client.shutdown())
