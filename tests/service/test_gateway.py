"""Tests of the HTTP/REST gateway: routing, parity with the TCP client,
and the error-code -> status mapping, all in-process.

The HTTP side is driven with a raw asyncio stream client (the gateway
serves one request per connection), never with blocking ``urllib`` calls —
those would run on the same loop as the gateway and deadlock it.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any
from urllib.parse import urlencode

import pytest

from repro.service import (
    PROTOCOL_VERSION,
    GatewayServer,
    ServiceClient,
    ServiceConfig,
    SketchServer,
    SketchService,
    TenantPool,
)
from repro.service.ops import OPS

EPSILON = 0.1
WINDOW = 1_000_000.0


def run(coroutine):
    return asyncio.run(coroutine)


async def http(
    port: int, method: str, path: str, body: dict[str, Any] | None = None
) -> tuple[int, dict[str, Any]]:
    """One HTTP exchange against the gateway; returns (status, payload)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        encoded = b"" if body is None else json.dumps(body).encode()
        head = "%s %s HTTP/1.1\r\nHost: gateway\r\nContent-Length: %d\r\n\r\n" % (
            method,
            path,
            len(encoded),
        )
        writer.write(head.encode("ascii") + encoded)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    header, _, rest = raw.partition(b"\r\n\r\n")
    status = int(header.split(None, 2)[1])
    return status, json.loads(rest)


async def get(port: int, path: str) -> Any:
    """GET that must succeed; returns the unwrapped result."""
    status, payload = await http(port, "GET", path)
    assert status == 200, payload
    assert payload["ok"] is True
    return payload["result"]


async def http_with_headers(
    port: int, method: str, path: str
) -> tuple[int, dict[str, str], dict[str, Any]]:
    """Like :func:`http`, but also returns the response headers (lowercased)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = "%s %s HTTP/1.1\r\nHost: gateway\r\nContent-Length: 0\r\n\r\n" % (method, path)
        writer.write(head.encode("ascii"))
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    header, _, rest = raw.partition(b"\r\n\r\n")
    lines = header.decode("latin-1").split("\r\n")
    status = int(lines[0].split(None, 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(rest)


def pool_config(pool_dir) -> ServiceConfig:
    return ServiceConfig(
        mode="flat",
        epsilon=EPSILON,
        delta=0.05,
        window=WINDOW,
        pool=True,
        pool_dir=str(pool_dir),
        expire_every=None,
        snapshot_every=None,
    )


class _Stack:
    """Pooled sketch server + gateway + TCP client, as one context."""

    def __init__(self, pool_dir) -> None:
        self.server = SketchServer(TenantPool(pool_config(pool_dir)))
        self.gateway: GatewayServer = None  # type: ignore[assignment]
        self.client: ServiceClient = None  # type: ignore[assignment]

    async def __aenter__(self) -> _Stack:
        await self.server.__aenter__()
        self.gateway = GatewayServer(backend_port=self.server.port, port=0)
        await self.gateway.start()
        self.client = await ServiceClient.connect(port=self.server.port)
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.client.close()
        await self.gateway.stop()
        await self.server.__aexit__(*exc_info)


#: Sketch parameters and one trace per mode, for the parity suite.
_MODE_SETUPS: dict[str, tuple[dict[str, Any], list[Any], tuple[int, ...]]] = {
    "flat": ({"mode": "flat"}, ["k%d" % (index % 23) for index in range(300)], (0,)),
    "hierarchical": (
        {"mode": "hierarchical", "universe_bits": 8},
        [(index * 7) % 256 for index in range(300)],
        (0,),
    ),
    "multisite": (
        {"mode": "multisite", "sites": 2, "period": 50.0},
        ["k%d" % (index % 11) for index in range(300)],
        (0, 1),
    ),
}

#: One sample parameter set per (mode, query op) the op table serves.
_QUERY_SAMPLES: dict[str, dict[str, dict[str, Any]]] = {
    "flat": {
        "point": {"key": "k3", "range": 100},
        "self_join": {},
        "arrivals": {},
    },
    "hierarchical": {
        "point": {"key": 5},
        "range": {"lo": 0, "hi": 63},
        "heavy_hitters": {"phi": 0.05},
        "quantile": {"fraction": 0.5},
        "quantiles": {"fractions": [0.25, 0.5, 0.75]},
        "arrivals": {},
    },
    "multisite": {
        "point": {"key": "k3"},
        "self_join": {},
        "staleness": {"now": 300},
        "root_state": {},
    },
}


def _query_string(params: dict[str, Any]) -> str:
    """REST form of a query's fields: JSON scalars, comma-separated lists."""
    return urlencode(
        {
            name: ",".join(map(str, value)) if isinstance(value, list) else json.dumps(value)
            for name, value in params.items()
        }
    )


class TestQueryParity:
    """Every query op of the op table answers identically over HTTP and TCP."""

    def test_samples_cover_every_query_op(self):
        for mode, samples in _QUERY_SAMPLES.items():
            served = {op.name for op in OPS.values() if op.kind == "query" and mode in op.modes}
            assert set(samples) == served, mode

    @pytest.mark.parametrize("mode", sorted(_MODE_SETUPS))
    @pytest.mark.parametrize("pooled", [True, False], ids=["tenant-route", "tenantless-route"])
    def test_every_query_op(self, tmp_path, mode, pooled):
        overrides, keys, sites = _MODE_SETUPS[mode]
        clocks = [float(index + 1) for index in range(len(keys))]
        if pooled:
            server = SketchServer(TenantPool(pool_config(tmp_path)))
            base, fields = "/v1/tenants/t1", {"tenant": "t1"}
        else:
            server = SketchServer(
                SketchService(
                    ServiceConfig(
                        epsilon=EPSILON, delta=0.05, window=WINDOW, **overrides
                    )
                )
            )
            base, fields = "/v1", {}

        async def body():
            async with server:
                gateway = GatewayServer(backend_port=server.port, port=0)
                await gateway.start()
                try:
                    port = gateway.port
                    tcp = await ServiceClient.connect(port=server.port)
                    if pooled:
                        await tcp.create_tenant("t1", config=overrides)
                    # Clocks are global across sites: alternate 50-record
                    # chunks between them, in clock order.
                    for chunk, start in enumerate(range(0, len(keys), 50)):
                        status, payload = await http(
                            port,
                            "POST",
                            base + "/ingest",
                            {
                                "keys": keys[start : start + 50],
                                "clocks": clocks[start : start + 50],
                                "site": sites[chunk % len(sites)],
                            },
                        )
                        assert status == 200, payload
                    await http(port, "POST", base + "/drain")
                    for name, params in _QUERY_SAMPLES[mode].items():
                        over_tcp = await tcp.request(dict(params, op=name, **fields))
                        path = "%s/query/%s?%s" % (base, name, _query_string(params))
                        assert await get(port, path) == over_tcp, name
                    await tcp.close()
                finally:
                    await gateway.stop()

        run(body())


@pytest.mark.parametrize(
    "name", sorted(name for name, op in OPS.items() if op.kind != "query")
)
def test_query_routes_refuse_non_query_ops(tmp_path, name):
    """GET .../query/{op} serves query ops only: any other op name is a 400
    from the gateway itself, and never reaches (or stops, or mutates) the
    backend."""

    async def body():
        async with _Stack(tmp_path) as stack:
            await stack.client.create_tenant("t1")
            for path in ("/v1/query/", "/v1/tenants/t1/query/"):
                status, payload = await http(
                    stack.gateway.port, "GET", path + name + "?keys=[1,2]&clocks=[1,2]"
                )
                assert status == 400, payload
                assert payload["error"]["code"] == "UNKNOWN_OP"
            assert await stack.client.ping() == "pong"
            assert [row.tenant for row in await stack.client.list_tenants()] == ["t1"]
            assert (await stack.client.tenant_stats("t1")).records_ingested == 0

    run(body())


def test_get_routes_never_mutate():
    for op in OPS.values():
        if op.http is not None and op.http[0] == "GET":
            assert not op.mutates, op.name


class TestTenantRest:
    def test_lifecycle_over_rest(self, tmp_path):
        async def body():
            async with _Stack(tmp_path) as stack:
                port = stack.gateway.port
                status, payload = await http(
                    port,
                    "PUT",
                    "/v1/tenants/hier",
                    {"mode": "hierarchical", "universe_bits": 8},
                )
                assert status == 200
                assert payload["result"]["tenant"] == "hier"
                assert payload["result"]["resident"] is True
                await http(port, "PUT", "/v1/tenants/flat1")

                listing = await get(port, "/v1/tenants")
                assert {entry["tenant"] for entry in listing} == {"flat1", "hier"}
                modes = {entry["tenant"]: entry["mode"] for entry in listing}
                assert modes == {"flat1": "flat", "hier": "hierarchical"}

                stats = await get(port, "/v1/tenants/hier")
                assert stats["records_ingested"] == 0

                status, payload = await http(port, "DELETE", "/v1/tenants/hier")
                assert status == 200 and payload["result"] == {"deleted": "hier"}
                status, payload = await http(port, "GET", "/v1/tenants/hier")
                assert status == 404

                info = await get(port, "/v1/info")
                assert info["pool"] is True
                assert info["protocol_version"] == PROTOCOL_VERSION
                stats = await get(port, "/v1/stats")
                assert stats["tenants_total"] == 1
                assert stack.gateway.requests_served >= 8

        run(body())

    def test_sweep_over_rest(self, tmp_path):
        async def body():
            async with _Stack(tmp_path) as stack:
                port = stack.gateway.port
                await http(port, "PUT", "/v1/tenants/alpha")
                status, payload = await http(port, "POST", "/v1/sweep")
                assert status == 200
                assert payload["result"]["resident"] == 1
                assert payload["result"]["evicted"] == []

        run(body())


class TestStatusMapping:
    """Live HTTP statuses for each error family, end to end."""

    def test_pooled_statuses(self, tmp_path):
        async def body():
            async with _Stack(tmp_path) as stack:
                port = stack.gateway.port
                await http(port, "PUT", "/v1/tenants/flat1")

                async def expect(status, code, method, path, body=None):
                    got_status, payload = await http(port, method, path, body)
                    assert got_status == status, (path, payload)
                    assert payload["ok"] is False
                    assert payload["error"]["code"] == code, (path, payload)

                await expect(404, "TENANT_NOT_FOUND", "GET", "/v1/tenants/ghost")
                await expect(409, "TENANT_EXISTS", "PUT", "/v1/tenants/flat1")
                await expect(400, "TENANT_REQUIRED", "GET", "/v1/query/point?key=a")
                await expect(
                    409, "MODE_MISMATCH", "GET", "/v1/tenants/flat1/query/heavy_hitters?phi=0.1"
                )
                await expect(
                    400, "INVALID_PARAMETER", "GET", "/v1/tenants/flat1/query/point"
                )
                await expect(
                    400, "UNKNOWN_OP", "GET", "/v1/tenants/flat1/query/bogus"
                )
                await expect(404, "NOT_FOUND", "GET", "/nowhere")
                await expect(404, "NOT_FOUND", "GET", "/v1/nowhere")
                await expect(405, "METHOD_NOT_ALLOWED", "POST", "/v1/info")
                await expect(405, "METHOD_NOT_ALLOWED", "PATCH", "/v1/tenants/flat1")
                await expect(
                    409,
                    "CLOCK_REGRESSION",
                    "POST",
                    "/v1/tenants/flat1/ingest",
                    {"keys": ["a", "b"], "clocks": [5.0, 1.0]},
                )

        run(body())

    def test_bad_body_is_a_400(self, tmp_path):
        async def body():
            async with _Stack(tmp_path) as stack:
                port = stack.gateway.port
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                raw = b"POST /v1/tenants/x/ingest HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json"
                writer.write(raw)
                await writer.drain()
                response = await reader.read()
                writer.close()
                await writer.wait_closed()
                header, _, rest = response.partition(b"\r\n\r\n")
                assert b" 400 " in header.split(b"\r\n")[0]
                payload = json.loads(rest)
                assert payload["error"]["code"] in ("BAD_REQUEST", "PROTOCOL")

        run(body())

    def test_dead_backend_is_a_503(self, tmp_path):
        async def body():
            pool = TenantPool(pool_config(tmp_path))
            server = SketchServer(pool)
            await server.__aenter__()
            gateway = GatewayServer(backend_port=server.port, port=0)
            await gateway.start()
            try:
                status, _ = await http(gateway.port, "GET", "/v1/info")
                assert status == 200
                await server.__aexit__(None, None, None)
                status, payload = await http(gateway.port, "GET", "/v1/info")
                assert status == 503
                assert payload["error"]["code"] == "SERVICE_STOPPED"
            finally:
                await gateway.stop()

        run(body())

    def test_503_carries_retry_after(self, tmp_path):
        async def body():
            pool = TenantPool(pool_config(tmp_path))
            server = SketchServer(pool)
            await server.__aenter__()
            gateway = GatewayServer(backend_port=server.port, port=0)
            await gateway.start()
            try:
                await server.__aexit__(None, None, None)
                status, headers, payload = await http_with_headers(
                    gateway.port, "GET", "/v1/info"
                )
                assert status == 503
                assert payload["error"]["code"] == "SERVICE_STOPPED"
                assert headers.get("retry-after") == "1"
            finally:
                await gateway.stop()

        run(body())

    def test_unpooled_backend_maps_pool_disabled(self, tmp_path):
        async def body():
            config = ServiceConfig(mode="flat", epsilon=EPSILON, delta=0.05, window=WINDOW)
            async with SketchServer(SketchService(config)) as server:
                gateway = GatewayServer(backend_port=server.port, port=0)
                await gateway.start()
                try:
                    status, payload = await http(gateway.port, "PUT", "/v1/tenants/alpha")
                    assert status == 400
                    assert payload["error"]["code"] == "POOL_DISABLED"
                    # Tenant-less queries still flow through the gateway.
                    status, payload = await http(
                        gateway.port, "POST", "/v1/ingest", {"keys": ["a"], "clocks": [1.0]}
                    )
                    assert status == 200 and payload["result"] == {"accepted": 1}
                    await http(gateway.port, "POST", "/v1/drain")
                    result = await get(gateway.port, "/v1/query/point?key=a")
                    assert result == 1.0
                finally:
                    await gateway.stop()

        run(body())


def _flat_config() -> ServiceConfig:
    return ServiceConfig(mode="flat", epsilon=EPSILON, delta=0.05, window=WINDOW)


class TestResilience:
    """Healthz, Retry-After and the reconnect-to-a-restarted-backend path."""

    def test_healthz_reports_healthy_then_degraded(self, tmp_path):
        async def body():
            server = SketchServer(SketchService(_flat_config()))
            await server.__aenter__()
            gateway = GatewayServer(backend_port=server.port, port=0)
            await gateway.start()
            try:
                status, headers, payload = await http_with_headers(
                    gateway.port, "GET", "/v1/healthz"
                )
                assert status == 200
                assert payload == {"ok": True, "result": {"status": "healthy"}}
                assert "retry-after" not in headers

                await server.__aexit__(None, None, None)
                status, headers, payload = await http_with_headers(
                    gateway.port, "GET", "/v1/healthz"
                )
                assert status == 503
                assert payload["ok"] is False
                assert payload["error"]["code"] == "SERVICE_STOPPED"
                assert headers.get("retry-after") == "1"
            finally:
                await gateway.stop()

        run(body())

    def test_healthz_is_get_only(self, tmp_path):
        async def body():
            async with SketchServer(SketchService(_flat_config())) as server:
                gateway = GatewayServer(backend_port=server.port, port=0)
                await gateway.start()
                try:
                    status, payload = await http(gateway.port, "POST", "/v1/healthz")
                    assert status == 405
                    assert payload["error"]["code"] == "METHOD_NOT_ALLOWED"
                finally:
                    await gateway.stop()

        run(body())

    def test_gateway_reconnects_to_a_restarted_backend(self, tmp_path):
        """Kill the backend mid-session, restart it on the same port: the
        gateway's channel must reconnect and keep serving, and the retried
        ingest must not double-count (channel-level client/seq dedup)."""

        async def body():
            first = SketchServer(SketchService(_flat_config()))
            await first.__aenter__()
            port = first.port
            gateway = GatewayServer(backend_port=port, port=0)
            await gateway.start()
            try:
                status, payload = await http(
                    gateway.port, "POST", "/v1/ingest", {"keys": [1, 2], "clocks": [1.0, 2.0]}
                )
                assert status == 200 and payload["result"] == {"accepted": 2}

                await first.__aexit__(None, None, None)
                second = SketchServer(SketchService(_flat_config()), port=port)
                await second.__aenter__()
                try:
                    status, payload = await http(
                        gateway.port, "POST", "/v1/ingest", {"keys": [3], "clocks": [3.0]}
                    )
                    assert status == 200 and payload["result"] == {"accepted": 1}
                    await http(gateway.port, "POST", "/v1/drain")
                    assert await get(gateway.port, "/v1/query/point?key=3") == 1.0
                    status, _, payload = await http_with_headers(
                        gateway.port, "GET", "/v1/healthz"
                    )
                    assert status == 200
                finally:
                    await second.__aexit__(None, None, None)
            finally:
                await gateway.stop()

        run(body())
