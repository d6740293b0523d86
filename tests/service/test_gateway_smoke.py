"""End-to-end smoke test for the HTTP gateway over a pooled, sharded tier:
``repro serve --shards 2 --pool`` + ``repro gateway`` as real processes.

The tier-1 twin of the CI ``gateway-smoke`` job:

* boot a 2-shard pooled server with a memory budget small enough that the
  three tenants cannot all stay resident;
* create the tenants and ingest their (distinct, deterministic) streams
  through HTTP;
* verify every tenant's served answers against per-tenant serial reference
  sketches — the query round-robin itself forces evict/restore churn under
  the budget;
* verify the budget did force evictions and restores, and that a second
  snapshot after the churn is byte-identical to the first (restore
  fidelity down to the serialized state).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core import ECMSketch
from repro.service import ServeProcess

EPSILON = 0.1
WINDOW = 1_000_000.0
RECORDS = 2_000
BUDGET = 2_000  # bytes, across both shards: no worker can keep two tenants
TENANTS = {"alpha": 3, "beta": 5, "gamma": 7}  # id -> stream seed

pytestmark = pytest.mark.integration


def trace(seed: int):
    keys = ["k%d" % ((index * seed) % 97) for index in range(RECORDS)]
    clocks = [float(index + 1) for index in range(RECORDS)]
    return keys, clocks


def reference(seed: int) -> ECMSketch:
    sketch = ECMSketch.for_point_queries(epsilon=EPSILON, delta=0.05, window=WINDOW)
    keys, clocks = trace(seed)
    sketch.add_many(keys, clocks)
    return sketch


def http(port: int, method: str, path: str, body=None):
    """One HTTP exchange; returns (status, payload) without raising on 4xx."""
    encoded = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        "http://127.0.0.1:%d%s" % (port, path), data=encoded, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def ok(port: int, method: str, path: str, body=None):
    status, payload = http(port, method, path, body)
    assert status == 200, (path, payload)
    return payload["result"]


class TestGatewaySmoke:
    def test_gateway_over_pooled_shards(self, tmp_path):
        pool_dir = tmp_path / "pool"
        with ServeProcess(
            "--mode", "flat",
            "--epsilon", EPSILON,
            "--window", WINDOW,
            "--shards", 2,
            "--pool",
            "--pool-dir", pool_dir,
            "--memory-budget", BUDGET,
        ) as server:
            backend_port = server.wait_ready()
            with ServeProcess(
                "--backend-port", backend_port,
                subcommand="gateway",
                label="repro-gateway",
            ) as gateway:
                port = gateway.wait_ready()

                info = ok(port, "GET", "/v1/info")
                assert info["pool"] is True
                assert info["shards"] == 2

                for tenant in TENANTS:
                    created = ok(port, "PUT", "/v1/tenants/%s" % tenant)
                    assert created["tenant"] == tenant

                for tenant, seed in TENANTS.items():
                    keys, clocks = trace(seed)
                    accepted = ok(
                        port,
                        "POST",
                        "/v1/tenants/%s/ingest" % tenant,
                        {"keys": keys, "clocks": clocks},
                    )
                    assert accepted == {"accepted": RECORDS}
                    ok(port, "POST", "/v1/tenants/%s/drain" % tenant)

                # Pin each tenant's durable state while it is still warm.
                first_snapshot = {}
                for tenant in TENANTS:
                    path = ok(port, "POST", "/v1/tenants/%s/snapshot" % tenant)["path"]
                    first_snapshot[tenant] = (path, open(path, "rb").read())

                # Serial-reference parity, round-robin across tenants: with
                # the budget this tight every switch restores one tenant and
                # evicts another, so correctness here is correctness of the
                # evict/restore path, not just of the sketches.
                references = {tenant: reference(seed) for tenant, seed in TENANTS.items()}
                probe_keys = ["k%d" % value for value in range(0, 97, 7)]
                for round_index in range(3):
                    for tenant, serial in references.items():
                        key = probe_keys[round_index]
                        served = ok(
                            port, "GET", "/v1/tenants/%s/query/point?key=%s" % (tenant, key)
                        )
                        assert served == serial.point_query(key), (tenant, key)
                        served = ok(port, "GET", "/v1/tenants/%s/query/self_join" % tenant)
                        assert served == serial.self_join(), tenant

                stats = ok(port, "GET", "/v1/stats")
                assert stats["pool"] is True
                assert stats["tenants_total"] == 3
                assert stats["records_ingested"] == RECORDS * len(TENANTS)
                assert stats["evictions"] >= 1, stats
                assert stats["restores"] >= 1, stats

                listing = ok(port, "GET", "/v1/tenants")
                assert {entry["tenant"] for entry in listing} == set(TENANTS)

                # Post-churn snapshots must reproduce the pre-churn files
                # byte for byte: queries changed nothing, and eviction +
                # lazy restore must not have either.
                for tenant, (path, before) in first_snapshot.items():
                    rewritten = ok(port, "POST", "/v1/tenants/%s/snapshot" % tenant)["path"]
                    assert rewritten == path, tenant
                    assert open(path, "rb").read() == before, tenant

                # Budget honored after a governor sweep: at most one
                # resident tenant per worker (a lone tenant is never
                # evicted, however large).
                ok(port, "POST", "/v1/sweep")
                stats = ok(port, "GET", "/v1/stats")
                assert stats["tenants_resident"] <= 2, stats

                # 404 through the whole stack, then graceful shutdowns.
                status, payload = http(port, "GET", "/v1/tenants/ghost")
                assert status == 404
                assert payload["error"]["code"] == "TENANT_NOT_FOUND"

                assert gateway.stop() == 0, gateway.output
            assert server.stop() == 0, server.output
