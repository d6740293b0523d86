"""Tests of the multi-tenant pool: catalog, namespacing, memory governor.

All in-process (no sockets): the pool is driven directly through its
tenant-namespaced surface, the same one ``dispatch_service_op`` serves.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import pytest

from repro.core import ECMSketch
from repro.core.errors import ConfigurationError
from repro.service import (
    ServiceConfig,
    TenantCatalog,
    TenantPool,
)
from repro.service.errors import (
    InvalidParameterError,
    ServiceError,
    TenantEvictedError,
    TenantExistsError,
    TenantNotFoundError,
    TenantRequiredError,
    error_envelope,
)
from repro.service.server import dispatch_service_op

EPSILON = 0.1
WINDOW = 1_000_000.0


def run(coroutine):
    return asyncio.run(coroutine)


def pool_config(pool_dir, **overrides) -> ServiceConfig:
    defaults = dict(
        mode="flat",
        epsilon=EPSILON,
        delta=0.05,
        window=WINDOW,
        pool=True,
        pool_dir=str(pool_dir),
        expire_every=None,
        snapshot_every=None,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def trace(seed: int, records: int = 400):
    """A deterministic (keys, clocks) stream, distinct per seed."""
    keys = ["k%d" % ((index * seed) % 37) for index in range(records)]
    clocks = [float(index + 1) for index in range(records)]
    return keys, clocks


async def create_error(pool: TenantPool, tenant: str, config: dict) -> dict:
    """The wire error envelope of a ``tenant_create`` the pool refuses."""
    message = {"op": "tenant_create", "tenant": tenant, "config": config}
    with pytest.raises((ConfigurationError, ServiceError, TypeError)) as caught:
        await dispatch_service_op(pool, message)
    return error_envelope(caught.value, "tenant_create")


async def fill(pool: TenantPool, tenant: str, seed: int, records: int = 400) -> None:
    keys, clocks = trace(seed, records)
    await pool.ingest(keys, clocks, tenant=tenant)
    await pool.drain(tenant=tenant)


def reference(seed: int, records: int = 400) -> ECMSketch:
    sketch = ECMSketch.for_point_queries(epsilon=EPSILON, delta=0.05, window=WINDOW)
    keys, clocks = trace(seed, records)
    sketch.add_many(keys, clocks)
    return sketch


class TestCatalog:
    def test_create_get_delete(self, tmp_path):
        catalog = TenantCatalog(str(tmp_path / "catalog.sqlite"))
        catalog.create("alpha", {"mode": "flat"}, now=1.0, seq=1)
        row = catalog.get("alpha")
        assert row["tenant"] == "alpha"
        assert json.loads(row["config"]) == {"mode": "flat"}
        assert row["resident"] == 1
        with pytest.raises(TenantExistsError):
            catalog.create("alpha", {}, now=2.0, seq=2)
        assert catalog.count() == 1
        assert catalog.delete("alpha") is True
        assert catalog.delete("alpha") is False
        assert catalog.get("alpha") is None
        catalog.close()

    def test_reopen_clears_stale_residency(self, tmp_path):
        path = str(tmp_path / "catalog.sqlite")
        catalog = TenantCatalog(path)
        catalog.create("alpha", {}, now=1.0, seq=1)
        catalog.create("beta", {}, now=2.0, seq=2)
        catalog.mark_evicted("beta", "/tmp/beta.json", 10, 5.0)
        # Simulate a crash: close without clearing alpha's residency flag.
        catalog.close()
        reopened = TenantCatalog(path)
        for row in reopened.rows():
            assert row["resident"] == 0, row["tenant"]
        assert reopened.max_touch_seq() == 2
        reopened.close()


class TestTenantLifecycle:
    def test_create_list_stats_delete(self, tmp_path):
        async def body():
            async with TenantPool(pool_config(tmp_path)) as pool:
                stats = await pool.tenant_create("alpha")
                assert stats["tenant"] == "alpha"
                assert stats["resident"] is True
                await pool.tenant_create("beta", {"mode": "hierarchical", "universe_bits": 8})
                listing = {entry["tenant"]: entry for entry in await pool.tenant_list()}
                assert set(listing) == {"alpha", "beta"}
                assert listing["alpha"]["mode"] == "flat"
                assert listing["beta"]["mode"] == "hierarchical"
                assert listing["beta"]["resident"] is True
                await pool.tenant_delete("beta")
                assert [entry["tenant"] for entry in await pool.tenant_list()] == ["alpha"]

        run(body())

    def test_lifecycle_errors(self, tmp_path):
        async def body():
            async with TenantPool(pool_config(tmp_path)) as pool:
                await pool.tenant_create("alpha")
                with pytest.raises(TenantExistsError):
                    await pool.tenant_create("alpha")
                with pytest.raises(TenantNotFoundError):
                    await pool.tenant_delete("ghost")
                with pytest.raises(TenantNotFoundError):
                    await pool.tenant_stats("ghost")
                with pytest.raises(TenantRequiredError):
                    await pool.ingest(["a"], [1.0])
                with pytest.raises(InvalidParameterError):
                    await pool.tenant_create("../escape")
                with pytest.raises(InvalidParameterError):
                    await pool.tenant_create("ok", {"batch_size": 5})

        run(body())

    def test_rejected_create_leaves_no_catalog_row(self, tmp_path):
        """A configuration the tenant's service rejects is not half-created."""

        async def body():
            async with TenantPool(pool_config(tmp_path)) as pool:
                error = await create_error(pool, "acme", {"epsilon": 2.0})
                assert error["code"] == "INVALID_PARAMETER"
                assert await pool.tenant_list() == []
                assert pool.stats()["tenants_total"] == 0
                await pool.tenant_create("acme", {})
                await fill(pool, "acme", seed=3)
                served = await pool.query("point", {"tenant": "acme", "key": "k3"})
                assert served == reference(seed=3).point_query("k3")

        run(body())

    @pytest.mark.parametrize(
        "field,value",
        [
            ("universe_bits", None),
            ("universe_bits", "x"),
            ("seed", [1]),
            ("epsilon", "a"),
            ("epsilon", None),
            ("delta", True),
            ("window", None),
            ("window", "1000"),
        ],
    )
    def test_wrong_typed_config_is_an_invalid_parameter(self, tmp_path, field, value):
        async def body():
            async with TenantPool(pool_config(tmp_path)) as pool:
                error = await create_error(pool, "acme", {field: value})
                assert error["code"] == "INVALID_PARAMETER"
                assert field in error["message"]
                assert await pool.tenant_list() == []

        run(body())

    def test_tenants_are_isolated(self, tmp_path):
        async def body():
            async with TenantPool(pool_config(tmp_path)) as pool:
                await pool.tenant_create("alpha")
                await pool.tenant_create("beta")
                await fill(pool, "alpha", seed=3)
                await fill(pool, "beta", seed=5)
                for tenant, seed in (("alpha", 3), ("beta", 5)):
                    serial = reference(seed)
                    for key in ("k0", "k3", "k9"):
                        served = await pool.query("point", {"tenant": tenant, "key": key})
                        assert served == serial.point_query(key), (tenant, key)

        run(body())


class TestMemoryGovernor:
    def test_lru_eviction_spares_the_hottest(self, tmp_path):
        async def body():
            async with TenantPool(pool_config(tmp_path)) as pool:
                for tenant, seed in (("cold", 3), ("warm", 5), ("hot", 7)):
                    await pool.tenant_create(tenant)
                    await fill(pool, tenant, seed=seed)
                # Touch order is now cold < warm < hot.  A budget one byte
                # below the total needs exactly one eviction: the coldest.
                pool.config.memory_budget_bytes = pool.accounted_bytes() - 1
                swept = await pool.sweep()
                assert swept["evicted"] == ["cold"]
                listing = {entry["tenant"]: entry for entry in await pool.tenant_list()}
                assert listing["cold"]["resident"] is False
                assert listing["cold"]["snapshot_path"] is not None
                assert listing["hot"]["resident"] is True
                stats = pool.stats()
                assert stats["evictions"] == 1
                assert stats["tenants_resident"] == 2

        run(body())

    def test_budget_exactly_at_boundary_evicts_nothing(self, tmp_path):
        async def body():
            async with TenantPool(pool_config(tmp_path)) as pool:
                await pool.tenant_create("alpha")
                await pool.tenant_create("beta")
                await fill(pool, "alpha", seed=3)
                await fill(pool, "beta", seed=5)
                pool.config.memory_budget_bytes = pool.accounted_bytes()
                swept = await pool.sweep()
                assert swept["evicted"] == []
                assert pool.stats()["tenants_resident"] == 2

        run(body())

    def test_last_resident_is_never_evicted(self, tmp_path):
        async def body():
            async with TenantPool(pool_config(tmp_path, memory_budget_bytes=1)) as pool:
                await pool.tenant_create("alpha")
                await fill(pool, "alpha", seed=3)
                await pool.tenant_create("beta")
                await fill(pool, "beta", seed=5)
                # Both tenants dwarf the 1-byte budget; the governor evicts
                # down to one resident and then stops rather than thrash.
                assert pool.stats()["tenants_resident"] == 1
                swept = await pool.sweep()
                assert swept["resident"] == 1
                assert pool.accounted_bytes() > 1

        run(body())

    def test_eviction_under_ingest_load(self, tmp_path):
        async def body():
            async with TenantPool(pool_config(tmp_path, memory_budget_bytes=1)) as pool:
                for tenant in ("alpha", "beta"):
                    await pool.tenant_create(tenant)

                async def hammer(tenant, seed):
                    for round_index in range(5):
                        keys, clocks = trace(seed, 100)
                        shifted = [clock + 100.0 * round_index for clock in clocks]
                        await pool.ingest(keys, shifted, tenant=tenant)

                # Concurrent ingest into both tenants with a 1-byte budget:
                # every other chunk evicts the peer, forcing restores mid
                # stream.  The per-tenant locks make that safe; every
                # acknowledged record must survive the churn.
                await asyncio.gather(hammer("alpha", 3), hammer("beta", 5))
                for tenant in ("alpha", "beta"):
                    stats = await pool.tenant_stats(tenant)
                    assert stats["records_ingested"] == 500, tenant
                assert pool.stats()["evictions"] >= 2
                assert pool.stats()["restores"] >= 2

        run(body())

    def test_eviction_does_not_stall_the_loop(self, tmp_path, monkeypatch):
        """A slow catalog commit during eviction must not block the loop.

        The catalog write runs on the catalog's worker thread (reprolint
        RL002 is the static side of this invariant); a heartbeat coroutine
        must keep ticking while an eviction sits inside a pathologically
        slow ``mark_evicted``.  Before the off-loop catalog, this test
        observes a frozen loop: ~0 beats across the whole eviction.
        """

        async def body():
            async with TenantPool(pool_config(tmp_path)) as pool:
                await pool.tenant_create("cold")
                await fill(pool, "cold", seed=3, records=200)

                real_mark_evicted = TenantCatalog.mark_evicted

                def slow_mark_evicted(catalog, *args):
                    time.sleep(0.6)  # worker thread, not the event loop
                    return real_mark_evicted(catalog, *args)

                monkeypatch.setattr(TenantCatalog, "mark_evicted", slow_mark_evicted)

                beats = 0
                stop = asyncio.Event()

                async def heartbeat():
                    nonlocal beats
                    while not stop.is_set():
                        await asyncio.sleep(0.01)
                        beats += 1

                ticker = asyncio.create_task(heartbeat())
                assert await pool._evict("cold") is True
                stop.set()
                await ticker
                # A loop frozen for the 0.6s commit yields ~0 beats; the
                # off-loop commit yields ~60.  10 leaves slack for slow CI.
                assert beats >= 10, "event loop stalled during eviction (%d beats)" % beats

        run(body())

    def test_concurrent_queries_during_restore(self, tmp_path):
        async def body():
            async with TenantPool(pool_config(tmp_path)) as pool:
                await pool.tenant_create("alpha")
                await fill(pool, "alpha", seed=3)
                expected = await pool.query("point", {"tenant": "alpha", "key": "k3"})
                await pool._evict("alpha")
                assert pool.stats()["tenants_resident"] == 0
                answers = await asyncio.gather(
                    *(
                        pool.query("point", {"tenant": "alpha", "key": "k3"})
                        for _ in range(8)
                    )
                )
                assert answers == [expected] * 8
                # The racing queries serialized on the tenant lock: one
                # restore, not eight.
                assert pool.stats()["restores"] == 1

        run(body())


class TestEvictRestoreFidelity:
    MATRIX = [
        ("flat", {}),
        ("hierarchical", {"universe_bits": 8}),
    ]

    @pytest.mark.parametrize("mode,extra", MATRIX, ids=lambda value: str(value))
    def test_restore_is_byte_identical(self, tmp_path, mode, extra):
        async def body():
            async with TenantPool(pool_config(tmp_path)) as pool:
                overrides = dict(mode=mode, **extra)
                await pool.tenant_create("alpha", overrides)
                keys, clocks = trace(seed=3)
                if mode == "hierarchical":
                    keys = [hash(key) % 256 for key in keys]
                await pool.ingest(keys, clocks, tenant="alpha")
                await pool.drain(tenant="alpha")
                probe = keys[0]
                before = await pool.query("point", {"tenant": "alpha", "key": probe})

                assert await pool._evict("alpha") is True
                path = pool._snapshot_path_for("alpha")
                evicted_bytes = open(path, "rb").read()

                # Touch the tenant: lazily restored from the snapshot.
                after = await pool.query("point", {"tenant": "alpha", "key": probe})
                assert after == before

                # Snapshot the restored state over the same path: the file
                # must come back byte-for-byte (the payload is fully
                # deterministic, so equality means state equality).
                rewritten = await pool.snapshot_async(tenant="alpha")
                assert rewritten == path
                assert open(path, "rb").read() == evicted_bytes

        run(body())

    def test_missing_snapshot_is_reported(self, tmp_path):
        async def body():
            async with TenantPool(pool_config(tmp_path)) as pool:
                await pool.tenant_create("alpha")
                await fill(pool, "alpha", seed=3)
                await pool._evict("alpha")
                os.unlink(pool._snapshot_path_for("alpha"))
                with pytest.raises(TenantEvictedError):
                    await pool.tenant_stats("alpha")
                # The catalog entry survives so the operator can decide.
                listing = await pool.tenant_list()
                assert [entry["tenant"] for entry in listing] == ["alpha"]
                # Explicit delete + re-create is the recovery path.
                await pool.tenant_delete("alpha")
                await pool.tenant_create("alpha")
                assert (await pool.tenant_stats("alpha"))["records_ingested"] == 0

        run(body())

    def test_corrupt_snapshot_is_reported(self, tmp_path):
        async def body():
            async with TenantPool(pool_config(tmp_path)) as pool:
                await pool.tenant_create("alpha")
                await fill(pool, "alpha", seed=3)
                await pool._evict("alpha")
                with open(pool._snapshot_path_for("alpha"), "w") as handle:
                    handle.write('{"kind": "garbage"')
                with pytest.raises(TenantEvictedError):
                    await pool.query("point", {"tenant": "alpha", "key": "k0"})

        run(body())


class TestPoolRestart:
    def test_restart_restores_catalog_and_state(self, tmp_path):
        async def body():
            async with TenantPool(pool_config(tmp_path)) as pool:
                await pool.tenant_create("alpha")
                await pool.tenant_create("beta", {"mode": "hierarchical", "universe_bits": 8})
                await fill(pool, "alpha", seed=3)
                before = await pool.query("point", {"tenant": "alpha", "key": "k3"})
            # __aexit__ drained: every tenant evicted to its snapshot.

            async with TenantPool(pool_config(tmp_path)) as restarted:
                listing = {entry["tenant"]: entry for entry in await restarted.tenant_list()}
                assert set(listing) == {"alpha", "beta"}
                assert all(not entry["resident"] for entry in listing.values())
                assert listing["alpha"]["records_ingested"] == 400
                after = await restarted.query("point", {"tenant": "alpha", "key": "k3"})
                assert after == before
                assert restarted.stats()["restores"] == 1

        run(body())
