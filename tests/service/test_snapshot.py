"""Snapshot/restore round-trips: mid-stream state survives a process hop.

The acceptance bar is byte-identity: serialize the service mid-stream,
restore into a fresh service (simulating a new process), ingest the rest of
the stream into both the restored service and an uninterrupted reference,
and require identical serialized sketch state and identical query answers —
for all window models.  Payloads written while the counter-grid layout was
an option (a ``"backend"`` key in their configs) still restore.
"""

from __future__ import annotations

import asyncio
import json
import os
import sqlite3
import stat
import tracemalloc

import numpy as np
import pytest

from repro.core import ECMConfig, ECMSketch
from repro.core.errors import ConfigurationError
from repro.serialization import (
    config_from_dict,
    config_to_dict,
    dumps,
    ecm_sketch_to_dict,
    hierarchical_to_dict,
)
from repro.cli import build_parser
from repro.service import ServiceConfig, ShardRouter, SketchService, TenantPool, failpoints
from repro.service.errors import InvalidParameterError
from repro.service.snapshot import (
    SNAPSHOT_KIND,
    load_snapshot,
    snapshot_payload,
    service_state_from_snapshot,
    write_snapshot,
)
from repro.streams import IntegerZipfTrace, WorldCupSyntheticTrace
from repro.windows.base import WindowModel
from repro.windows.columnar_eh import _MODE_MIXED


def run(coroutine):
    return asyncio.run(coroutine)


def _columns(mode: str, model: WindowModel, records: int):
    """A deterministic (keys, clocks) workload matching the service mode."""
    if mode == "hierarchical":
        trace = IntegerZipfTrace(num_records=records, universe_bits=8, seed=5).generate()
    else:
        trace = WorldCupSyntheticTrace(num_records=records, seed=5).generate()
    keys = [record.key for record in trace]
    if model is WindowModel.COUNT_BASED:
        clocks = [index + 1 for index in range(len(keys))]
    else:
        clocks = [record.timestamp for record in trace]
    return keys, clocks


def _probe_answers(service: SketchService, mode: str, keys):
    if mode == "hierarchical":
        return {
            "points": [service.query("point", {"key": key}) for key in keys[:32]],
            "heavy_hitters": service.query("heavy_hitters", {"phi": 0.02}),
            "median": service.query("quantile", {"fraction": 0.5}),
        }
    return {
        "points": [service.query("point", {"key": key}) for key in keys[:32]],
        "self_join": service.query("self_join", {}),
    }


@pytest.mark.parametrize("mode", ["flat", "hierarchical"])
@pytest.mark.parametrize("model", [WindowModel.TIME_BASED, WindowModel.COUNT_BASED])
class TestMidStreamRoundTrip:
    def test_restored_run_is_byte_identical_to_uninterrupted(self, tmp_path, mode, model):
        records = 1_200
        # Windows sized so part of the stream expires: the snapshot must
        # carry partially-expired structures faithfully too.
        window = 400.0 if model is WindowModel.COUNT_BASED else 500_000.0
        keys, clocks = _columns(mode, model, records)
        half = records // 2
        config = ServiceConfig(
            mode=mode,
            model=model,
            window=window,
            universe_bits=8,
            epsilon=0.1,
            batch_size=128,
            snapshot_path=str(tmp_path / "snap.json"),
        )

        async def interrupted():
            # First half -> snapshot -> fresh process (restore) -> second half.
            async with SketchService(config) as service:
                await service.ingest(keys[:half], clocks[:half])
                await service.drain()
                path = service.snapshot_now()
            restored = SketchService.from_snapshot(path)
            async with restored:
                await restored.ingest(keys[half:], clocks[half:])
                await restored.drain()
                return dumps(restored.state), _probe_answers(restored, mode, keys), restored

        async def uninterrupted():
            async with SketchService(config) as service:
                await service.ingest(keys, clocks)
                await service.drain()
                return dumps(service.state), _probe_answers(service, mode, keys), service

        restored_bytes, restored_answers, restored_service = run(interrupted())
        reference_bytes, reference_answers, reference_service = run(uninterrupted())
        assert restored_bytes == reference_bytes
        assert restored_answers == reference_answers
        assert restored_service.records_ingested == reference_service.records_ingested


class TestMultisiteRoundTrip:
    def test_coordinator_state_survives_restore(self, tmp_path):
        trace = WorldCupSyntheticTrace(num_records=2_000, num_nodes=2, seed=9).generate()
        records = list(trace)
        half = len(records) // 2
        config = ServiceConfig(
            mode="multisite", sites=2, period=100_000.0,
            snapshot_path=str(tmp_path / "multi.json"),
        )

        def chunks(segment):
            start = 0
            for index in range(1, len(segment) + 1):
                if index == len(segment) or segment[index].node % 2 != segment[start].node % 2:
                    yield segment[start:index]
                    start = index

        async def feed(service, segment):
            for chunk in chunks(segment):
                await service.ingest(
                    [r.key for r in chunk],
                    [r.timestamp for r in chunk],
                    site=chunk[0].node % 2,
                )
            await service.drain()

        async def interrupted():
            async with SketchService(config) as service:
                await feed(service, records[:half])
                path = service.snapshot_now()
            restored = SketchService.from_snapshot(path)
            async with restored:
                await feed(restored, records[half:])
                coordinator = restored.state
                return (
                    coordinator.stats.rounds,
                    dumps(coordinator.root_sketch()),
                    [dumps(node.sketch) for node in coordinator.nodes],
                )

        async def uninterrupted():
            async with SketchService(config) as service:
                await feed(service, records)
                coordinator = service.state
                return (
                    coordinator.stats.rounds,
                    dumps(coordinator.root_sketch()),
                    [dumps(node.sketch) for node in coordinator.nodes],
                )

        assert run(interrupted()) == run(uninterrupted())


class TestSnapshotFiles:
    def test_atomic_write_replaces_previous(self, tmp_path):
        path = tmp_path / "snap.json"
        write_snapshot(path, {"kind": SNAPSHOT_KIND, "version": 1, "marker": 1})
        write_snapshot(path, {"kind": SNAPSHOT_KIND, "version": 1, "marker": 2})
        assert load_snapshot(path)["marker"] == 2
        # No temporary files left behind.
        assert [entry.name for entry in tmp_path.iterdir()] == ["snap.json"]

    def test_load_rejects_wrong_kind_and_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "ecm_sketch", "version": 1}))
        with pytest.raises(ConfigurationError):
            load_snapshot(path)
        path.write_text(json.dumps({"kind": SNAPSHOT_KIND, "version": 99}))
        with pytest.raises(ConfigurationError):
            load_snapshot(path)
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_snapshot(path)

    def test_payload_carries_watermarks(self, tmp_path):
        async def body():
            config = ServiceConfig(mode="flat", snapshot_path=str(tmp_path / "s.json"))
            async with SketchService(config) as service:
                await service.ingest(["a", "b"], [1.0, 2.0])
                await service.drain()
                return snapshot_payload(service)

        payload = run(body())
        assert payload["kind"] == SNAPSHOT_KIND
        assert payload["records_ingested"] == 2
        assert payload["applied_clock"] == 2.0
        assert payload["config"]["mode"] == "flat"

    def test_restore_rejects_site_count_mismatch(self, tmp_path):
        path = tmp_path / "m.json"

        async def body():
            config = ServiceConfig(mode="multisite", sites=2, period=10.0,
                                   snapshot_path=str(path))
            async with SketchService(config) as service:
                await service.ingest(["a"], [1.0], site=0)
                await service.drain()
                write_snapshot(path, snapshot_payload(service))

        run(body())
        payload = load_snapshot(path)
        payload["config"]["sites"] = 3
        with pytest.raises(ConfigurationError):
            service_state_from_snapshot(payload)


def _reference_document(service: SketchService) -> str:
    """``json.dumps`` of the cut with every sketch in its ``*_to_dict`` form."""
    payload = snapshot_payload(service)
    state = payload["state"]
    if service.config.mode == "flat":
        state["sketch"] = ecm_sketch_to_dict(service.state)
    elif service.config.mode == "hierarchical":
        state["sketch"] = hierarchical_to_dict(service.state)
    else:
        coordinator = service.state
        state["nodes"] = [ecm_sketch_to_dict(node.sketch) for node in coordinator.nodes]
        root = coordinator._root
        state["root"] = None if root is None else ecm_sketch_to_dict(root)
    return json.dumps(payload, separators=(",", ":"))


def _streamed_case(case: str):
    """``(config, [(keys, clocks, site), ...])`` for one streamed-document case."""
    mode = "hierarchical" if case.startswith("hier") else "flat"
    model = WindowModel.COUNT_BASED if case.endswith("count") else WindowModel.TIME_BASED
    keys, clocks = _columns(mode, model, 900)
    window = 300.0 if model is WindowModel.COUNT_BASED else 500_000.0
    config = ServiceConfig(
        mode=mode,
        model=model,
        window=window,
        universe_bits=8,
        epsilon=0.1,
        expire_every=None,
    )
    if case == "flat-int":
        return config, [(keys, [int(clock) for clock in clocks], 0)]
    if case == "flat-mixed":
        # Integer clocks first, then floats: the columnar store holds both.
        whole = [int(clock) for clock in clocks[:450]]
        return config, [(keys[:450], whole, 0), (keys[450:], clocks[450:], 0)]
    if case == "flat-empty":
        return config, []
    if case.startswith("multisite"):
        config = ServiceConfig(mode="multisite", sites=2, period=200_000.0, expire_every=None)
        if case == "multisite-before-round":
            return config, [(keys[:10], clocks[:10], 1)]
        return config, [(keys[:450], clocks[:450], 0), (keys[450:], clocks[450:], 1)]
    return config, [(keys, clocks, 0)]


class TestStreamedDocument:
    """The streamed file is byte for byte the document ``json.dumps`` writes."""

    @pytest.mark.parametrize(
        "case",
        [
            "flat-float",
            "flat-int",
            "flat-count",
            "flat-mixed",
            "flat-empty",
            "hier-float",
            "hier-count",
            "multisite",
            "multisite-before-round",
        ],
    )
    def test_file_is_json_dumps_of_the_dict_form(self, tmp_path, case):
        config, chunks = _streamed_case(case)
        path = tmp_path / "snap.json"

        async def body():
            async with SketchService(config) as service:
                for keys, clocks, site in chunks:
                    await service.ingest(keys, clocks, site=site)
                await service.drain()
                write_snapshot(path, snapshot_payload(service))
                return service, _reference_document(service)

        service, document = run(body())
        if case == "flat-mixed":
            assert service.state._store._flag_mode == _MODE_MIXED
        if case.startswith("multisite"):
            assert (service.state._root is None) == (case == "multisite-before-round")
        assert path.read_text(encoding="utf-8") == document

    def test_router_manifest_is_json_dumps_of_its_dict(self, tmp_path):
        manifest = tmp_path / "manifest.json"

        async def body():
            config = ServiceConfig(
                mode="flat", shards=2, expire_every=None, snapshot_path=str(manifest)
            )
            router = ShardRouter(config, local=True)
            await router.start()
            await router.ingest(["a", "b", "c", "a"], [1.0, 2.0, 3.0, 4.0])
            await router.drain()
            await router.stop(drain=True)

        run(body())
        text = manifest.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), separators=(",", ":"))

    def test_corrupt_failpoint_writes_the_first_half_of_the_document(self, tmp_path):
        config, chunks = _streamed_case("flat-float")
        path = tmp_path / "snap.json"

        async def body():
            async with SketchService(config) as service:
                for keys, clocks, site in chunks:
                    await service.ingest(keys, clocks, site=site)
                await service.drain()
                failpoints.arm("snapshot.write", "corrupt")
                try:
                    write_snapshot(path, snapshot_payload(service))
                finally:
                    failpoints.disarm("snapshot.write")
                return _reference_document(service)

        document = run(body())
        assert path.read_text(encoding="utf-8") == document[: len(document) // 2]
        with pytest.raises(ConfigurationError):
            load_snapshot(path)

    def test_rename_is_durable_before_write_returns(self, tmp_path, monkeypatch):
        # A journal rotation follows a returned write and may delete epochs
        # only the new snapshot covers: the rename must be on disk first.
        events = []
        replace, fsync = os.replace, os.fsync

        def spy_replace(source, destination):
            replace(source, destination)
            events.append("replace")

        def spy_fsync(descriptor):
            directory = stat.S_ISDIR(os.fstat(descriptor).st_mode)
            events.append("fsync directory" if directory else "fsync file")
            fsync(descriptor)

        monkeypatch.setattr(os, "replace", spy_replace)
        monkeypatch.setattr(os, "fsync", spy_fsync)
        write_snapshot(tmp_path / "snap.json", {"kind": SNAPSHOT_KIND, "version": 1})
        assert events == ["fsync file", "replace", "fsync directory"]

    def test_memory_is_bounded_by_the_file(self, tmp_path):
        # Neither the whole state as per-bucket lists nor the whole document
        # as one string: the peak stays within twice the file.
        config = ServiceConfig(mode="flat", window=1e12, epsilon=0.05, expire_every=None)
        service = SketchService(config)
        count = 200_000
        keys = np.random.default_rng(3).integers(0, 5_000, count)
        service.state.add_many(keys, np.arange(1, count + 1, dtype=np.int64))
        sketch = service.state
        buckets = sum(
            sketch.counter(row, column).bucket_count()
            for row in range(sketch.depth)
            for column in range(sketch.width)
        )
        assert buckets >= 40_000
        path = tmp_path / "snap.json"
        write_snapshot(tmp_path / "warm.json", snapshot_payload(service))  # imports
        tracemalloc.start()
        try:
            write_snapshot(path, snapshot_payload(service))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * os.path.getsize(path)

    def test_stats_report_the_last_snapshot_size(self, tmp_path):
        config = ServiceConfig(mode="flat", snapshot_path=str(tmp_path / "s.json"))

        async def body():
            async with SketchService(config) as service:
                before = service.stats()["last_snapshot_bytes"]
                await service.ingest(["a", "b"], [1.0, 2.0])
                await service.drain()
                path = await service.snapshot_async()
                return before, service.stats()["last_snapshot_bytes"], os.path.getsize(path)

        before, after, size = run(body())
        assert (before, after) == (0, size)


def _with_legacy_backend(path, value: str) -> None:
    """Rewrite a snapshot or manifest as a build that wrote ``"backend"`` would."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["config"]["backend"] = value
    write_snapshot(path, payload)


async def _service_round_trip(tmp_path, value: str) -> tuple[bytes, bytes]:
    path = str(tmp_path / "service.json")
    config = ServiceConfig(mode="flat", expire_every=None, snapshot_path=path)
    async with SketchService(config) as service:
        await service.ingest(["a", "b", "a"], [1.0, 2.0, 3.0])
        await service.drain()
        service.snapshot_now()
    original = open(path, "rb").read()
    _with_legacy_backend(path, value)
    async with SketchService.from_snapshot(path) as restored:
        restored.snapshot_now()
    return original, open(path, "rb").read()


async def _manifest_round_trip(tmp_path, value: str) -> tuple[bytes, bytes]:
    manifest = str(tmp_path / "manifest.json")
    config = ServiceConfig(mode="flat", shards=2, expire_every=None, snapshot_path=manifest)
    router = ShardRouter(config, local=True)
    await router.start()
    await router.ingest(["a", "b", "c", "a"], [1.0, 2.0, 3.0, 4.0])
    await router.drain()
    await router.stop(drain=True)
    with open(manifest, encoding="utf-8") as handle:
        written = json.load(handle)
    shard_paths = [entry["path"] for entry in written["shards"]]
    original = [open(shard_path, "rb").read() for shard_path in shard_paths]
    for shard_path in [manifest, *shard_paths]:
        _with_legacy_backend(shard_path, value)
    restored = ShardRouter.from_manifest(manifest, local=True)
    await restored.start()
    await restored.stop(drain=True)
    with open(manifest, encoding="utf-8") as handle:
        rewritten = json.load(handle)
    assert rewritten["config"] == written["config"]
    assert rewritten["epoch"] == written["epoch"] + 1
    again = [open(entry["path"], "rb").read() for entry in rewritten["shards"]]
    return b"".join(original), b"".join(again)


async def _catalog_round_trip(tmp_path, value: str) -> tuple[bytes, bytes]:
    config = ServiceConfig(
        mode="flat", pool=True, pool_dir=str(tmp_path / "pool"), expire_every=None
    )
    async with TenantPool(config) as pool:
        await pool.tenant_create("alpha")
        await pool.ingest(["a", "b", "a"], [1.0, 2.0, 3.0], tenant="alpha")
        path = await pool.snapshot_async(tenant="alpha")
        catalog_path = pool.catalog.path
    original = open(path, "rb").read()
    _with_legacy_backend(path, value)
    with sqlite3.connect(catalog_path) as catalog:
        (row,) = catalog.execute("SELECT config FROM tenants WHERE tenant = 'alpha'")
        row_config = dict(json.loads(row[0]), backend=value)
        catalog.execute(
            "UPDATE tenants SET config = ? WHERE tenant = 'alpha'", (json.dumps(row_config),)
        )
    catalog.close()
    async with TenantPool(config) as pool:
        (listed,) = await pool.tenant_list()
        assert listed["backend"] == "columnar"
        assert await pool.snapshot_async(tenant="alpha") == path
    return original, open(path, "rb").read()


class TestLegacyBackendKey:
    """The counter type decides the layout; a ``"backend"`` key is history."""

    @pytest.mark.parametrize("value", ["auto", "columnar", "object", "kernels"])
    @pytest.mark.parametrize(
        "round_trip",
        [_service_round_trip, _manifest_round_trip, _catalog_round_trip],
        ids=["snapshot", "manifest", "catalog"],
    )
    def test_payload_naming_a_backend_restores_byte_identical(self, tmp_path, round_trip, value):
        original, rewritten = run(round_trip(tmp_path, value))
        assert b'"backend"' not in rewritten
        assert rewritten == original

    @pytest.mark.parametrize("value", ["auto", "columnar", "object", "kernels"])
    def test_sketch_config_ignores_a_backend_key(self, value):
        config = ECMConfig.for_point_queries(epsilon=0.1, delta=0.1, window=100.0)
        payload = dict(config_to_dict(config), backend=value)
        assert config_from_dict(payload) == config
        assert ECMSketch(config_from_dict(payload)).backend == "columnar"

    def test_tenant_create_rejects_a_backend_key(self, tmp_path):
        async def body():
            config = ServiceConfig(pool=True, pool_dir=str(tmp_path), expire_every=None)
            async with TenantPool(config) as pool:
                with pytest.raises(InvalidParameterError, match="tenants may set: .*counter_type"):
                    await pool.tenant_create("alpha", {"backend": "object"})
                assert await pool.tenant_list() == []

        run(body())

    def test_serve_has_no_backend_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "columnar"])
        with pytest.raises(TypeError):
            ServiceConfig(backend="columnar")  # type: ignore[call-arg]
