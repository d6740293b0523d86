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
import errno
import json
import os
import sqlite3
import stat
import subprocess
import sys
import textwrap
import time
from pathlib import Path

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
from repro.service import (
    ServiceConfig,
    ShardRouter,
    SketchService,
    TenantPool,
    failpoints,
    repro_env,
)
from repro.service.errors import InvalidParameterError
from repro.service.snapshot import (
    SNAPSHOT_KIND,
    SnapshotPipe,
    document_kind,
    load_snapshot,
    snapshot_payload,
    service_state_from_snapshot,
    write_snapshot,
)
from repro.streams import IntegerZipfTrace, WorldCupSyntheticTrace
from repro.windows import ColumnarEHStore
from repro.windows.base import WindowModel

#: A flat snapshot written when one EH cell could hold int and float clocks
#: side by side (the store kept per-bucket clock types), from the chunks of
#: :func:`_mixed_fixture_stream` with :data:`_MIXED_FIXTURE_CONFIG`, through
#: ``write_snapshot(path, snapshot_payload(service))``.
MIXED_FIXTURE = Path(__file__).parent / "data" / "flat_mixed_clocks.json"
_MIXED_FIXTURE_CONFIG = dict(mode="flat", epsilon=0.2, window=1000.0, expire_every=None)


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


def _mixed_fixture_stream():
    """The two chunks :data:`MIXED_FIXTURE` holds (int clocks, then float
    clocks, some on keys of the first chunk), then the stream after them."""
    keys = ["a%d" % (i % 12) for i in range(40)]
    keys += ["b%d" % (i % 6) if i % 4 else "a%d" % (i % 3) for i in range(40)]
    clocks = [10 + i for i in range(40)] + [50.5 + 0.25 * i for i in range(40)]
    after_keys = ["a%d" % (i % 5) if i % 2 else "c%d" % (i % 4) for i in range(60)]
    after_clocks = [61 + i if i % 3 else 61.5 + i for i in range(60)]
    return [(keys[:40], clocks[:40]), (keys[40:], clocks[40:])], (after_keys, after_clocks)


class TestMixedClockFixture:
    """A snapshot whose cells mixed int and float clocks restores with those
    cells float, as a live service's cells are from their first float clock
    on, and the restored service then ingests like the live one."""

    def test_restored_cells_are_float_and_ingest_like_a_live_service(self):
        chunks, (after_keys, after_clocks) = _mixed_fixture_stream()
        written = json.loads(MIXED_FIXTURE.read_text(encoding="utf-8"))["state"]["sketch"]

        def clock_types(cell):
            clocks = [clock for bucket in cell["buckets"] for clock in bucket[1:]]
            return {type(clock) for clock in clocks + [cell["last_clock"]]} - {type(None)}

        written_types = [clock_types(cell) for row in written["counters"] for cell in row]
        assert {int, float} in written_types

        async def restored():
            service = SketchService.from_snapshot(MIXED_FIXTURE)
            async with service:
                restored_cells = ecm_sketch_to_dict(service.state)["counters"]
                await service.ingest(after_keys, after_clocks)
                await service.drain()
                return restored_cells, dumps(service.state)

        async def live():
            async with SketchService(ServiceConfig(**_MIXED_FIXTURE_CONFIG)) as service:
                for keys, clocks in chunks:
                    await service.ingest(keys, clocks)
                await service.drain()
                live_cells = ecm_sketch_to_dict(service.state)["counters"]
                await service.ingest(after_keys, after_clocks)
                await service.drain()
                return live_cells, dumps(service.state)

        restored_cells, restored_bytes = run(restored())
        live_cells, live_bytes = run(live())
        restored_types = [clock_types(cell) for row in restored_cells for cell in row]
        assert restored_types == [{float} if float in kinds else kinds for kinds in written_types]
        assert json.dumps(restored_cells) == json.dumps(live_cells)
        assert restored_bytes == live_bytes


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
        # Integer clocks first, then floats: the columnar store holds cells
        # of both clock types.
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
            is_float = service.state._store._is_float
            assert is_float.any() and not is_float.all()
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
        # The cut hands each counter's text to the writer thread as it is
        # encoded: neither the state as per-bucket lists nor the document
        # (as one string or as a list of pieces) is held, so a full
        # snapshot_async peaks far below the file it writes.
        path = tmp_path / "snap.json"
        measured = _measure_in_fresh_interpreter(
            """
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
            asyncio.run(service.snapshot_async(path + ".warm"))  # imports
            peak = traced_peak(lambda: asyncio.run(service.snapshot_async(path)))
            report(buckets=buckets, peak=peak)
            """,
            path,
        )
        assert measured["buckets"] >= 40_000
        assert measured["peak"] <= os.path.getsize(path) / 4

    def test_restore_memory_is_bounded_by_the_file(self, tmp_path):
        # Restore decodes and loads one counter at a time.  What remains is
        # the window of the file being parsed and the restored sketch's own
        # growth, which stays on the heap only while its pools are small; a
        # file of a few MB keeps those fixed costs far below a quarter of it.
        path = tmp_path / "snap.json"
        measured = _measure_in_fresh_interpreter(
            """
            config = ServiceConfig(mode="flat", window=1e12, epsilon=0.025, expire_every=None)
            service = SketchService(config)
            count = 300_000
            keys = np.random.default_rng(3).integers(0, 50_000, count)
            service.state.add_many(keys, np.arange(1, count + 1, dtype=np.int64))
            service.snapshot_now(path)
            SketchService.from_snapshot(path)  # imports
            restored = []
            peak = traced_peak(lambda: restored.append(SketchService.from_snapshot(path)))
            report(peak=peak, identical=dumps(restored[0].state) == dumps(service.state))
            """,
            path,
        )
        assert os.path.getsize(path) >= 2_000_000
        assert measured["peak"] <= os.path.getsize(path) / 4
        assert measured["identical"]

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


#: What every :func:`_measure_in_fresh_interpreter` script starts with.
_FRESH_PRELUDE = """
import asyncio
import gc
import json
import sys
import tracemalloc

import numpy as np

from repro.serialization import dumps
from repro.service import ServiceConfig, SketchService

path = sys.argv[1]


def traced_peak(call):
    # Collected first, so no garbage of the set-up is freed into the trace.
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def report(**measured):
    print(json.dumps(measured))
"""


def _measure_in_fresh_interpreter(body: str, path: Path) -> dict:
    """Run ``body`` after :data:`_FRESH_PRELUDE` in a new interpreter, with
    ``path`` as its ``path``; returns what it passed to ``report``.

    A tracemalloc peak counts every allocation of the process while it is
    traced, so a memory bound measured in the pytest process also counts
    the threads and garbage of earlier tests.  A fresh interpreter holds
    only the measured call's.
    """
    script = _FRESH_PRELUDE + textwrap.dedent(body)
    result = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=repro_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


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


def _counting_serializer(monkeypatch, fail_at: int | None = None, pause: float = 0.0):
    """Spy on the columnar store's cell encoder; returns the call counter.

    It raises on call ``fail_at`` when given, and sleeps ``pause`` seconds
    per counter (releasing the GIL, so the writer thread gets to run).
    """
    cell_payload = ColumnarEHStore.cell_payload
    calls = [0]

    def spy(store, cell):
        calls[0] += 1
        if calls[0] == fail_at:
            raise RuntimeError("encoder failed on counter %d" % fail_at)
        if pause:
            time.sleep(pause)
        return cell_payload(store, cell)

    monkeypatch.setattr(ColumnarEHStore, "cell_payload", spy)
    return calls


async def _take_snapshot(service: SketchService, entry: str) -> str:
    if entry == "snapshot_async":
        return await service.snapshot_async()
    return service.snapshot_now()


class TestStreamedWriteFailures:
    """A failed streamed write leaves the previous snapshot and no temp file."""

    @pytest.mark.parametrize("entry", ["snapshot_async", "snapshot_now"])
    def test_encode_error_keeps_the_previous_snapshot(self, tmp_path, monkeypatch, entry):
        path = tmp_path / "snap.json"
        config = ServiceConfig(mode="flat", epsilon=0.1, expire_every=None, snapshot_path=str(path))
        keys, clocks = _columns("flat", WindowModel.TIME_BASED, 600)

        async def body():
            async with SketchService(config) as service:
                await service.ingest(keys[:300], clocks[:300])
                await service.drain()
                await _take_snapshot(service, entry)
                previous = path.read_bytes()
                await service.ingest(keys[300:], clocks[300:])
                await service.drain()
                with monkeypatch.context() as patch:
                    calls = _counting_serializer(patch, fail_at=5)
                    with pytest.raises(RuntimeError, match="encoder failed on counter 5"):
                        await _take_snapshot(service, entry)
                assert calls[0] == 5
                assert path.read_bytes() == previous
                assert [entry.name for entry in tmp_path.iterdir()] == ["snap.json"]
                # The service keeps serving and snapshotting.
                await service.ingest(["late"], [clocks[-1] + 1.0])
                await service.drain()
                assert service.query("point", {"key": "late"}) >= 1
                written = await _take_snapshot(service, entry)
                return written, service.snapshots_written, _reference_document(service)

        written, snapshots, document = run(body())
        assert snapshots == 2
        assert open(written, encoding="utf-8").read() == document

    def test_writer_error_reaches_the_caller_and_stops_the_encoder(self, tmp_path, monkeypatch):
        path = tmp_path / "snap.json"
        config = ServiceConfig(mode="flat", epsilon=0.1, expire_every=None, snapshot_path=str(path))
        keys, clocks = _columns("flat", WindowModel.TIME_BASED, 600)
        write = os.write

        def disk_full(descriptor, data):
            if stat.S_ISREG(os.fstat(descriptor).st_mode):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(descriptor, data)

        async def body():
            async with SketchService(config) as service:
                await service.ingest(keys, clocks)
                await service.drain()
                await service.snapshot_async()
                previous = path.read_bytes()
                counters = service.state.depth * service.state.width
                with monkeypatch.context() as patch:
                    calls = _counting_serializer(patch, pause=0.002)
                    patch.setattr(os, "write", disk_full)
                    with pytest.raises(OSError) as failure:
                        await service.snapshot_async()
                return failure.value, calls[0], counters, previous, service.snapshots_written

        error, encoded, counters, previous, snapshots = run(body())
        assert error.errno == errno.ENOSPC
        assert encoded < counters
        assert snapshots == 1
        assert path.read_bytes() == previous
        assert [entry.name for entry in tmp_path.iterdir()] == ["snap.json"]

    @pytest.mark.parametrize("entry", ["snapshot_async", "snapshot_now"])
    def test_a_lagging_writer_holds_the_encoder_back(self, tmp_path, monkeypatch, entry):
        # Every write of the file takes 20 ms, far longer than encoding the
        # run it writes: the encoder must wait for room rather than queue
        # the rest of the document behind the writer.
        import repro.service.snapshot as snapshot_module

        path = tmp_path / "snap.json"
        config = ServiceConfig(mode="flat", epsilon=0.05, expire_every=None, snapshot_path=str(path))
        keys, clocks = _columns("flat", WindowModel.TIME_BASED, 20_000)
        write_all = snapshot_module._write_all
        put = SnapshotPipe.put
        pending, pieces = [0], [0]

        def slow_write(descriptor, data):
            time.sleep(0.02)
            write_all(descriptor, data)

        def spy(pipe, piece):
            pieces[0] = max(pieces[0], len(piece))
            written = put(pipe, piece)
            pending[0] = max(pending[0], pipe._pending)
            return written

        async def body():
            async with SketchService(config) as service:
                await service.ingest(keys, clocks)
                await service.drain()
                with monkeypatch.context() as patch:
                    patch.setattr(snapshot_module, "_write_all", slow_write)
                    patch.setattr(SnapshotPipe, "put", spy)
                    await _take_snapshot(service, entry)
                return _reference_document(service)

        document = run(body())
        assert path.read_text(encoding="utf-8") == document
        assert len(document) >= 8 * snapshot_module._PIPE_LIMIT
        assert pending[0] <= snapshot_module._PIPE_LIMIT + pieces[0]

    def test_a_writer_failing_while_the_encoder_waits_for_room_stops_it(
        self, tmp_path, monkeypatch
    ):
        import repro.service.snapshot as snapshot_module

        path = tmp_path / "snap.json"
        config = ServiceConfig(mode="flat", epsilon=0.05, expire_every=None, snapshot_path=str(path))
        keys, clocks = _columns("flat", WindowModel.TIME_BASED, 20_000)

        def full_after_a_wait(descriptor, data):
            time.sleep(0.05)  # the encoder fills the pipe meanwhile
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        async def body():
            async with SketchService(config) as service:
                await service.ingest(keys, clocks)
                await service.drain()
                counters = service.state.depth * service.state.width
                with monkeypatch.context() as patch:
                    calls = _counting_serializer(patch)
                    patch.setattr(snapshot_module, "_write_all", full_after_a_wait)
                    with pytest.raises(OSError) as failure:
                        await service.snapshot_async()
                left = [entry.name for entry in tmp_path.iterdir()]
                return failure.value, calls[0], counters, left

        error, encoded, counters, left = run(body())
        assert error.errno == errno.ENOSPC
        assert encoded < counters
        assert left == []

    def test_error_failpoint_removes_the_temporary_file(self, tmp_path):
        path = tmp_path / "snap.json"
        config = ServiceConfig(mode="flat", expire_every=None, snapshot_path=str(path))

        async def body():
            async with SketchService(config) as service:
                await service.ingest(["a", "b"], [1.0, 2.0])
                await service.drain()
                await service.snapshot_async()
                previous = path.read_bytes()
                failpoints.arm("snapshot.write", "error")
                try:
                    with pytest.raises(RuntimeError, match="injected error"):
                        await service.snapshot_async()
                finally:
                    failpoints.disarm("snapshot.write")
                assert path.read_bytes() == previous
                assert [entry.name for entry in tmp_path.iterdir()] == ["snap.json"]

        run(body())


class TestStreamedCut:
    def test_snapshot_under_load_is_the_cut_of_its_tick(self, tmp_path, monkeypatch):
        # Chunks are still arriving and applying while the snapshot is
        # written (the fsync is slowed down to make sure of it): the file is
        # the state of the tick the cut ran in, journal position included.
        import repro.service.snapshot as snapshot_module

        path = tmp_path / "snap.json"
        config = ServiceConfig(
            mode="flat",
            epsilon=0.1,
            expire_every=None,
            batch_size=64,
            snapshot_path=str(path),
            journal_dir=str(tmp_path / "wal"),
        )
        keys, clocks = _columns("flat", WindowModel.TIME_BASED, 2_560)
        chunks = [(keys[i : i + 64], clocks[i : i + 64]) for i in range(0, len(keys), 64)]
        cuts = []
        payload, fsync = snapshot_module.snapshot_payload, os.fsync

        def spy_payload(service, pipe=None):
            cuts.append((_reference_document(service), service._applied_journal_seq))
            return payload(service, pipe)

        def slow_fsync(descriptor):
            time.sleep(0.05)
            fsync(descriptor)

        monkeypatch.setattr(snapshot_module, "snapshot_payload", spy_payload)
        monkeypatch.setattr(os, "fsync", slow_fsync)

        async def body():
            async with SketchService(config) as service:
                for chunk_keys, chunk_clocks in chunks[:20]:
                    await service.ingest(chunk_keys, chunk_clocks)
                late = [
                    asyncio.create_task(service.ingest(chunk_keys, chunk_clocks))
                    for chunk_keys, chunk_clocks in chunks[20:]
                ]
                await service.snapshot_async()
                written = path.read_text(encoding="utf-8")
                await asyncio.gather(*late)
                await service.drain()
                return written, service._applied_journal_seq

        written, final_seq = run(body())
        document, cut_seq = cuts[0]  # the second cut is the drain's final snapshot
        assert written == document
        assert json.loads(document)["journal_seq"] == cut_seq
        assert 0 < cut_seq <= 20 < final_seq == len(chunks)


def _reordered(value, last_first: dict):
    """A payload with, in each object that has it, the key named by
    ``last_first`` moved to the front (``json.dumps`` keeps insertion order)."""
    if isinstance(value, list):
        return [_reordered(item, last_first) for item in value]
    if not isinstance(value, dict):
        return value
    items = {key: _reordered(item, last_first) for key, item in value.items()}
    front = [key for key in last_first if key in items]
    return {**{key: items[key] for key in front}, **items}


class TestStreamedRestore:
    """Restore streams the document; results and errors match the whole-document read."""

    @pytest.mark.parametrize("state_first", [False, True], ids=["sketches", "envelope"])
    @pytest.mark.parametrize("case", ["flat-float", "hier-count", "multisite"])
    def test_restore_does_not_depend_on_key_order(self, tmp_path, case, state_first):
        # `counters`/`levels`/`nodes` (and `state`) ahead of the keys that
        # describe them: valid JSON this code never writes, so the sketch
        # readers (or, with `state` first, the envelope reader) decode whole.
        config, chunks = _streamed_case(case)
        path = tmp_path / "snap.json"

        async def body():
            async with SketchService(config) as service:
                for keys, clocks, site in chunks:
                    await service.ingest(keys, clocks, site=site)
                await service.drain()
                service.snapshot_now(str(path))
                return _reference_document(service)

        document = run(body())
        front = ["counters", "levels", "nodes"] + (["state"] if state_first else [])
        moved = _reordered(json.loads(document), front)
        path.write_text(json.dumps(moved), encoding="utf-8")
        text = path.read_text(encoding="utf-8")
        assert '{"counters": ' in text
        assert text.startswith('{"state": ') == state_first
        restored = SketchService.from_snapshot(path)
        assert _reference_document(restored) == document

    def test_restore_errors_match_the_whole_document_read(self, tmp_path):
        config, chunks = _streamed_case("hier-count")
        path = tmp_path / "snap.json"

        async def body():
            async with SketchService(config) as service:
                for keys, clocks, site in chunks:
                    await service.ingest(keys, clocks, site=site)
                await service.drain()
                service.snapshot_now(str(path))

        run(body())
        document = path.read_text(encoding="utf-8")
        payload = json.loads(document)
        level = payload["state"]["sketch"]["levels"][0]
        broken = {
            "truncated": document[: len(document) // 2],
            "truncated-envelope": document[:40],
            "extra-data": document + " {}",
            "bad-delimiter": document.replace('"levels":[', '"levels" [', 1),
            "wrong-kind": json.dumps(dict(payload, kind="ecm_sketch")),
            "wrong-version": json.dumps(dict(payload, version=99)),
            "grid-shape": json.dumps(
                _replace_level(payload, dict(level, counters=level["counters"][:-1]))
            ),
            "level-count": json.dumps(_replace_levels(payload, payload["state"]["sketch"]["levels"][:-1])),
            "bucket-size": document.replace("[[1,", "[[3,", 1),
        }
        for name, text in broken.items():
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ConfigurationError) as whole:
                service_state_from_snapshot(load_snapshot(path))
            with pytest.raises(ConfigurationError) as streamed:
                SketchService.from_snapshot(path)
            assert str(streamed.value) == str(whole.value), name

    def test_restore_kind_probe_reads_the_head(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text('{"kind":"service_snapshot","state":' + "[" * 10 + " not json", encoding="utf-8")
        assert document_kind(path) == SNAPSHOT_KIND
        path.write_text('{"version":1,"kind":"shard_manifest"}', encoding="utf-8")
        assert document_kind(path) == "shard_manifest"
        path.write_text("[1, 2]", encoding="utf-8")
        assert document_kind(path) is None


def _replace_levels(payload, levels):
    sketch = dict(payload["state"]["sketch"], levels=levels)
    return dict(payload, state=dict(payload["state"], sketch=sketch))


def _replace_level(payload, level):
    return _replace_levels(payload, [level, *payload["state"]["sketch"]["levels"][1:]])
