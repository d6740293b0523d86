"""Snapshot/restore round-trips: mid-stream state survives a process hop.

The acceptance bar is byte-identity: serialize the service mid-stream,
restore into a fresh service (simulating a new process), ingest the rest of
the stream into both the restored service and an uninterrupted reference,
and require identical serialized sketch state and identical query answers —
for all window models and both storage backends.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.errors import ConfigurationError
from repro.serialization import dumps
from repro.service import ServiceConfig, SketchService
from repro.service.snapshot import (
    SNAPSHOT_KIND,
    load_snapshot,
    snapshot_payload,
    service_state_from_snapshot,
    write_snapshot,
)
from repro.streams import IntegerZipfTrace, WorldCupSyntheticTrace
from repro.windows.base import WindowModel


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
@pytest.mark.parametrize("backend", ["columnar", "object"])
class TestMidStreamRoundTrip:
    def test_restored_run_is_byte_identical_to_uninterrupted(
        self, tmp_path, mode, model, backend
    ):
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
            backend=backend,
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
        async def body():
            config = ServiceConfig(mode="multisite", sites=2, period=10.0,
                                   snapshot_path=str(tmp_path / "m.json"))
            async with SketchService(config) as service:
                await service.ingest(["a"], [1.0], site=0)
                await service.drain()
                return snapshot_payload(service)

        payload = run(body())
        payload["config"]["sites"] = 3
        with pytest.raises(ConfigurationError):
            service_state_from_snapshot(payload)

    def test_restores_snapshot_naming_the_retired_kernels_backend(self, tmp_path):
        """Snapshots from builds with a separate compiled ``kernels`` backend
        restore onto the columnar store, byte-identical."""
        path = tmp_path / "old.json"

        async def body():
            config = ServiceConfig(mode="flat", backend="columnar", snapshot_path=str(path))
            async with SketchService(config) as service:
                await service.ingest(["a", "b", "a"], [1.0, 2.0, 3.0])
                await service.drain()
                service.snapshot_now()
                return dumps(service.state)

        original = run(body())
        payload = load_snapshot(path)
        payload["config"]["backend"] = "kernels"
        write_snapshot(path, payload)
        restored = SketchService.from_snapshot(path)
        assert restored.config.backend == "columnar"
        assert restored.state.backend == "columnar"
        assert dumps(restored.state) == original

    def test_kernels_backend_is_unknown_outside_decoding(self):
        with pytest.raises(ConfigurationError, match="auto, columnar, object"):
            SketchService(ServiceConfig(mode="flat", backend="kernels"))
