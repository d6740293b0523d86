"""End-to-end smoke test: `repro serve` + `repro replay` as real processes.

This is the tier-1 twin of the CI ``service-smoke`` job: boot the server CLI
in a subprocess, replay ~50k records through the replay CLI, check the
served answers against a serial in-process reference fed the exact same
trace, then SIGTERM the server and verify it drains, snapshots and exits
cleanly — and that the snapshot restores to the same answers.

Process management goes through :class:`~repro.service.launch.ServeProcess`:
the server binds port 0 and announces the kernel-assigned port on its
banner, so there is no free-port race and no connect-polling loop.
"""

from __future__ import annotations

import json
import subprocess
import sys
import pytest

from repro.core import ECMSketch
from repro.service import (
    ServeProcess,
    ServiceConfig,
    SketchService,
    SyncServiceClient,
    build_replay_stream,
    repro_env,
)
from repro.service.snapshot import load_snapshot

RECORDS = 50_000
EPSILON = 0.05
WINDOW = 1_000_000.0
SEED = 7

pytestmark = pytest.mark.integration


class TestServiceSmoke:
    def test_serve_replay_reference_and_sigterm_snapshot(self, tmp_path):
        snapshot_path = tmp_path / "smoke-snapshot.json"
        report_path = tmp_path / "replay-report.json"
        with ServeProcess(
            "--mode", "flat",
            "--epsilon", EPSILON,
            "--window", WINDOW,
            "--snapshot-path", snapshot_path,
        ) as server:
            port = server.wait_ready()
            replay = subprocess.run(
                [
                    sys.executable, "-m", "repro", "replay",
                    "--port", str(port),
                    "--records", str(RECORDS),
                    "--seed", str(SEED),
                    "--json", str(report_path),
                ],
                env=repro_env(),
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert replay.returncode == 0, replay.stdout + replay.stderr
            report = json.loads(report_path.read_text())
            assert report["records"] == RECORDS
            assert report["server_stats"]["records_ingested"] == RECORDS

            # The replay driver replays a deterministic trace: rebuild it and
            # the serial reference, then compare served answers exactly.
            info = {"mode": "flat", "model": "time"}
            trace, clocks = build_replay_stream(info, RECORDS, seed=SEED)
            reference = ECMSketch.for_point_queries(epsilon=EPSILON, delta=0.05, window=WINDOW)
            reference.add_many([record.key for record in trace], clocks)
            probe_keys = sorted({record.key for record in list(trace)[:500]})[:64]
            with SyncServiceClient.connect(port=port) as client:
                for key in probe_keys:
                    assert client.point(key) == reference.point_query(key)
                assert client.self_join() == reference.self_join()

            # SIGTERM: graceful drain + final snapshot + clean exit.
            assert server.stop() == 0, server.output
            assert "drained" in server.output
            assert snapshot_path.exists()

        payload = load_snapshot(snapshot_path)
        assert payload["records_ingested"] == RECORDS
        restored = SketchService.from_snapshot(snapshot_path)
        for key in probe_keys:
            assert restored.query("point", {"key": key}) == reference.point_query(key)

    def test_restore_flag_boots_from_snapshot(self, tmp_path):
        """`repro serve --restore` resumes from a snapshot written by a peer."""
        snapshot_path = tmp_path / "seed-snapshot.json"
        config = ServiceConfig(mode="flat", epsilon=EPSILON, window=WINDOW,
                               snapshot_path=str(snapshot_path))

        import asyncio

        async def seed():
            async with SketchService(config) as service:
                await service.ingest(["x", "y", "x"], [1.0, 2.0, 3.0])
                await service.drain()
                service.snapshot_now()

        asyncio.run(seed())

        with ServeProcess("--restore", snapshot_path) as server:
            port = server.wait_ready()
            with SyncServiceClient.connect(port=port) as client:
                assert client.point("x") == 2.0
                stats = client.get_stats().raw
                assert stats["records_ingested"] == 3
                # The restored server keeps ingesting past the watermark.
                client.ingest(["x"], [4.0])
                client.drain()
                assert client.point("x") == 3.0
            assert server.stop() == 0, server.output
