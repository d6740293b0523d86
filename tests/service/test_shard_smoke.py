"""End-to-end smoke test for the sharded tier: ``repro serve --shards`` +
``repro replay --connections`` as real processes.

The tier-1 twin of the CI ``shard-smoke`` job:

* boot the router CLI with 4 worker processes (port 0, banner readiness);
* replay the deterministic trace over 4 shard-affine connections;
* check served answers estimate-for-estimate against per-shard serial
  references fed the same partitioned sub-streams;
* snapshot, SIGKILL one worker by pid, verify the router reports it
  degraded, restart it through the protocol ``restart_shard`` op and
  verify the restored answers;
* SIGTERM the router and verify drain + manifest, then boot a fresh
  ``repro serve --restore <manifest>`` and verify it reassembles the
  exact pre-shutdown state.

Record count is tunable via ``REPRO_SHARD_SMOKE_RECORDS`` (CI runs 50k;
the local default keeps the test quick).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import pytest

from repro.core import ECMSketch
from repro.service import (
    ServeProcess,
    SyncServiceClient,
    build_replay_stream,
    repro_env,
    shard_of,
)

RECORDS = int(os.environ.get("REPRO_SHARD_SMOKE_RECORDS", "10000"))
SHARDS = 4
CONNECTIONS = 4
EPSILON = 0.05
WINDOW = 1_000_000.0
SEED = 11

pytestmark = pytest.mark.integration


def _build_references():
    """Per-shard serial sketches fed the same partitioned sub-streams the
    router's workers see (order within each shard is preserved by the
    replay driver's record-granular partition)."""
    info = {"mode": "flat", "model": "time"}
    trace, clocks = build_replay_stream(info, RECORDS, seed=SEED)
    keys = [record.key for record in trace]
    per_shard = {shard: ([], []) for shard in range(SHARDS)}
    for key, clock in zip(keys, clocks, strict=False):
        bucket = per_shard[shard_of(key, SHARDS)]
        bucket[0].append(key)
        bucket[1].append(clock)
    references = []
    for shard in range(SHARDS):
        sketch = ECMSketch.for_point_queries(epsilon=EPSILON, delta=0.05, window=WINDOW)
        sub_keys, sub_clocks = per_shard[shard]
        if sub_keys:
            sketch.add_many(sub_keys, sub_clocks)
        references.append(sketch)
    probe_keys = sorted({key for key in keys[:500]})[:64]
    return references, probe_keys


def _assert_matches_references(client, references, probe_keys):
    for key in probe_keys:
        assert client.point(key) == references[shard_of(key, SHARDS)].point_query(key), key
    assert client.self_join() == sum(sketch.self_join() for sketch in references)


def _wait_degraded(client, victim, timeout=30.0):
    """Poll stats until the router notices the killed worker.  The death is
    an OS-level event in another process — there is nothing to await on the
    client side, so this is a bounded poll, not a readiness sleep."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = client.get_stats().raw
        if victim in stats["degraded"]:
            return stats
        time.sleep(0.05)
    raise AssertionError("router never reported shard %d degraded" % victim)


class TestShardSmoke:
    def test_sharded_serve_replay_kill_restart_restore(self, tmp_path):
        manifest = tmp_path / "shard-manifest.json"
        report_path = tmp_path / "replay-report.json"
        with ServeProcess(
            "--mode", "flat",
            "--epsilon", EPSILON,
            "--window", WINDOW,
            "--shards", SHARDS,
            "--snapshot-path", manifest,
        ) as server:
            port = server.wait_ready()
            replay = subprocess.run(
                [
                    sys.executable, "-m", "repro", "replay",
                    "--port", str(port),
                    "--records", str(RECORDS),
                    "--seed", str(SEED),
                    "--connections", str(CONNECTIONS),
                    "--json", str(report_path),
                ],
                env=repro_env(),
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert replay.returncode == 0, replay.stdout + replay.stderr
            report = json.loads(report_path.read_text())
            assert report["records"] == RECORDS
            assert report["connections"] == CONNECTIONS
            assert report["server_stats"]["records_ingested"] == RECORDS

            references, probe_keys = _build_references()
            with SyncServiceClient.connect(port=port) as client:
                info = client.get_info().raw
                assert info["shards"] == SHARDS
                _assert_matches_references(client, references, probe_keys)

                # Snapshot the healthy tier, then SIGKILL one worker by pid.
                assert client.snapshot() == str(manifest)
                stats = client.get_stats().raw
                victim = 1
                pid = stats["shard_details"][victim]["pid"]
                os.kill(pid, signal.SIGKILL)
                _wait_degraded(client, victim)

                # Recovery through the wire protocol: respawn from the
                # per-shard snapshot and verify the answers came back.
                outcome = client.restart_shard(victim)
                assert outcome["restored_from"] is not None
                assert client.get_stats().raw["degraded"] == []
                _assert_matches_references(client, references, probe_keys)

            # SIGTERM: graceful drain + final manifest + clean exit.
            assert server.stop() == 0, server.output
            assert "drained" in server.output
            assert manifest.exists()

        # A fresh router restored from the manifest alone reassembles the
        # exact pre-shutdown state across all shards.
        with ServeProcess("--restore", manifest) as restored:
            port = restored.wait_ready()
            with SyncServiceClient.connect(port=port) as client:
                assert client.get_info().raw["shards"] == SHARDS
                assert client.get_stats().raw["records_ingested"] == RECORDS
                references, probe_keys = _build_references()
                _assert_matches_references(client, references, probe_keys)
            assert restored.stop() == 0, restored.output
