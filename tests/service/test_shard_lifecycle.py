"""Lifetimes of shard workers and of the router's handles on them.

* **Router death.**  A worker's stdin is its lifeline: a pipe only the
  router holds open.  SIGKILL the router and every worker reads EOF, drains
  as on SIGTERM and exits, releasing its journal and port.
* **Descriptor hygiene.**  Respawning a worker leaves the router's open
  descriptors as they were: the dead worker's lifeline, the ready pipe and
  every pidfd a join waits on are closed.
"""

from __future__ import annotations

import asyncio
import os
import time
from pathlib import Path

import pytest

from repro.service import ServeProcess, ServiceConfig, ShardRouter

pytestmark = [
    pytest.mark.integration,
    pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs Linux /proc"),
]


def _children(pid: int) -> list[int]:
    """Pids whose parent is ``pid``."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text(encoding="ascii")
        except OSError:
            continue  # exited while we looked
        # ``pid (comm) state ppid ...``; comm may hold spaces and parentheses.
        if int(stat.rpartition(")")[2].split()[1]) == pid:
            children.append(int(entry.name))
    return children


def _gone(pid: int) -> bool:
    """``pid`` has exited (reaped, or a zombie awaiting its new parent)."""
    try:
        stat = Path("/proc/%d/stat" % pid).read_text(encoding="ascii")
    except OSError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


class TestRouterDeath:
    def test_workers_exit_when_the_router_is_sigkilled(self, tmp_path):
        with ServeProcess("--mode", "flat", "--shards", 2, "--journal-dir", tmp_path / "journal") as server:
            server.wait_ready()
            workers = _children(server.process.pid)
            assert len(workers) == 2, workers  # the router's only children
            server.kill()
            server.wait()
            deadline = time.monotonic() + 10.0
            while not all(_gone(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if not _gone(pid)] == []
            # Each drained as on SIGTERM rather than dying.
            for shard in range(2):
                assert "repro-shard%d: drained" % shard in server.output


class TestDescriptorHygiene:
    def test_restarts_leave_the_routers_descriptors_unchanged(self):
        config = ServiceConfig(mode="flat", shards=2, expire_every=None)

        async def body() -> tuple[int, int]:
            router = ShardRouter(config)
            await asyncio.wait_for(router.start(), 120.0)
            try:
                before = len(os.listdir("/proc/self/fd"))
                for attempt in range(20):
                    await asyncio.wait_for(router.restart_shard(attempt % 2), 120.0)
                return before, len(os.listdir("/proc/self/fd"))
            finally:
                await router.stop()

        before, after = asyncio.run(body())
        assert after == before
