"""The boot path of ``repro serve``: what a server imports and how it starts.

* **Import budget.**  A server imports only the layers its mode runs.  Each
  boot runs with bytecode writing off (``PYTHONDONTWRITEBYTECODE``, the
  ``-B`` flag), and a ``sitecustomize`` hook on the subprocess path records
  ``sys.modules`` when each interpreter exits: the server itself and, for a
  sharded server, every spawned worker.
* **Subprocess environment.**  :func:`~repro.service.launch.repro_env` puts
  ``src/`` first on ``PYTHONPATH`` and never adds an empty entry (which
  Python reads as the current directory).
* **Worker readiness.**  :class:`~repro.service.shard_worker.ShardProcess`
  waits on the ready pipe and the process sentinel, so a worker that dies
  during boot fails at once instead of at the deadline.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path

import pytest

from repro.service import ServeProcess, ServiceConfig, repro_env
from repro.service.shard_worker import ShardProcess, ShardUnavailableError, worker_config

pytestmark = pytest.mark.integration

#: Never imported by a flat server: offline experiments, analysis and exact
#: baselines, the distributed simulation, every serving layer a flat server
#: does not run, and the tenant catalog's SQLite.
FLAT_UNUSED = (
    "repro.experiments",
    "repro.analysis",
    "repro.baselines",
    "repro.distributed",
    "repro.service.gateway",
    "repro.service.client",
    "repro.service.replay",
    "repro.service.launch",
    "repro.service.pool",
    "repro.service.router",
    "repro.service.shard_worker",
    "repro.service.supervision",
    "sqlite3",
)

#: Still never imported by a sharded server without ``--pool``/``--supervise``.
SHARDED_UNUSED = (
    "repro.service.pool",
    "repro.service.supervision",
    "repro.distributed.runner",
    "sqlite3",
)

_SITECUSTOMIZE = """\
import atexit
import json
import os
import sys


def _dump_modules():
    path = os.path.join(%r, "modules-%%d.json" %% os.getpid())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(sorted(sys.modules), handle)


atexit.register(_dump_modules)
"""


def _loaded(modules: set[str], names: tuple[str, ...]) -> list[str]:
    """The modules of ``modules`` that are, or live under, one of ``names``."""
    return sorted(
        module for module in modules
        if any(module == name or module.startswith(name + ".") for name in names)
    )


def _boot_modules(tmp_path: Path, *args: object) -> tuple[set[str], list[set[str]]]:
    """Boot and stop ``repro serve``; the server's and each worker's modules."""
    hook = tmp_path / "hook"
    dumps = tmp_path / "dumps"
    hook.mkdir()
    dumps.mkdir()
    (hook / "sitecustomize.py").write_text(_SITECUSTOMIZE % str(dumps), encoding="utf-8")
    env = repro_env({"PYTHONDONTWRITEBYTECODE": "1"})
    env["PYTHONPATH"] = os.pathsep.join([str(hook), env["PYTHONPATH"]])
    with ServeProcess(*args, env=env) as server:
        server.wait_ready()
        assert server.stop() == 0, server.output
    processes = {
        int(path.stem.split("-")[1]): set(json.loads(path.read_text(encoding="utf-8")))
        for path in dumps.glob("modules-*.json")
    }
    router = processes.pop(server.process.pid)
    workers = [modules for modules in processes.values() if "repro.service.server" in modules]
    return router, workers


class TestImportBudget:
    def test_flat_server_imports_only_the_flat_path(self, tmp_path):
        modules, workers = _boot_modules(
            tmp_path, "--mode", "flat", "--journal-dir", tmp_path / "journal"
        )
        assert workers == []
        assert "repro.service.server" in modules
        assert "repro.service.journal" in modules
        assert _loaded(modules, FLAT_UNUSED) == []

    def test_sharded_router_adds_only_the_router_and_worker_handles(self, tmp_path):
        modules, workers = _boot_modules(
            tmp_path, "--mode", "flat", "--shards", 2, "--journal-dir", tmp_path / "journal"
        )
        assert {"repro.service.router", "repro.service.shard_worker"} <= modules
        assert _loaded(modules, SHARDED_UNUSED) == []
        # Each spawned worker re-imports the CLI as ``__mp_main__`` and then
        # serves flat: the flat budget plus its own entry point.
        assert len(workers) == 2
        worker_unused = tuple(name for name in FLAT_UNUSED if name != "repro.service.shard_worker")
        for worker in workers:
            assert "repro.service.shard_worker" in worker
            assert _loaded(worker, worker_unused) == []


class TestReproEnv:
    @pytest.mark.parametrize(
        "inherited, expected",
        [
            (None, []),
            ("", []),
            (os.pathsep, []),
            (os.pathsep + "/deps/a" + os.pathsep, ["/deps/a"]),
            (os.pathsep.join(["/deps/a", "/deps/b"]), ["/deps/a", "/deps/b"]),
        ],
    )
    def test_src_leads_and_no_empty_entry_adds_the_cwd(self, monkeypatch, inherited, expected):
        if inherited is None:
            monkeypatch.delenv("PYTHONPATH", raising=False)
        else:
            monkeypatch.setenv("PYTHONPATH", inherited)
        src, *rest = repro_env()["PYTHONPATH"].split(os.pathsep)
        assert (Path(src) / "repro" / "__init__.py").is_file()
        assert rest == expected


class TestWorkerReadiness:
    def test_worker_dying_during_boot_fails_before_the_deadline(self, tmp_path):
        config = ServiceConfig(mode="flat", shards=1, expire_every=None)
        missing = str(tmp_path / "no-such-snapshot.json")

        async def body() -> float:
            worker = ShardProcess(0, worker_config(config, 0), restore=missing)
            start = time.monotonic()
            with pytest.raises(ShardUnavailableError, match="exited during boot"):
                await worker.wait_ready(timeout=120.0)
            assert worker.exitcode not in (None, 0)
            return time.monotonic() - start

        assert asyncio.run(body()) < 60.0

    def test_ready_announcement_and_join_on_kill(self):
        config = ServiceConfig(mode="flat", shards=1, expire_every=None)

        async def body() -> None:
            worker = ShardProcess(0, worker_config(config, 0))
            port = await worker.wait_ready()
            assert port == worker.port and port > 0
            assert await worker.join(timeout=0.05) is None  # still serving
            worker.kill()
            assert await worker.join(timeout=30.0) == -9

        asyncio.run(body())
