"""The boot path of ``repro serve``: what a server imports and how it starts.

* **Import budget.**  A server imports only the layers its mode runs.  Each
  boot runs with bytecode writing off (``PYTHONDONTWRITEBYTECODE``, the
  ``-B`` flag), and a ``sitecustomize`` hook on the subprocess path records
  ``sys.modules`` when each interpreter exits: the server itself and, for a
  sharded server, every worker.  Every Python process of the tree dumps, so
  the dumps also pin the process tree: the router plus one worker per
  shard, and no ``multiprocessing`` resource tracker.
* **Subprocess environment.**  :func:`~repro.service.launch.repro_env` puts
  ``src/`` first on ``PYTHONPATH`` and never adds an empty entry (which
  Python reads as the current directory).
* **Worker readiness.**  :class:`~repro.service.shard_worker.ShardProcess`
  waits on the ready pipe and the worker's pidfd, so a worker that dies
  during boot fails at once instead of at the deadline.
* **Main-module re-run.**  A router whose ``__main__`` is a script file has
  each worker run that script once as ``__mp_main__`` (spawn's contract);
  a ``python -m repro`` router has its workers re-run nothing.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
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
    "repro.queries.hierarchical",
    "repro.streams.generators",
    "multiprocessing",
    "sqlite3",
)

#: Still never imported by a sharded server without ``--pool``/``--supervise``.
SHARDED_UNUSED = (
    "repro.service.pool",
    "repro.service.supervision",
    "repro.distributed.runner",
    "multiprocessing",
    "sqlite3",
)

#: Never imported by the worker of a ``python -m repro`` router: the flat
#: budget (its entry point runs as ``__main__``, so not even
#: ``repro.service.shard_worker`` by name) and no re-run of the CLI.
WORKER_UNUSED = (*FLAT_UNUSED, "repro.cli")

#: A router started from a script file.  Every run of the script appends
#: ``<pid> <__name__>`` to the marker file: once as ``__main__`` in the
#: router, and once as ``__mp_main__`` in each worker that re-runs it.
_ROUTER_SCRIPT = """\
import asyncio
import os

with open(os.environ["BOOT_MARKER"], "a", encoding="utf-8") as marker:
    marker.write("%d %s\\n" % (os.getpid(), __name__))

if __name__ == "__main__":
    from repro.service import ServiceConfig, ShardRouter

    async def boot_and_stop():
        router = ShardRouter(ServiceConfig(mode="flat", shards=2, expire_every=None))
        await router.start()
        await router.stop()

    asyncio.run(boot_and_stop())
"""

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
    return router, list(processes.values())


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
        # The tree is the router and exactly one worker per shard.  Each
        # worker is ``python -m repro.service.shard_worker`` serving flat; a
        # ``python -m`` main is never re-run, so no worker imports the CLI.
        assert len(workers) == 2
        for worker in workers:
            assert "repro.service.server" in worker
            assert _loaded(worker, WORKER_UNUSED) == []


class TestMainRerun:
    def test_script_main_runs_once_in_each_worker(self, tmp_path):
        script = tmp_path / "router_script.py"
        marker = tmp_path / "marker.txt"
        script.write_text(_ROUTER_SCRIPT, encoding="utf-8")
        router = subprocess.run(
            [sys.executable, str(script)],
            env=repro_env({"BOOT_MARKER": str(marker)}),
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert router.returncode == 0, router.stdout + router.stderr
        runs = [line.split() for line in marker.read_text(encoding="utf-8").splitlines()]
        assert sorted(name for _, name in runs) == ["__main__", "__mp_main__", "__mp_main__"]
        pids = [int(pid) for pid, _ in runs]
        assert len(set(pids)) == 3  # the router once, each worker once


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

    @pytest.mark.parametrize("pidfd", [True, False], ids=["pidfd", "poll"])
    def test_ready_announcement_and_join_on_kill(self, monkeypatch, pidfd):
        if not pidfd:
            monkeypatch.delattr(os, "pidfd_open", raising=False)
        config = ServiceConfig(mode="flat", shards=1, expire_every=None)

        async def body() -> None:
            worker = ShardProcess(0, worker_config(config, 0))
            port = await worker.wait_ready()
            assert port == worker.port and port > 0
            assert await worker.join(timeout=0.05) is None  # still serving
            worker.kill()
            assert await worker.join(timeout=30.0) == -9

        asyncio.run(body())
