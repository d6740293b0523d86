"""The boot path of ``repro serve``: what a server imports and how it starts.

* **Import budget.**  A server imports only the layers its mode runs.  Each
  boot runs with bytecode writing off (``PYTHONDONTWRITEBYTECODE``, the
  ``-B`` flag), and a ``sitecustomize`` hook on the subprocess path records
  ``sys.modules`` when each interpreter exits: the server itself and, for a
  sharded server, every worker.  Every Python process of the tree dumps, so
  the dumps also pin the process tree: the router plus one worker per
  shard, and no ``multiprocessing`` resource tracker.  The router of a
  sharded flat server holds no sketch, so it loads neither NumPy nor any
  sketch code nor the service core, and a flat server stays on the flat
  path when it snapshots.  A server loads the counter code of its counter
  type only: an exponential-histogram server loads no wave, merge or
  Count-Min module, and the compiled-kernel module only when numba imports.
* **No OpenSSL.**  Every served process starts through ``repro.__main__``
  (``python -m repro``, the console script and each shard worker), which
  blocks ``ssl`` before asyncio loads, and the sketch hashing calls the
  built-in ``_blake2`` rather than ``hashlib``: no server, router or worker
  loads ``ssl`` or ``_ssl``, and none loads ``_hashlib`` unless numba is
  installed (its dispatcher's cache imports ``hashlib``, and a server that
  routes the kernels imports numba).  A blocked module is a ``None`` entry
  of ``sys.modules``, so the dumps list only the loaded ones.  Library
  callers of ``repro`` still import ``ssl``.
* **No BLAS thread pool.**  ``repro.__main__`` sets ``OPENBLAS_NUM_THREADS=1``
  before NumPy loads, unless the environment already names a BLAS thread
  count, so every served process (server, router and each worker) has
  exactly its Python threads as OS threads after boot: each dump records
  the ``Threads:`` count of ``/proc/self/status`` and
  ``threading.active_count()``.  A count the user set reaches the workers.
* **Subprocess environment.**  :func:`~repro.service.shard_worker.repro_env` puts
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
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

import pytest

from repro.service import ServeProcess, ServiceConfig, SyncServiceClient, repro_env
from repro.service.shard_worker import ShardProcess, ShardUnavailableError, worker_config

pytestmark = pytest.mark.integration

#: Whether numba imports, so that the columnar store routes its hot loops
#: through the compiled kernels.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None

#: Never imported by a server whose counters are exponential histograms: the
#: wave counters, the aggregation merges, the plain Count-Min sketch (only an
#: extraction builds one) and the ``statistics`` module the randomized wave
#: pulls in; without numba, the kernel module too.
OTHER_COUNTER_CODE = (
    "repro.windows.deterministic_wave",
    "repro.windows.randomized_wave",
    "repro.windows.merge",
    "repro.core.countmin",
    "statistics",
    *(() if HAVE_NUMBA else ("repro.windows._eh_kernels",)),
)

#: Never imported by a flat server: offline experiments, analysis and exact
#: baselines, the distributed simulation and its stream records, every
#: serving layer a flat server does not run, the tenant catalog's SQLite,
#: OpenSSL (TLS, and without numba hashlib's backend too: numba's
#: dispatcher cache imports ``hashlib``) and the code of the other counter
#: types.
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
    "repro.streams",
    "multiprocessing",
    "sqlite3",
    "ssl",
    "_ssl",
    *(() if HAVE_NUMBA else ("_hashlib",)),
    *OTHER_COUNTER_CODE,
)

#: Never imported by a hierarchical server: the flat budget less the
#: hierarchy it serves.
HIERARCHICAL_UNUSED = tuple(name for name in FLAT_UNUSED if name != "repro.queries.hierarchical")

#: Still never imported by a sharded server without ``--pool``/``--supervise``.
SHARDED_UNUSED = (
    "repro.service.pool",
    "repro.service.supervision",
    "repro.distributed.runner",
    "multiprocessing",
    "sqlite3",
)

#: Never imported by the worker of a ``python -m repro`` router: the flat
#: budget less the worker's own entry (``repro.__main__`` hands the launch
#: document to ``repro.service.shard_worker``), and no re-run of the CLI.
WORKER_UNUSED = (
    *(name for name in FLAT_UNUSED if name != "repro.service.shard_worker"),
    "repro.cli",
)

#: Never imported by the router of a flat sharded server, even after it has
#: partitioned string keys, routed a point query and summed the per-shard
#: self-joins: the workers hold the sketches, so the router needs neither
#: NumPy nor the sketch, counter, serialization, hierarchy or stream-record
#: code, nor the service core (its pre-ack checks live in
#: ``service.validators``), nor OpenSSL, nor the ``ServeProcess`` test
#: harness.  The snapshot writer and the streaming JSON reader load on the
#: first snapshot.
ROUTER_UNUSED = (
    "numpy",
    "ssl",
    "_ssl",
    "_hashlib",
    "repro.core.ecm_sketch",
    "repro.core.hashing",
    "repro.windows.columnar_eh",
    "repro.serialization",
    "repro.queries.hierarchical",
    "repro.streams",
    "repro.service.core",
    "repro.service.snapshot",
    "repro.service.launch",
    "repro.jsonstream",
)

#: The variables OpenBLAS reads its thread count from.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: A router started from a script file.  Every run of the script appends
#: ``<pid> <__name__>`` to the marker file: once as ``__main__`` in the
#: router, and once as ``__mp_main__`` in each worker that re-runs it.
_ROUTER_SCRIPT = """\
import asyncio
import os
import ssl  # a re-run script may import what it imports in the router

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

#: The ``repro`` console script in the shape pip writes it, for the entry
#: function ``pyproject.toml`` declares.
_CONSOLE_SCRIPT = """\
import sys

from {module} import {function}

if __name__ == "__main__":
    sys.exit({function}())
"""

#: A library caller of repro: the CLI run in-process, then a local router
#: started and stopped, then ``import ssl``.  repro is imported before
#: asyncio, so that its own imports are the first to reach ``ssl``.  The
#: caller's environment (BLAS thread counts included) stays as it was.
_LIBRARY_CALLER = """\
import os

environ = dict(os.environ)

from repro.cli import main
from repro.service import ServiceConfig, ShardRouter

import asyncio

assert main(["list"], out=lambda line: None) == 0


async def start_and_stop():
    router = ShardRouter(ServiceConfig(mode="flat", shards=2, expire_every=None), local=True)
    await router.start()
    await router.stop()


asyncio.run(start_and_stop())

import ssl

assert ssl.SSLContext is not None
assert dict(os.environ) == environ
"""

_SITECUSTOMIZE = """\
import atexit
import json
import os
import sys


def _os_threads():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def _dump_modules():
    import threading

    path = os.path.join(%r, "modules-%%d.json" %% os.getpid())
    columnar = sys.modules.get("repro.windows.columnar_eh")
    # A ``None`` entry is a blocked import (``ssl``), not a loaded module.
    loaded = [name for name, module in list(sys.modules.items()) if module is not None]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "modules": sorted(loaded),
                "ssl_blocked": sys.modules.get("ssl", False) is None,
                "use_kernels": getattr(columnar, "USE_KERNELS", None),
                "os_threads": _os_threads(),
                "python_threads": threading.active_count(),
                "blas_env": {name: os.environ.get(name) for name in %r},
            },
            handle,
        )


atexit.register(_dump_modules)
"""


def _console_script(directory: Path) -> Path:
    """Write the ``repro`` console script into ``directory``; returns its path."""
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    entry = re.search(
        r'^repro = "(?P<module>[\w.]+):(?P<function>\w+)"$',
        pyproject.read_text(encoding="utf-8"),
        re.MULTILINE,
    )
    assert entry is not None, "pyproject.toml declares no repro console script"
    directory.mkdir()
    script = directory / "repro"
    script.write_text(_CONSOLE_SCRIPT.format(**entry.groupdict()), encoding="utf-8")
    return script


class _ConsoleScriptServe(ServeProcess):
    """:class:`ServeProcess` started through a console script file.

    The harness builds ``python -m repro <subcommand> ...``; this runs the
    same arguments as ``python <script> <subcommand> ...``, the way an
    installed ``repro`` starts (its ``__main__`` is a file, not a module).
    """

    def __init__(self, script: Path, *args: object, env: dict[str, str]) -> None:
        self.script = str(script)
        super().__init__(*args, env=env)

    @property
    def command(self) -> list[str]:
        return self._command

    @command.setter
    def command(self, command: list[str]) -> None:
        python, flag, module, *rest = command
        assert (flag, module) == ("-m", "repro"), command
        self._command = [python, self.script, *rest]


def _loaded(modules: set[str], names: tuple[str, ...]) -> list[str]:
    """The modules of ``modules`` that are, or live under, one of ``names``."""
    return sorted(
        module for module in modules
        if any(module == name or module.startswith(name + ".") for name in names)
    )


def _string_chunk_and_queries(port: int) -> None:
    """One string-key ingest chunk, then a point and a self-join query."""
    keys = ["key-%d" % (index % 97) for index in range(1024)]
    with SyncServiceClient.connect(port=port) as client:
        client.ingest(keys, [float(index) for index in range(len(keys))])
        client.drain()
        assert client.point("key-3") > 0
        assert client.self_join() > 0


def _hierarchical_chunk_and_queries(port: int) -> None:
    """One integer-key ingest chunk, then a point, a heavy-hitter and a quantile query."""
    keys = [index % 97 for index in range(1024)]
    with SyncServiceClient.connect(port=port) as client:
        client.ingest(keys, [float(index) for index in range(len(keys))])
        client.drain()
        assert client.point(3) > 0
        assert client.heavy_hitters(0.005)
        assert 0 <= client.quantile(0.5) < 97


def _boot_dumps(
    tmp_path: Path,
    *args: object,
    drive: Callable[[int], None] | None = None,
    serve: Callable[..., ServeProcess] = ServeProcess,
    extra_env: dict[str, str] | None = None,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Boot ``repro serve``, run ``drive(port)``, stop it; each process's exit dump."""
    hook = tmp_path / "hook"
    dumps = tmp_path / "dumps"
    hook.mkdir()
    dumps.mkdir()
    (hook / "sitecustomize.py").write_text(
        _SITECUSTOMIZE % (str(dumps), BLAS_THREAD_VARIABLES), encoding="utf-8"
    )
    # The test run's BLAS thread counts are dropped; ``extra_env`` sets any
    # that a test needs.
    env = {name: value for name, value in repro_env().items() if name not in BLAS_THREAD_VARIABLES}
    env.update(PYTHONDONTWRITEBYTECODE="1", **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join([str(hook), env["PYTHONPATH"]])
    with serve(*args, env=env) as server:
        port = server.wait_ready()
        if drive is not None:
            drive(port)
        assert server.stop() == 0, server.output
    processes = {
        int(path.stem.split("-")[1]): json.loads(path.read_text(encoding="utf-8"))
        for path in dumps.glob("modules-*.json")
    }
    router = processes.pop(server.process.pid)
    return router, list(processes.values())


def _boot_modules(
    tmp_path: Path, *args: object, drive: Callable[[int], None] | None = None
) -> tuple[set[str], list[set[str]]]:
    """Boot ``repro serve``, run ``drive(port)``, stop it; each process's modules."""
    router, workers = _boot_dumps(tmp_path, *args, drive=drive)
    return set(router["modules"]), [set(worker["modules"]) for worker in workers]


class TestImportBudget:
    def test_flat_server_imports_only_the_flat_path(self, tmp_path):
        modules, workers = _boot_modules(
            tmp_path, "--mode", "flat", "--journal-dir", tmp_path / "journal"
        )
        assert workers == []
        assert "repro.service.server" in modules
        assert "repro.service.journal" in modules
        assert _loaded(modules, FLAT_UNUSED) == []

    def test_flat_server_snapshot_stays_on_the_flat_path(self, tmp_path):
        # A ``snapshot`` op, then the final snapshot of the SIGTERM drain;
        # then a ``--restore`` boot of that snapshot.  Serializing a flat
        # sketch and restoring it load no hierarchy.
        snapshot = tmp_path / "snap.json"

        def ingest_and_snapshot(port: int) -> None:
            _string_chunk_and_queries(port)
            with SyncServiceClient.connect(port=port) as client:
                assert client.snapshot() == str(snapshot)

        written, _ = _boot_modules(
            tmp_path, "--mode", "flat", "--snapshot-path", snapshot, drive=ingest_and_snapshot
        )
        assert snapshot.is_file()
        def query_the_restored_state(port: int) -> None:
            with SyncServiceClient.connect(port=port) as client:
                assert client.point("key-3") > 0
                assert client.self_join() > 0

        restore_dir = tmp_path / "restore"
        restore_dir.mkdir()
        restored, _ = _boot_modules(
            restore_dir, "--restore", snapshot, drive=query_the_restored_state
        )
        for modules in (written, restored):
            assert "repro.serialization" in modules
            assert _loaded(modules, FLAT_UNUSED) == []
            # The codec reads and writes the cells in the store's arrays: no
            # reference histogram, wave or Count-Min code came with it.
            assert "repro.windows.exponential_histogram" not in modules
            assert _loaded(modules, OTHER_COUNTER_CODE) == []

    def test_flat_server_routes_the_kernels_exactly_when_numba_imports(self, tmp_path):
        # The kernel module is imported only where it runs, so a boot must
        # still pick the kernels whenever numba is there to compile them.
        dump, _ = _boot_dumps(
            tmp_path, "--mode", "flat", "--journal-dir", tmp_path / "journal",
            drive=_string_chunk_and_queries,
        )
        assert dump["use_kernels"] is HAVE_NUMBA
        assert ("repro.windows._eh_kernels" in dump["modules"]) is HAVE_NUMBA

    def test_hierarchical_server_imports_only_the_hierarchical_path(self, tmp_path):
        modules, workers = _boot_modules(
            tmp_path,
            "--mode", "hierarchical", "--universe-bits", 8,
            "--journal-dir", tmp_path / "journal",
            drive=_hierarchical_chunk_and_queries,
        )
        assert workers == []
        assert {"repro.queries.hierarchical", "repro.queries.heavy_hitters"} <= modules
        assert _loaded(modules, HIERARCHICAL_UNUSED) == []

    def test_sharded_router_adds_only_the_router_and_worker_handles(self, tmp_path):
        modules, workers = _boot_modules(
            tmp_path, "--mode", "flat", "--shards", 2, "--journal-dir", tmp_path / "journal"
        )
        assert {"repro.service.router", "repro.service.shard_worker"} <= modules
        assert _loaded(modules, SHARDED_UNUSED) == []
        # The tree is the router and exactly one worker per shard.  Each
        # worker is ``python -m repro`` given its launch document, serving
        # flat; a ``python -m`` main is never re-run, so no worker imports
        # the CLI.
        assert len(workers) == 2
        for worker in workers:
            assert "repro.service.server" in worker
            assert _loaded(worker, WORKER_UNUSED) == []

    def test_sharded_router_loads_no_numpy_and_no_sketch_code(self, tmp_path):
        modules, workers = _boot_modules(
            tmp_path,
            "--mode", "flat", "--shards", 2, "--journal-dir", tmp_path / "journal",
            drive=_string_chunk_and_queries,
        )
        assert _loaded(modules, ROUTER_UNUSED) == []
        # The sketches live in the workers, which load all of it.
        assert len(workers) == 2
        for worker in workers:
            assert {"numpy", "repro.core.ecm_sketch", "repro.windows.columnar_eh"} <= worker

    def test_console_script_boots_a_tree_without_openssl_or_a_worker_cli(self, tmp_path):
        # The console script is a file, so each worker re-runs it as
        # ``__mp_main__``: that imports the entry module, never the CLI.
        # The re-run may import ssl; this one does not, so the worker
        # blocks ssl again after it.
        script = _console_script(tmp_path / "bin")
        router, workers = _boot_dumps(
            tmp_path,
            "--mode", "flat", "--shards", 2,
            drive=_string_chunk_and_queries,
            serve=lambda *args, env: _ConsoleScriptServe(script, *args, env=env),
        )
        modules = set(router["modules"])
        assert "repro.cli" in modules
        assert _loaded(modules, ROUTER_UNUSED) == []
        assert router["ssl_blocked"]
        assert len(workers) == 2
        for worker in workers:
            assert "repro.__main__" in worker["modules"]
            assert _loaded(set(worker["modules"]), WORKER_UNUSED) == []
            assert worker["ssl_blocked"]


class TestNoBlasThreadPool:
    @pytest.mark.parametrize(
        "args, shards",
        [
            (("--mode", "flat"), 0),
            (("--mode", "hierarchical", "--universe-bits", 8), 0),
            (("--mode", "flat", "--shards", 2), 2),
        ],
        ids=["flat", "hierarchical", "sharded"],
    )
    def test_every_served_thread_is_a_python_thread(self, tmp_path, args, shards):
        # Equal counts mean no native thread pool outlived boot, whatever
        # the CPU count.  A journal runs a Python thread, which counts on
        # both sides.
        router, workers = _boot_dumps(tmp_path, *args, "--journal-dir", tmp_path / "journal")
        assert len(workers) == shards
        for sketch_holder in workers or [router]:
            assert "numpy" in sketch_holder["modules"]
        for dump in (router, *workers):
            assert dump["os_threads"] == dump["python_threads"], dump["os_threads"]
        for dump in (router, *workers):
            assert dump["blas_env"] == {
                "OPENBLAS_NUM_THREADS": "1",
                "GOTO_NUM_THREADS": None,
                "OMP_NUM_THREADS": None,
            }

    @pytest.mark.parametrize("variable", BLAS_THREAD_VARIABLES)
    def test_a_blas_thread_count_the_user_set_is_kept(self, tmp_path, variable):
        router, workers = _boot_dumps(tmp_path, "--mode", "flat", "--shards", 2, extra_env={variable: "2"})
        assert len(workers) == 2
        for dump in (router, *workers):
            assert dump["blas_env"] == {
                name: "2" if name == variable else None for name in BLAS_THREAD_VARIABLES
            }


class TestLibraryCallers:
    def test_ssl_still_imports_after_the_cli_and_a_local_router(self):
        # Only the entry points block ``ssl``: a process that imports repro
        # as a library, runs the CLI in-process and serves a local router
        # still has TLS, and its environment is its own.  A fresh
        # interpreter, so that the imports run too.
        caller = subprocess.run(
            [sys.executable, "-c", _LIBRARY_CALLER],
            env=repro_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert caller.returncode == 0, caller.stderr


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
