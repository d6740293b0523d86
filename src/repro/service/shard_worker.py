"""Worker processes of the sharded serving tier.

Each shard worker is a full, unmodified sketch service — a
:class:`~repro.service.core.SketchService` behind a
:class:`~repro.service.server.SketchServer` — running in its own process and
owning one partition of the key universe (or of the sites, in multisite
mode).  The router (:mod:`repro.service.router`) talks to workers over the
same newline-delimited-JSON protocol every other client uses, so a worker is
indistinguishable from a standalone server: it validates clocks against its
own high-water mark, micro-batches ingest, answers queries, snapshots to an
explicit per-shard path on request, and restores from that snapshot through
the ordinary ``run_server(restore=...)`` path (the wire-format state
transfer of :mod:`repro.serialization`, shared with the distributed runner).

A worker is a plain ``python -m repro`` child (fork-then-exec, so nothing
of the router's event loop, threads or locks crosses over), started with the
router's interpreter flags and with the parent directory of the router's
``repro`` package first on ``PYTHONPATH``, so both import the same code.  Its
argument is one JSON document: the worker's configuration, host, label,
restore path and the descriptor of its ready pipe.  ``repro.__main__`` hands
that document to :func:`worker_main` before anything imports the CLI, and
after it has blocked ``ssl`` and capped NumPy's BLAS at one thread, as it
does for every process it starts.  Three descriptors tie the worker to the
router:

* **Readiness** — the write end of a one-shot pipe, passed with
  ``pass_fds``.  The worker writes its bound port and closes it; the router
  holds no copy, so a worker that dies during boot reads as EOF at once.
* **Exit** — :meth:`ShardProcess.join` waits on a pidfd of the worker
  (polling ``Popen.poll`` where pidfds are missing); exit codes are
  ``Popen``'s, negative for a signal (``-9`` after SIGKILL).
* **Lifeline** — the worker's stdin is a pipe whose write end only the
  router holds.  When the router dies, even by SIGKILL, the worker reads
  EOF and drains and exits exactly as on SIGTERM, releasing its journal and
  port.

When the router's ``__main__`` ran from a script file (``__spec__`` is
``None``), the worker first runs that file as ``__mp_main__``, the contract
of ``multiprocessing``'s spawn start method: code a script runs at import
time (span wrappers, for instance) then runs in every worker too, with
``import ssl`` working as it does in the router.  Routers started with
``python -m`` re-run nothing.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
from dataclasses import replace

from .config import ServiceConfig
from .errors import ServiceError, ShardUnavailableError
from .journal import journal_dir_for_shard

__all__ = ["ShardUnavailableError", "ShardProcess", "repro_env", "worker_config", "sites_of_shard"]

#: How long a started worker may take to announce its port.  A worker boots
#: a fresh interpreter and imports NumPy; heavily loaded single-core CI
#: machines take seconds, not milliseconds.
_READY_TIMEOUT = 120.0

#: Poll period of :meth:`ShardProcess.join` where ``os.pidfd_open`` is missing.
_EXIT_POLL_S = 0.05


def repro_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Subprocess environment with this checkout's ``src/`` on PYTHONPATH.

    Empty ``PYTHONPATH`` entries are dropped: Python reads one as the
    current directory, which would put the launcher's cwd on the path of
    every server and worker it boots.
    """
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
    inherited = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, inherited)])
    if extra:
        env.update(extra)
    return env


def sites_of_shard(sites: int, shards: int, shard_id: int) -> range:
    """Global site ids owned by one shard (contiguous blocks, like the
    distributed runner's :func:`~repro.distributed.runner.plan_shards`)."""
    # Multisite only: the other modes never load the distributed runner.
    from ..distributed.runner import plan_shards

    plan = plan_shards(sites, shards)[shard_id]
    return range(plan.node_ids[0], plan.node_ids[-1] + 1)


def worker_config(config: ServiceConfig, shard_id: int) -> ServiceConfig:
    """Derive one worker's configuration from the router's.

    The worker is a plain single-process service (``shards=None``) with the
    same sketch parameters — identical epsilon/window/counter type *and hash seed*,
    which is what makes per-shard states mergeable (Theorem 4 requires
    matching dimensions and seeds).  Persistence knobs are stripped: the
    router drives every snapshot through explicit per-shard paths, so workers
    never write on their own schedule.  In multisite mode the worker's
    coordinator spans only the sites its shard owns.

    In pool mode each worker runs its own :class:`~repro.service.pool
    .TenantPool` over the tenants hashed to its shard: the pool directory
    becomes a per-shard subdirectory and the memory budget is split evenly
    across workers (each worker governs only the tenants it owns).
    """
    if config.shards is None:
        raise ServiceError("worker_config requires a sharded configuration")
    sites = config.sites
    if config.mode == "multisite":
        sites = len(sites_of_shard(config.sites, config.shards, shard_id))
    pool_dir = config.pool_dir
    budget = config.memory_budget_bytes
    if config.pool and pool_dir is not None:
        pool_dir = os.path.join(pool_dir, "shard%d" % shard_id)
        if budget is not None:
            budget = max(1, budget // config.shards)
    journal_dir = config.journal_dir
    if journal_dir is not None:
        # One write-ahead journal per worker, keyed by shard id so a
        # respawned worker finds exactly its own acked tail.
        journal_dir = journal_dir_for_shard(journal_dir, shard_id)
    return replace(
        config,
        shards=None,
        sites=sites,
        snapshot_every=None,
        snapshot_path=None,
        pool_dir=pool_dir,
        memory_budget_bytes=budget,
        journal_dir=journal_dir,
        # Supervision lives in the router; a worker is a plain service.
        supervise=False,
    )


def _main_script() -> str | None:
    """The router's main script, if ``__main__`` ran from a file.

    Mirrors spawn's choice: a main run as a module (``python -m``, so
    ``__spec__`` is set) or with no file (``-c``, the REPL) is not re-run.
    """
    main = sys.modules.get("__main__")
    path = getattr(main, "__file__", None)
    if path is None or getattr(main, "__spec__", None) is not None:
        return None
    return os.path.abspath(path)


def worker_main(document: str) -> int:
    """Entry point of a worker process, given its JSON launch document."""
    launch = json.loads(document)
    if launch["main"] is not None:
        import runpy

        # As ``python script.py`` runs it: the script's directory leads,
        # and the script may import ssl.  If it did not, ssl is blocked
        # again, so that nothing the worker imports later maps OpenSSL.
        if sys.modules.get("ssl", False) is None:
            del sys.modules["ssl"]
        sys.path.insert(0, os.path.dirname(launch["main"]))
        runpy.run_path(launch["main"], run_name="__mp_main__")
        sys.modules.setdefault("ssl", None)  # type: ignore[arg-type, call-overload]

    from .server import run_server

    config = ServiceConfig.from_dict(launch["config"])
    ready_fd = launch["ready_fd"]

    def lifeline_readable() -> None:
        if not os.read(0, 4096):
            asyncio.get_running_loop().remove_reader(0)
            signal.raise_signal(signal.SIGTERM)

    def ready(port: int) -> None:
        # A router that died during boot reads as EPIPE here and as EOF on
        # the lifeline just below.
        with contextlib.suppress(BrokenPipeError):
            os.write(ready_fd, b"%d\n" % port)
        os.close(ready_fd)
        asyncio.get_running_loop().add_reader(0, lifeline_readable)

    server = run_server(
        config,
        host=launch["host"],
        port=0,
        restore=launch["restore"],
        ready=ready,
        label=launch["label"],
    )
    return asyncio.run(server)


class ShardProcess:
    """Handle on one shard-worker process.

    Args:
        shard_id: Index of the shard this worker owns.
        config: The *worker's* configuration (already derived through
            :func:`worker_config`).
        host: Interface the worker binds (ephemeral port).
        restore: Per-shard snapshot to restore from on boot.
    """

    def __init__(
        self,
        shard_id: int,
        config: ServiceConfig,
        host: str = "127.0.0.1",
        restore: str | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.config = config
        self.host = host
        self.restore = restore
        self.port: int | None = None
        ready_read, ready_write = os.pipe()
        launch = {
            "config": config.to_dict(),
            "host": host,
            "restore": restore,
            "label": "repro-shard%d" % shard_id,
            "ready_fd": ready_write,
            "main": _main_script(),
        }
        try:
            self.process = subprocess.Popen(
                [
                    sys.executable,
                    # The router's -O/-B/-W/-X flags, as spawn passed them.
                    *subprocess._args_from_interpreter_flags(),  # type: ignore[attr-defined]
                    "-m",
                    "repro",
                    json.dumps(launch),
                ],
                stdin=subprocess.PIPE,
                env=repro_env(),
                pass_fds=(ready_write,),
            )
        except BaseException:
            os.close(ready_read)
            raise
        finally:
            # The child holds its own duplicate of the write end; closing
            # ours makes a worker crash surface as EOF instead of a hang.
            os.close(ready_write)
        # Closed by wait_ready, or with the handle if nobody waits.
        self._ready = os.fdopen(ready_read, "rb", buffering=0)

    @property
    def pid(self) -> int:
        return self.process.pid

    def is_alive(self) -> bool:
        return self.process.poll() is None

    @property
    def exitcode(self) -> int | None:
        return self.process.poll()

    async def wait_ready(self, timeout: float = _READY_TIMEOUT) -> int:
        """Wait for the worker's port announcement; returns the port.

        Wakes on the ready pipe, which turns readable when the worker
        announces its port and also at EOF when the worker dies first (the
        child holds the only write end), so a worker that dies during boot
        fails fast instead of timing out.
        """
        try:
            if not await _readable(self._ready.fileno(), timeout):
                self.kill()  # reprolint: disable=RL002 -- one kill(2), never blocks
                raise ShardUnavailableError(
                    "shard %d worker did not become ready within %.0f s" % (self.shard_id, timeout)
                )
            # One write of a few bytes: atomic, so one read gets all of it.
            announcement = self._ready.read(64)
        finally:
            self._ready.close()
        if not announcement:
            await self.join(timeout=5.0)
            raise ShardUnavailableError(
                "shard %d worker exited during boot (exit code %r)"
                % (self.shard_id, self.exitcode)
            )
        self.port = int(announcement)
        return self.port

    def kill(self) -> None:
        """SIGKILL the worker (fault injection / last-resort cleanup)."""
        if self.is_alive():
            self.process.kill()

    def terminate(self) -> None:
        """SIGTERM the worker (its server drains and exits gracefully)."""
        if self.is_alive():
            self.process.terminate()

    async def join(self, timeout: float = 30.0) -> int | None:
        """Wait (without blocking the loop) for the process to exit.

        Returns the exit code, or ``None`` if the process is still running
        after ``timeout`` seconds.  Reaping the worker also closes the
        router's end of its lifeline.
        """
        if not await _reaped(self.process, timeout):
            return None
        if self.process.stdin is not None:
            self.process.stdin.close()
        return self.process.returncode


async def _reaped(process: subprocess.Popen[bytes], timeout: float) -> bool:
    """Wait until ``process`` exits and reap it; ``False`` on timeout.

    Wakes on a pidfd, which turns readable when the process exits; where
    ``os.pidfd_open`` is missing (non-Linux, kernels before 5.3) it polls.
    """
    if process.poll() is not None:
        return True
    try:
        pidfd = os.pidfd_open(process.pid)
    except (AttributeError, OSError):
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while process.poll() is None:
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(_EXIT_POLL_S)
        return True
    try:
        if not await _readable(pidfd, timeout):
            return False
    finally:
        os.close(pidfd)
    process.wait()  # exited: reaps at once
    return True


async def _readable(fd: int, timeout: float) -> bool:
    """Wait until ``fd`` is readable (data or EOF); ``False`` on timeout.

    One waiter per descriptor: the event loop keeps a single reader
    callback per fd.
    """
    loop = asyncio.get_running_loop()
    ready: asyncio.Future[None] = loop.create_future()

    def wake() -> None:
        if not ready.done():
            ready.set_result(None)

    loop.add_reader(fd, wake)
    try:
        await asyncio.wait_for(ready, timeout)
    except asyncio.TimeoutError:
        return False
    finally:
        loop.remove_reader(fd)
    return True

