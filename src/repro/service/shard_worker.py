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

Workers are spawned with the ``spawn`` start method: the router process runs
an asyncio loop plus executor threads, and forking such a process inherits
locks in unknown states.  The freshly spawned interpreter re-imports
:mod:`repro` (so the package must be importable in the child — via an
installed distribution or an inherited ``PYTHONPATH``), builds the worker's
service from a plain-dictionary config, binds an ephemeral port, and
announces ``(pid, port)`` back through a one-shot pipe.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
from dataclasses import replace

from .config import ServiceConfig
from .errors import ServiceError, ShardUnavailableError
from .journal import journal_dir_for_shard

__all__ = ["ShardUnavailableError", "ShardProcess", "worker_config", "sites_of_shard"]

#: Start method of worker processes (see module docstring for why not fork).
_SPAWN = multiprocessing.get_context("spawn")

#: How long a spawned worker may take to announce its port.  Spawn boots a
#: fresh interpreter and imports NumPy; heavily loaded single-core CI
#: machines take seconds, not milliseconds.
_READY_TIMEOUT = 120.0


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


def _shard_worker_main(
    config_payload: dict,
    host: str,
    restore: str | None,
    label: str,
    connection: multiprocessing.connection.Connection,
) -> None:
    """Entry point of a spawned worker process."""
    from .server import run_server

    config = ServiceConfig.from_dict(config_payload)

    def ready(port: int) -> None:
        connection.send({"pid": os.getpid(), "port": port})
        connection.close()

    code = asyncio.run(
        run_server(config, host=host, port=0, restore=restore, ready=ready, label=label)
    )
    sys.exit(code)


class ShardProcess:
    """Handle on one spawned shard-worker process.

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
        receive_end, send_end = _SPAWN.Pipe(duplex=False)
        self._ready_connection = receive_end
        self.process = _SPAWN.Process(
            target=_shard_worker_main,
            args=(config.to_dict(), host, restore, "repro-shard%d" % shard_id, send_end),
            name="repro-shard%d" % shard_id,
            daemon=True,
        )
        self.process.start()
        # The child holds its own duplicate of the send end; closing ours
        # makes a worker crash surface as EOF on the receive end instead of
        # a silent hang.
        send_end.close()

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def is_alive(self) -> bool:
        return self.process.is_alive()

    @property
    def exitcode(self) -> int | None:
        return self.process.exitcode

    async def wait_ready(self, timeout: float = _READY_TIMEOUT) -> int:
        """Wait for the worker's port announcement; returns the port.

        Wakes on the ready pipe's file descriptor, which turns readable when
        the worker announces its port and also at EOF when the worker dies
        first (the child holds the only send end), so a worker that dies
        during boot fails fast instead of timing out.
        """
        connection = self._ready_connection
        if not await _readable(connection.fileno(), timeout):
            self.kill()
            raise ShardUnavailableError(
                "shard %d worker did not become ready within %.0f s" % (self.shard_id, timeout)
            )
        try:
            payload = connection.recv()
        except EOFError:
            await self.join(timeout=5.0)
            raise ShardUnavailableError(
                "shard %d worker exited during boot (exit code %r)"
                % (self.shard_id, self.exitcode)
            ) from None
        finally:
            connection.close()
        self.port = int(payload["port"])
        return self.port

    def kill(self) -> None:
        """SIGKILL the worker (fault injection / last-resort cleanup)."""
        if self.process.is_alive():
            self.process.kill()

    def terminate(self) -> None:
        """SIGTERM the worker (its server drains and exits gracefully)."""
        if self.process.is_alive():
            os.kill(self.process.pid, signal.SIGTERM)  # type: ignore[arg-type]

    async def join(self, timeout: float = 30.0) -> int | None:
        """Wait (without blocking the loop) for the process to exit.

        Wakes on the process sentinel; returns the exit code, or ``None``
        if the process is still running after ``timeout`` seconds.
        """
        if self.process.is_alive() and not await _readable(self.process.sentinel, timeout):
            return None
        # The sentinel reads EOF while the process exits, a moment before
        # it can be reaped; a zero-timeout join could miss the exit code.
        self.process.join()
        return self.process.exitcode


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
