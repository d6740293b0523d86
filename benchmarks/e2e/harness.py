"""Run one workload against a real ``repro serve`` subprocess and measure it.

The load generator is this one process, on one asyncio loop, over two TCP
connections to the server:

* **ingest, closed loop** — one connection sends a 1024-arrival chunk and
  sends the next only after the previous one is acknowledged, until
  ``--seconds`` have passed.  The server's bounded ingest queue makes the
  achieved rate its sustained rate.  Sliding-window workloads first fill
  one window, untimed, so the run measures the steady state.
* **queries, open loop** — the other connection sends queries on a fixed
  schedule (``query_rate`` per second).  Each latency is timed from the
  moment the query was *due*, so a stall delays every query behind it, and
  how late the generator itself ran is reported beside it.

After the run the harness drains the server, asks it 256 probe point
queries (and, on the hierarchical workload, its heavy hitters), reads its
counters, and checks every answer against the exact baseline.
"""

from __future__ import annotations

import asyncio
import contextlib
import importlib.util
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from collections.abc import Hashable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core import ECMConfig
from repro.service import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    decode_line,
    encode_message,
)

from . import layers
from .stats import percentile, supported
from .workloads import (
    CHUNK,
    DELTA,
    EPSILON,
    PHI,
    Trace,
    Workload,
    build_trace,
    exact_checks,
    query_message,
)

__all__ = ["ROOT", "Settings", "host_facts", "run_workload"]

ROOT = Path(__file__).resolve().parents[2]
#: Scratch space of every run (journals, snapshots, span dumps); removed at
#: the end of each run.
WORK_ROOT = ROOT / ".e2e_work"
HOST = "127.0.0.1"
_BANNER = re.compile(r"^repro-serve: listening on \S+:(?P<port>\d+)\b")
#: Client retry policy: a retry is counted as a failed operation.
_RETRY = RetryPolicy(attempts=4, base_delay=0.05, max_delay=1.0, deadline=60.0)
_BOOT_TIMEOUT = 120.0
_STOP_TIMEOUT = 60.0
#: The calibration boot timed around every server boot: a bare interpreter
#: importing NumPy, the part of a server boot this repository does not own.
_CALIBRATION = [sys.executable, "-c", "import numpy"]
#: ``setup_s`` is each boot divided by the mean of the calibration boots
#: just before and after it, times this constant: seconds on a host where
#: the calibration takes 0.15 s.  The division cancels how fast the host
#: runs at that moment (on a shared 2-vCPU VM the same boot takes anywhere
#: from 0.35 to 0.7 s); work added to the server's own start-up still shows.
REFERENCE_CALIBRATION_S = 0.15


@dataclass(frozen=True)
class Settings:
    """How long and how often one run measures."""

    seconds: float
    boots: int = 5
    probes: int = 256
    #: Whether the query count must support a p99 (off for the smoke test).
    require_p99: bool = True


def host_facts() -> dict[str, Any]:
    """The facts two result files must share to be compared."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "backend": ECMConfig.for_point_queries(
            epsilon=EPSILON, delta=DELTA, window=1e6
        ).resolved_backend,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------- processes
def _parent_of(pid: int) -> int | None:
    """Parent pid of a live process; ``None`` once it is gone or a zombie."""
    try:
        with open("/proc/%d/stat" % pid, encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return int(fields[1]) if fields[0] != "Z" else None


def _descendants(root: int) -> list[int]:
    """Live descendants of ``root``, each after its parent, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = _parent_of(int(entry))
            if parent is not None:
                children.setdefault(parent, []).append(int(entry))
    found: list[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, []):
            found.append(child)
            frontier.append(child)
    return found


def _peak_rss_kib(pid: int) -> int:
    try:
        with open("/proc/%d/status" % pid, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServerProcess:
    """One server subprocess, its output, and its process tree."""

    def __init__(self, command: list[str], env: dict[str, str]) -> None:
        self.port: int | None = None
        self.lines: list[str] = []
        self._ready = threading.Event()
        self.process = subprocess.Popen(
            command, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self.lines.append(line)
            match = _BANNER.match(line)
            if match and self.port is None:
                self.port = int(match.group("port"))
                self._ready.set()
        self._ready.set()

    def wait_ready(self) -> int:
        """Block until the listening banner; returns the port."""
        if not self._ready.wait(_BOOT_TIMEOUT) or self.port is None:
            raise RuntimeError(
                "server did not start (exit %r):\n%s" % (self.process.poll(), "".join(self.lines))
            )
        return self.port

    def peak_rss_mib(self) -> float:
        """``VmHWM`` summed over the server and every process under it."""
        pids = [self.process.pid, *_descendants(self.process.pid)]
        return sum(_peak_rss_kib(pid) for pid in pids) / 1024.0

    def stop(self, graceful: bool = True) -> int:
        """Stop the tree and wait for every process of it.

        Graceful is SIGTERM to the server (it drains, snapshots and stops
        its workers); otherwise every process gets SIGKILL, leaves first.
        """
        tree = _descendants(self.process.pid)
        if not graceful:
            for pid in reversed(tree):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
        try:
            code = self.process.wait(_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait(_STOP_TIMEOUT)
        deadline = time.monotonic() + _STOP_TIMEOUT
        while True:
            alive = [pid for pid in tree if _parent_of(pid) is not None]
            if not alive:
                break
            if time.monotonic() > deadline:
                for pid in alive:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                deadline = time.monotonic() + _STOP_TIMEOUT
            time.sleep(0.02)
        self._reader.join(10.0)
        return code


def _env(trace_dir: str | None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env.pop("E2E_TRACE_DIR", None)
    if trace_dir is not None:
        env["E2E_TRACE_DIR"] = trace_dir
    return env


def _command(workload: Workload, workdir: str, traced: bool) -> list[str]:
    entry = (
        [str(Path(__file__).with_name("traced_serve.py"))] if traced else ["-m", "repro"]
    )
    return [sys.executable, *entry, "serve", "--port", "0", *workload.serve_args(workdir)]


def _hello(port: int) -> None:
    """One protocol handshake on a fresh connection (the end of a boot)."""
    with socket.create_connection((HOST, port), timeout=30.0) as sock:
        sock.sendall(encode_message({"op": "hello", "protocol_version": PROTOCOL_VERSION}))
        reply = sock.makefile("rb").readline()
    if not decode_line(reply).get("ok"):
        raise RuntimeError("hello failed: %r" % (reply,))


def calibrate() -> float:
    """Seconds one calibration boot takes, timed like :func:`boot`."""
    start = time.perf_counter()
    subprocess.run(_CALIBRATION, env=_env(None), cwd=str(ROOT), check=True,
                   stdout=subprocess.DEVNULL, timeout=_BOOT_TIMEOUT)
    return time.perf_counter() - start


def boot(workload: Workload, workdir: str, trace_dir: str | None = None) -> tuple[ServerProcess, float]:
    """Start a server on a fresh state; returns it and boot-to-hello seconds."""
    os.makedirs(workdir, exist_ok=True)
    start = time.perf_counter()
    server = ServerProcess(_command(workload, workdir, trace_dir is not None), _env(trace_dir))
    try:
        _hello(server.wait_ready())
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


# -------------------------------------------------------------- load driver
@dataclass
class Drive:
    """What one measured run observed."""

    arrivals: int = 0
    #: Arrivals acknowledged inside the measured window (after the fill).
    measured: int = 0
    chunks: int = 0
    ingest_failures: int = 0
    start_ns: int = 0
    end_ns: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    queries: int = 0
    query_failures: int = 0
    retries: int = 0
    answers: list[float] = field(default_factory=list)
    hitters: list[int] | None = None
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def rate(self) -> float:
        """Arrivals per second, first send to ``drain`` done."""
        return self.measured / ((self.end_ns - self.start_ns) / 1e9)

    @property
    def attempted(self) -> int:
        return self.chunks + self.queries

    @property
    def failed(self) -> int:
        return self.ingest_failures + self.query_failures + self.retries


async def _ingest(client: ServiceClient, trace: Trace, until: float, drive: Drive) -> None:
    """Closed loop: the next chunk goes out when the previous one is acked."""
    while time.perf_counter() < until:
        keys, clocks = trace.chunk(drive.arrivals, CHUNK)
        drive.chunks += 1
        try:
            accepted = await client.ingest(keys, clocks)
        except (ServiceError, OSError):
            # The acked prefix is what the exact checks replay; a lost chunk
            # ends the run (and shows as failed and as a count mismatch).
            drive.ingest_failures += 1
            return
        drive.arrivals += accepted


async def _open_query_connection(port: int) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """A raw connection, handshaken before the measured window opens."""
    reader, writer = await asyncio.open_connection(HOST, port, limit=MAX_LINE_BYTES)
    writer.write(encode_message({"op": "hello", "protocol_version": PROTOCOL_VERSION}))
    if not decode_line(await reader.readline()).get("ok"):
        writer.close()
        raise RuntimeError("query connection handshake failed")
    return reader, writer


async def _queries(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    workload: Workload,
    keys: list[Hashable],
    start: float,
    seconds: float,
    drive: Drive,
) -> None:
    """Open loop: each query is written when due, answered or not the last.

    The server answers one connection's requests in order, so responses are
    matched to due times first in, first out.
    """
    pending: deque[float] = deque()
    count = int(workload.query_rate * seconds)

    async def receive() -> None:
        for _ in range(count):
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the query connection")
            due = pending.popleft()
            if decode_line(line).get("ok"):
                drive.latencies_ms.append((time.perf_counter() - due) * 1e3)
            else:
                drive.query_failures += 1

    receiver = asyncio.create_task(receive())
    mix = workload.query_mix
    try:
        for index in range(count):
            due = start + index / workload.query_rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            drive.lateness_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
            pending.append(due)
            drive.queries += 1
            message = query_message(mix[index % len(mix)], keys[index % len(keys)])
            writer.write(encode_message(message))
            await writer.drain()
        await receiver
    except (OSError, ProtocolError):
        drive.query_failures = drive.queries - len(drive.latencies_ms)
    finally:
        receiver.cancel()


async def _drive(
    port: int, workload: Workload, trace: Trace, probes: list[Hashable], seconds: float
) -> Drive:
    drive = Drive()
    client = await ServiceClient.connect(HOST, port, retry=_RETRY)
    reader, writer = await _open_query_connection(port)
    try:
        if workload.sliding:
            # Fill one window first, untimed: the run measures the steady
            # state in which every chunk pushes old arrivals out.
            filling = trace.filling(workload.window)
            while drive.arrivals < filling:
                drive.arrivals += await client.ingest(*trace.chunk(drive.arrivals, CHUNK))
            await client.drain()
        warm = drive.arrivals
        drive.start_ns = time.perf_counter_ns()
        start = drive.start_ns / 1e9
        await asyncio.gather(
            _ingest(client, trace, start + seconds, drive),
            _queries(reader, writer, workload, probes, start, seconds, drive),
        )
        await client.drain()
        drive.end_ns = time.perf_counter_ns()
        drive.measured = drive.arrivals - warm
        drive.retries = client.retries
        # Correctness probes, after the measured window.
        drive.answers = [await client.point(key) for key in probes]
        if workload.mode == "hierarchical":
            drive.hitters = [hitter.key for hitter in await client.heavy_hitters(phi=PHI)]
        drive.stats = (await client.get_stats()).raw
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()
        await client.close()
    return drive


# ---------------------------------------------------------------- one run
def _measure(
    workload: Workload,
    trace: Trace,
    probes: list[Hashable],
    settings: Settings,
    workdir: str,
    boots: int,
    trace_dir: str | None = None,
) -> tuple[Drive, list[tuple[float, float]], float, ServerProcess]:
    """Boot ``boots`` times, run the load on one of the servers, stop.

    Every boot is bracketed by two calibration boots; the set-up list holds
    ``(boot seconds, mean calibration seconds)`` per boot.  The boots are
    split around the measured run (the last one before it carries the load)
    so that their median does not hinge on one stretch of the run.
    """
    setup: list[tuple[float, float]] = []

    def timed_boot(attempt: int) -> ServerProcess:
        earlier = calibrate()
        server, seconds = boot(workload, os.path.join(workdir, "boot%d" % attempt), trace_dir)
        try:
            later = calibrate()
        except BaseException:
            server.stop(graceful=False)
            raise
        setup.append((seconds, (earlier + later) / 2.0))
        return server

    before = boots - boots // 2
    for attempt in range(before - 1):
        timed_boot(attempt).stop(graceful=False)
    server = timed_boot(before - 1)
    assert server.port is not None  # boot() waited for the banner
    try:
        drive = asyncio.run(_drive(server.port, workload, trace, probes, settings.seconds))
        rss = server.peak_rss_mib()
    finally:
        server.stop()
    for attempt in range(before, boots):
        timed_boot(attempt).stop(graceful=False)
    return drive, setup, rss, server


def _checks(
    workload: Workload, trace: Trace, drive: Drive, probes: list[Hashable], settings: Settings
) -> tuple[dict[str, dict[str, Any]], dict[str, float]]:
    exact = exact_checks(workload, trace, drive.arrivals, probes, drive.answers, drive.hitters)
    stats = drive.stats
    checks: dict[str, dict[str, Any]] = {
        "records_ingested": {
            "ok": stats.get("records_ingested") == drive.arrivals,
            "detail": "server %s, sent %d" % (stats.get("records_ingested"), drive.arrivals),
        },
        "ingest_apply_errors": {
            "ok": stats.get("ingest_apply_errors", 0) == 0,
            "detail": str(stats.get("ingest_apply_errors", 0)),
        },
        "journal_errors": {
            "ok": stats.get("journal_errors", 0) == 0,
            "detail": str(stats.get("journal_errors", 0)),
        },
        "answers_in_bound": {
            "ok": exact["answers_in_bound"] >= 1.0 - DELTA,
            "detail": "%.4f of %d probes within %.1f (need >= %.2f)"
            % (exact["answers_in_bound"], len(probes), exact["error_bound"], 1.0 - DELTA),
        },
    }
    if "heavy_hitter_recall" in exact:
        checks["heavy_hitter_recall"] = {
            "ok": exact["heavy_hitter_recall"] == 1.0,
            "detail": "%.4f" % exact["heavy_hitter_recall"],
        }
    if settings.require_p99:
        checks["p99_samples"] = {
            "ok": supported(len(drive.latencies_ms), 99.0),
            "detail": "%d query latencies" % len(drive.latencies_ms),
        }
    return checks, exact


def _metrics(
    drive: Drive, setup: list[tuple[float, float]], rss: float, exact: dict[str, float]
) -> dict[str, dict[str, Any]]:
    """Everything one plain run measured, by the names of ``BENCHMARK.json``."""
    latencies = drive.latencies_ms or [float("nan")]
    lateness = drive.lateness_ms or [0.0]
    boots = [seconds for seconds, _ in setup]
    calibrations = [seconds for _, seconds in setup]
    scaled = [seconds / calibration * REFERENCE_CALIBRATION_S for seconds, calibration in setup]
    metrics: dict[str, dict[str, Any]] = {
        "ingest_rate": {"value": drive.rate, "unit": "arrivals/s", "samples": drive.chunks},
        "query_p50_ms": {"value": percentile(latencies, 50.0), "unit": "ms",
                         "samples": len(drive.latencies_ms)},
        "query_p99_ms": {"value": percentile(latencies, 99.0), "unit": "ms",
                         "samples": len(drive.latencies_ms)},
        "setup_s": {"value": statistics.median(scaled), "unit": "s", "samples": len(setup)},
        "setup.boot_wall_s": {"value": statistics.median(boots), "unit": "s",
                              "samples": len(setup)},
        "setup.calibration_s": {"value": statistics.median(calibrations), "unit": "s",
                                "samples": len(setup)},
        "peak_rss_mb": {"value": rss, "unit": "MiB", "samples": 1},
        "error_rate": {"value": drive.failed / max(1, drive.attempted), "unit": "fraction",
                       "samples": drive.attempted},
        "answers_in_bound": {"value": exact["answers_in_bound"], "unit": "fraction",
                             "samples": len(drive.answers)},
        "client.retries": {"value": float(drive.retries), "unit": "count"},
        "service.core.ingest_apply_errors": {
            "value": float(drive.stats.get("ingest_apply_errors", 0)), "unit": "count"},
        "service.journal.journal_errors": {
            "value": float(drive.stats.get("journal_errors", 0)), "unit": "count"},
        "loadgen.lateness_ms_p50": {"value": percentile(lateness, 50.0), "unit": "ms"},
        "loadgen.lateness_ms_p99": {"value": percentile(lateness, 99.0), "unit": "ms"},
    }
    if "heavy_hitter_recall" in exact:
        metrics["heavy_hitter_recall"] = {"value": exact["heavy_hitter_recall"], "unit": "fraction"}
    return metrics


def run_workload(workload: Workload, seed: int, settings: Settings, traced: bool) -> dict[str, Any]:
    """Measure one workload; returns its result record.

    Untraced: ``settings.boots`` cold boots time the set-up, the last server
    carries the load.  Traced: one untraced run (its metrics are the ones
    reported), then one run under the span launcher with the same seed; the
    span metrics come from the second and the tracing overhead from the two
    ingest rates.
    """
    cpus = os.cpu_count() or 1
    if cpus < workload.min_cpus:
        return {"skipped": "needs %d CPUs, host has %d" % (workload.min_cpus, cpus)}
    trace = build_trace(workload, seed)
    probes = trace.probe_keys(settings.probes, seed)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % workload.name, dir=str(WORK_ROOT))
    try:
        boots = 1 if traced else settings.boots
        drive, setup, rss, _ = _measure(
            workload, trace, probes, settings, os.path.join(workdir, "plain"), boots
        )
        checks, exact = _checks(workload, trace, drive, probes, settings)
        result: dict[str, Any] = {
            "workload": workload.name,
            "seed": seed,
            "seconds": settings.seconds,
            "traced": traced,
            "metrics": _metrics(drive, setup, rss, exact),
            "checks": checks,
            "attempted": drive.attempted,
            "failed": drive.failed,
        }
        if traced:
            span_dir = os.path.join(workdir, "spans")
            os.makedirs(span_dir)
            traced_drive, _, _, server = _measure(
                workload, trace, probes, settings, os.path.join(workdir, "traced"), 1, span_dir
            )
            traced_checks, _ = _checks(workload, trace, traced_drive, probes, settings)
            for name, check in traced_checks.items():
                checks["traced." + name] = check
            result["layers"], result["spans"] = layers.per_layer(
                span_dir,
                front_pid=server.process.pid,
                window=(traced_drive.start_ns, traced_drive.end_ns),
                arrivals=traced_drive.measured,
                ops=traced_drive.attempted,
                traced_rate=traced_drive.rate,
                untraced_rate=drive.rate,
            )
            missing = [line.strip() for line in server.lines if "targets not found" in line]
            if missing:
                result["trace_warnings"] = missing
            result["attempted"] += traced_drive.attempted
            result["failed"] += traced_drive.failed
        result["correct"] = all(check["ok"] for check in checks.values())
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it
