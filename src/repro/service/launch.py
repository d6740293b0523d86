"""Subprocess harness for ``repro serve`` — event-driven, parallel-run safe.

Everything that boots the serve CLI as a real process (the smoke tests, the
fault-injection suite, the service benchmark, the CI jobs) shares this
harness instead of hand-rolling ``Popen`` + pre-picked "free" ports +
connect-polling loops.  The differences matter for flakiness:

* The server binds **port 0** and announces the kernel-assigned port on its
  ``<label>: listening on <host>:<port>`` banner; a background reader thread
  parses it.  There is no window between probing for a free port and binding
  it, so parallel test runs cannot collide.
* Readiness is the banner event, not a sleep-poll loop: :meth:`wait_ready`
  returns the instant the line arrives, and fails fast (with the child's
  full output in the error) if the process dies first.
* The reader thread keeps accumulating output, so assertions about the
  drain banner after SIGTERM see everything the child printed.
"""

from __future__ import annotations

import contextlib
import re
import subprocess
import sys
import threading

from .shard_worker import repro_env

__all__ = ["ServeProcess", "repro_env"]

#: ``run_server``'s listening banner.  Shard workers print the same shape
#: under a ``repro-shard<k>`` label — anchoring on the exact label keeps the
#: router's banner unambiguous even though workers share the parent's stdout.
_BANNER = re.compile(r"^(?P<label>[A-Za-z0-9_.-]+): listening on (?P<host>\S+):(?P<port>\d+)\b")

_READY_TIMEOUT = 120.0


class ServeProcess:
    """One ``repro serve`` subprocess plus its output reader.

    Args:
        *args: Extra CLI arguments after ``repro <subcommand> --port 0``
            (stringified; pass ``"--shards", 4`` style pairs).
        env: Subprocess environment (defaults to :func:`repro_env`).
        label: Banner label announcing readiness (``run_server``'s
            ``label`` parameter; the default CLI prints ``repro-serve``).
        subcommand: CLI subcommand to boot.  ``repro gateway`` prints the
            same banner shape under the ``repro-gateway`` label, so the
            harness serves it too (pass ``subcommand="gateway"``,
            ``label="repro-gateway"``).

    Example:
        with ServeProcess("--mode", "flat") as server:
            port = server.wait_ready()
            ...
            assert server.stop() == 0
    """

    def __init__(
        self,
        *args: object,
        env: dict[str, str] | None = None,
        label: str = "repro-serve",
        subcommand: str = "serve",
    ) -> None:
        self.label = label
        self.command = [sys.executable, "-m", "repro", subcommand, "--port", "0"]
        self.command.extend(str(argument) for argument in args)
        self.port: int | None = None
        self._lines: list[str] = []
        self._lock = threading.Lock()
        self._ready = threading.Event()
        self.process = subprocess.Popen(
            self.command,
            env=env if env is not None else repro_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self._reader = threading.Thread(
            target=self._pump, name="serve-output-reader", daemon=True
        )
        self._reader.start()

    def _pump(self) -> None:
        stream = self.process.stdout
        assert stream is not None
        with stream:
            for line in stream:
                with self._lock:
                    self._lines.append(line)
                if not self._ready.is_set():
                    match = _BANNER.match(line)
                    if match and match.group("label") == self.label:
                        self.port = int(match.group("port"))
                        self._ready.set()
        # EOF before any banner: unblock waiters so they can report the
        # child's output instead of timing out.
        self._ready.set()

    @property
    def output(self) -> str:
        """Everything the child has printed so far (stdout + stderr)."""
        with self._lock:
            return "".join(self._lines)

    @property
    def returncode(self) -> int | None:
        return self.process.poll()

    def wait_ready(self, timeout: float = _READY_TIMEOUT) -> int:
        """Block until the listening banner arrives; returns the bound port."""
        if not self._ready.wait(timeout):
            self.kill()
            raise TimeoutError(
                "server did not announce a port within %.0f s; output so far:\n%s"
                % (timeout, self.output)
            )
        if self.port is None:
            raise RuntimeError(
                "server exited (code %r) before listening; output:\n%s"
                % (self.process.poll(), self.output)
            )
        return self.port

    def terminate(self) -> None:
        """SIGTERM (the server drains, snapshots and exits gracefully)."""
        if self.process.poll() is None:
            self.process.terminate()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()

    def wait(self, timeout: float = 60.0) -> int:
        """Wait for exit; returns the exit code (reader thread joined)."""
        code = self.process.wait(timeout)
        self._reader.join(timeout=10.0)
        return code

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, await graceful exit, escalate to SIGKILL on timeout."""
        self.terminate()
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(30.0)
        self._reader.join(timeout=10.0)
        return self.process.returncode if self.process.returncode is not None else -1

    def __enter__(self) -> ServeProcess:
        return self

    def __exit__(self, *exc_info: object) -> None:
        # Cleanup path: tests that care about graceful shutdown call stop()
        # themselves; anything still running here is torn down hard.
        if self.process.poll() is None:
            self.process.kill()
            with contextlib.suppress(subprocess.TimeoutExpired):
                self.process.wait(30.0)
        self._reader.join(timeout=10.0)
