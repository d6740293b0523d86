"""Span recording for the traced server, and the self-time analysis of its dumps.

A span is one call of a wrapped function: its name, its start and end
(``time.perf_counter_ns``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across the processes of one host), the span that was open when it
started, how many items it handled and whether it raised.

The open span lives in a :class:`contextvars.ContextVar`, so every asyncio
task and every thread keeps its own stack: a journal append running on an
executor thread is a root span, and a ``_validate_chunk`` call inside the
``ingest`` coroutine is that coroutine's child.  Spans are kept in memory in
per-thread column buffers (41 bytes a span) and written to one ``.npz`` file
per process by :meth:`SpanRecorder.dump`.

A span's *self time* is its duration minus the part of its interval that its
child spans cover (the union of the children's intervals, clipped to the
parent), so nested self times add up to the root spans' durations.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import os
import threading
import time
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["SpanRecorder", "SpanTable", "load_span_dir", "self_times"]

#: Kind of a span name: ``"sync"`` spans are time the calling thread was
#: busy; ``"async"`` spans are coroutines, whose duration includes the time
#: they were suspended (waiting), so their self time is wait, not work.
SYNC = "sync"
ASYNC = "async"


class _Buffer:
    """Span columns of one thread."""

    __slots__ = ("name", "start", "end", "parent", "items", "failed", "main")

    def __init__(self) -> None:
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.items = array("q")
        self.failed = array("b")
        self.main = threading.current_thread() is threading.main_thread()


class SpanRecorder:
    """Collects spans of the wrapped functions of one process."""

    def __init__(self) -> None:
        self._names: dict[str, int] = {}
        self._kinds: list[str] = []
        self._name_lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._current: contextvars.ContextVar[tuple[_Buffer, int] | None] = (
            contextvars.ContextVar("e2e_open_span", default=None)
        )

    # ----------------------------------------------------------- recording
    def name_id(self, name: str, kind: str) -> int:
        """Small integer id of a span name (registered on first use)."""
        found = self._names.get(name)
        if found is not None:
            return found
        with self._name_lock:
            found = self._names.get(name)
            if found is None:
                found = len(self._kinds)
                self._kinds.append(kind)
                self._names[name] = found
            return found

    def _buffer(self) -> _Buffer:
        buffer: _Buffer | None = getattr(self._local, "buffer", None)
        if buffer is None:
            with self._name_lock:
                buffer = _Buffer()
                self._buffers.append(buffer)
            self._local.buffer = buffer
        return buffer

    def open(self, name: int, items: int) -> tuple[_Buffer, int, contextvars.Token[Any]] | None:
        """Start a span; returns the handle :meth:`close` takes.

        A call nested directly in a span of the same name (a subclass
        override calling ``super()``) records nothing, so one logical call
        is one span.
        """
        buffer = self._buffer()
        parent = self._current.get()
        parent_index = -1
        if parent is not None and parent[0] is buffer:
            parent_index = parent[1]
            if buffer.name[parent_index] == name:
                return None
        index = len(buffer.name)
        buffer.name.append(name)
        buffer.parent.append(parent_index)
        buffer.items.append(items)
        buffer.failed.append(0)
        buffer.end.append(0)
        buffer.start.append(time.perf_counter_ns())
        return buffer, index, self._current.set((buffer, index))

    def close(self, handle: tuple[_Buffer, int, contextvars.Token[Any]] | None, failed: bool) -> None:
        """End a span opened by :meth:`open`."""
        if handle is None:
            return
        buffer, index, token = handle
        buffer.end[index] = time.perf_counter_ns()
        if failed:
            buffer.failed[index] = 1
        self._current.reset(token)

    def wrap(
        self,
        function: Callable[..., Any],
        name: str,
        items: Callable[..., int] | None = None,
        name_of: Callable[..., str] | None = None,
    ) -> Callable[..., Any]:
        """Wrap a function (or coroutine function) so each call is a span.

        Args:
            function: The callable to wrap.
            name: Span name, ``<module>.<layer>`` style.
            items: Optional ``(*args, **kwargs) -> int`` counting what the
                call handled (arrivals, runs); recorded with the span.
            name_of: Optional ``(*args, **kwargs) -> str`` naming each call
                (per-operation spans); overrides ``name``.
        """
        is_async = inspect.iscoroutinefunction(function)
        kind = ASYNC if is_async else SYNC
        fixed = self.name_id(name, kind)
        recorder = self

        def resolve(args: tuple[Any, ...], kwargs: dict[str, Any]) -> tuple[int, int]:
            span_name = fixed if name_of is None else recorder.name_id(name_of(*args, **kwargs), kind)
            count = 0 if items is None else items(*args, **kwargs)
            return span_name, count

        if is_async:

            @functools.wraps(function)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                handle = recorder.open(*resolve(args, kwargs))
                failed = True
                try:
                    result = await function(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    recorder.close(handle, failed)

            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            handle = recorder.open(*resolve(args, kwargs))
            failed = True
            try:
                result = function(*args, **kwargs)
                failed = False
                return result
            finally:
                recorder.close(handle, failed)

        return wrapper

    # ---------------------------------------------------------------- dump
    def dump(self, directory: str) -> str:
        """Write every recorded span to ``<directory>/spans-<pid>.npz``."""
        now = time.perf_counter_ns()
        columns: dict[str, list[np.ndarray]] = {
            key: [] for key in ("name", "start", "end", "parent", "items", "failed", "main")
        }
        offset = 0
        for buffer in list(self._buffers):
            count = len(buffer.name)
            parent = np.frombuffer(buffer.parent, dtype=np.int64)[:count].copy()
            parent[parent >= 0] += offset
            end = np.frombuffer(buffer.end, dtype=np.int64)[:count].copy()
            end[end == 0] = now  # still open at exit: clipped to the dump time
            columns["name"].append(np.frombuffer(buffer.name, dtype=np.int64)[:count].copy())
            columns["start"].append(np.frombuffer(buffer.start, dtype=np.int64)[:count].copy())
            columns["end"].append(end)
            columns["parent"].append(parent)
            columns["items"].append(np.frombuffer(buffer.items, dtype=np.int64)[:count].copy())
            columns["failed"].append(np.frombuffer(buffer.failed, dtype=np.int8)[:count].copy())
            columns["main"].append(np.full(count, buffer.main, dtype=np.int8))
            offset += count
        names = sorted(self._names, key=self._names.__getitem__)
        path = os.path.join(directory, "spans-%d.npz" % os.getpid())
        np.savez(
            path,
            pid=np.int64(os.getpid()),
            names=np.array(names, dtype=str),
            kinds=np.array(self._kinds, dtype=str),
            **{
                key: np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
                for key, parts in columns.items()
            },
        )
        return path


# --------------------------------------------------------------- analysis
@dataclass
class SpanTable:
    """All spans of one process, as columns (index = span id)."""

    pid: int
    names: list[str]
    kinds: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    items: np.ndarray
    failed: np.ndarray
    #: Whether the span ran on the process's main thread (the event loop).
    main: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start


def load_span_dir(directory: str) -> list[SpanTable]:
    """Every ``spans-<pid>.npz`` dump in a directory, one table per process."""
    tables = []
    for entry in sorted(os.listdir(directory)):
        if not (entry.startswith("spans-") and entry.endswith(".npz")):
            continue
        with np.load(os.path.join(directory, entry)) as data:
            tables.append(
                SpanTable(
                    pid=int(data["pid"]),
                    names=[str(name) for name in data["names"]],
                    kinds=[str(kind) for kind in data["kinds"]],
                    name=data["name"].astype(np.int64),
                    start=data["start"].astype(np.int64),
                    end=data["end"].astype(np.int64),
                    parent=data["parent"].astype(np.int64),
                    items=data["items"].astype(np.int64),
                    failed=data["failed"].astype(np.int64),
                    main=data["main"].astype(bool),
                )
            )
    return tables


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration minus the union of the child intervals, clipped to the parent.

    Children are swept in start order per parent, keeping the furthest end
    covered so far, so overlapping children (concurrent tasks) and children
    that outlive their parent are each counted once and only inside it.
    """
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((start[children], parent[children]))]
    starts = start.tolist()
    ends = end.tolist()
    parents = parent.tolist()
    reach = list(starts)  # per parent: the furthest instant already covered
    covered = [0] * len(starts)
    for child in order.tolist():
        owner = parents[child]
        low = max(starts[child], reach[owner])
        high = min(ends[child], ends[owner])
        if high > low:
            covered[owner] += high - low
            reach[owner] = high
    return (end - start) - np.asarray(covered, dtype=np.int64)
