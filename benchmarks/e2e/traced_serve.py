"""``repro serve`` with every layer boundary of an arrival wrapped in a span.

Run as a script, with the same arguments as ``repro`` and the dump directory
in ``E2E_TRACE_DIR``::

    E2E_TRACE_DIR=out PYTHONPATH=src python benchmarks/e2e/traced_serve.py serve --port 0 ...

The wrappers go around the public (and a few private) functions of
``src/repro`` from the outside; nothing under ``src/`` changes.  They are
installed when this module is imported, not under the ``__main__`` guard:
spawn-context shard workers re-import the parent's main module as
``__mp_main__`` before they run, so the workers of a sharded server are
traced by the same code.  Each process writes its spans to
``$E2E_TRACE_DIR/spans-<pid>.npz`` when it exits.
"""

from __future__ import annotations

import atexit
import importlib
import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..")))

from benchmarks.e2e.spans import SpanRecorder  # noqa: E402

#: Environment variable naming the span dump directory.
TRACE_DIR_ENV = "E2E_TRACE_DIR"


def _arg(position: int, name: str) -> Callable[..., int]:
    """Items counter: ``len`` of one argument (positional or keyword)."""

    def count(*args: Any, **kwargs: Any) -> int:
        value = args[position] if len(args) > position else kwargs.get(name, ())
        return len(value)

    return count


def _runs(self: Any, payloads: Any) -> int:
    """Cell runs handed to the counter store (one ``run_columns`` entry each)."""
    return sum(len(payload[1]) for payload in payloads)


def _chunk_arrivals(self: Any, chunks: Any) -> int:
    return sum(len(chunk) for chunk in chunks)


def _per_op(prefix: str) -> Callable[..., str]:
    def name(self: Any, op: str, *args: Any, **kwargs: Any) -> str:
        return "%s.%s" % (prefix, op)

    return name


#: ``(module, attribute, span name, items counter, per-call namer)``.  The
#: layer metrics in :mod:`benchmarks.e2e.layers` are computed from these
#: span names.
TARGETS: list[tuple[str, str, str, Callable[..., int] | None, Callable[..., str] | None]] = [
    ("repro.service.protocol", "decode_line", "service.protocol.decode", None, None),
    ("repro.service.protocol", "encode_message", "service.protocol.encode", None, None),
    ("repro.service.core", "SketchService.ingest", "service.core.ingest", _arg(1, "keys"), None),
    ("repro.service.core", "SketchService._validate_chunk", "service.core.validate",
     _arg(1, "keys"), None),
    ("repro.service.core", "SketchService._apply_chunks", "service.core.apply",
     _chunk_arrivals, None),
    ("repro.service.core", "SketchService.query", "service.core.query", None,
     _per_op("service.core.query")),
    ("repro.service.journal", "IngestJournal.append", "service.journal.append",
     _arg(2, "keys"), None),
    ("repro.service.snapshot", "snapshot_payload", "service.snapshot.payload", None, None),
    ("repro.service.snapshot", "write_snapshot", "service.snapshot.write", None, None),
    ("repro.service.router", "ShardRouter.ingest", "service.router.ingest", _arg(1, "keys"), None),
    ("repro.service.router", "ShardRouter._partition", "service.router.partition",
     _arg(1, "keys"), None),
    ("repro.service.router", "ShardRouter._gather", "service.router.fanout", None, None),
    ("repro.service.router", "ShardRouter.query", "service.router.query", None,
     _per_op("service.router.query")),
    ("repro.core.hashing", "stable_fingerprints", "core.hashing.hash", _arg(0, "items"), None),
    ("repro.core.hashing", "HashFamily.hash_fingerprints", "core.hashing.hash",
     _arg(1, "fingerprints"), None),
    ("repro.core.ecm_sketch", "ECMSketch.add_many", "core.ecm_sketch.add_many",
     _arg(1, "items"), None),
    ("repro.queries.hierarchical", "HierarchicalECMSketch.add_many",
     "queries.hierarchical.add_many", _arg(1, "keys"), None),
    ("repro.windows.columnar_eh", "ColumnarEHStore.ingest_sorted_rows",
     "windows.columnar_eh.ingest", _runs, None),
    ("repro.windows.columnar_eh", "ColumnarEHStore.expire_all", "windows.columnar_eh.expire",
     None, None),
    ("repro.windows.kernel_eh", "KernelEHStore.expire_all", "windows.columnar_eh.expire",
     None, None),
    # The reference replay of one cell run: materialise the cell as an
    # ExponentialHistogram, add_batch, load it back.
    ("repro.windows.columnar_eh", "ColumnarEHStore._fallback_run",
     "windows.exponential_histogram.fallback", _arg(2, "clocks"), None),
]


def _replace_everywhere(original: Any, wrapped: Any) -> None:
    """Rebind a module-level function in every ``repro`` module holding it.

    ``from .protocol import encode_message`` copies the reference into the
    importing module, so patching only the defining module would miss the
    call sites.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attribute, value in list(namespace.items()):
            if value is original:
                namespace[attribute] = wrapped


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every target; returns the targets that no longer exist."""
    importlib.import_module("repro.cli")
    importlib.import_module("repro.service")
    missing = []
    for module_name, path, span, items, name_of in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append("%s.%s" % (module_name, path))
            continue
        owner_name, _, attribute = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attribute) if owner is not None else None
        if not callable(original):
            missing.append("%s.%s" % (module_name, path))
            continue
        wrapped = recorder.wrap(original, span, items, name_of)
        if owner_name:
            setattr(owner, attribute, wrapped)
        else:
            _replace_everywhere(original, wrapped)
    return missing


RECORDER = SpanRecorder()
_DIRECTORY = os.environ.get(TRACE_DIR_ENV)
if _DIRECTORY:
    MISSING = install(RECORDER)
    if MISSING:
        print("traced_serve: targets not found: %s" % ", ".join(MISSING), file=sys.stderr,
              flush=True)
    atexit.register(RECORDER.dump, _DIRECTORY)


if __name__ == "__main__":
    if not _DIRECTORY:
        sys.exit("traced_serve.py needs %s set to the span dump directory" % TRACE_DIR_ENV)
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
