"""Newline-delimited-JSON wire protocol of the sketch service.

Every request and response is one JSON object on one line, UTF-8 encoded and
terminated by ``\\n``.  Requests carry an ``op`` field naming the operation
and operation-specific parameters; an optional ``id`` field is echoed back
verbatim so clients can pipeline requests over one connection.  Responses are
``{"ok": true, "result": ...}`` or the typed error envelope
``{"ok": false, "error": {"code": "...", "message": "...", "op": "..."}}``
(codes are registered in :mod:`repro.service.errors`).

The protocol is versioned (:data:`PROTOCOL_VERSION`, semver-ish
``major.minor``).  Clients open each connection with a ``hello`` op carrying
their ``protocol_version``; servers reject a mismatched *major* with a
``VERSION_MISMATCH`` envelope instead of failing on an unknown op
mid-stream.  Minor revisions are additive (new ops, new optional fields) and
interoperate freely.  ``info`` also reports the server's version for
observability.  Version history: ``1.x`` used a bare-string ``error`` field;
``2.0`` introduced the typed envelope, the hello exchange and
tenant-namespaced operations; ``2.1`` added the ``failpoint`` op, optional
``client``/``seq`` exactly-once ingest markers and the ``DEADLINE_EXCEEDED``
error code.

On a pooled server (``repro serve --pool``) every stateful op below accepts
a ``tenant`` field naming the target tenant, plus the tenant lifecycle ops
``tenant_create``/``tenant_delete``/``tenant_list``/``tenant_stats`` and the
explicit budget sweep ``pool_sweep``.

Operations (see :meth:`repro.service.server.SketchServer` for dispatch):

========================= ======================================================
``ping``                  liveness probe; result ``"pong"``
``hello``                 version handshake: client sends ``protocol_version``,
                          server answers with its own or rejects the major
``info``                  service mode/parameters a client needs to build load
``stats``                 live counters: ingested, pending, clock, memory, ...
``ingest``                ``keys``/``clocks``(/``values``/``site``) columns;
                          acknowledged once *enqueued* (see ``drain``) — and,
                          when journaling, only after the chunk is journaled.
                          Optional ``client``/``seq`` markers make retries
                          exactly-once: an already-acked ``seq`` is
                          re-acknowledged without being re-applied
``drain``                 barrier: resolves once every previously acknowledged
                          arrival has been applied to the sketch state
``point``                 point-frequency query (``key``, optional ``range``)
``range``                 range-frequency query (``lo``, ``hi``; hierarchical)
``heavy_hitters``         ``phi`` threshold (hierarchical); the shard router
                          sends workers ``absolute`` — an occurrence threshold
                          resolved against the global arrival total — instead
``quantile``/``quantiles`` ``fraction``/``fractions`` (hierarchical)
``self_join``             second frequency moment (flat / multisite)
``arrivals``              estimated arrivals in the range (flat/hierarchical)
``staleness``             coordinator lag in clock units (multisite)
``root_state``            serialized root aggregate of the latest round plus
                          its clock (multisite; the router merges these via
                          ``ECMSketch.aggregate`` for cross-shard self-joins)
``expire``                sweep out-of-window state from every cell now
``snapshot``              write a snapshot now (optional explicit ``path`` —
                          how the router drives per-shard snapshot files);
                          result is the path
``restart_shard``         respawn worker ``shard`` from its last per-shard
                          snapshot (sharded servers only)
``failpoint``             fault injection: arm a ``spec`` of named failure
                          sites, ``disarm`` (optionally one ``name``), or
                          target one worker with ``shard``; result lists the
                          armed sites
``shutdown``              drain, snapshot (if configured) and stop the server
========================= ======================================================
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ProtocolError, VersionMismatchError, error_envelope

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "PROTOCOL_MAJOR",
    "ProtocolError",
    "protocol_major",
    "check_protocol_version",
    "encode_message",
    "decode_line",
    "ok_response",
    "error_response",
    "error_response_for",
]

#: Wire-protocol version spoken by this build, as ``major.minor``.  Majors
#: gate interoperability (the hello exchange rejects a mismatch); minors are
#: additive.  2.0 = typed error envelope + hello + tenant namespacing;
#: 2.1 = failpoint op + exactly-once ingest markers + DEADLINE_EXCEEDED.
PROTOCOL_VERSION = "2.1"

#: Major component of :data:`PROTOCOL_VERSION`.
PROTOCOL_MAJOR = 2

#: Upper bound on one protocol line.  An ingest chunk of a few thousand
#: arrivals is a few hundred KiB of JSON; 8 MiB leaves an order of magnitude
#: of headroom while still bounding a malformed (newline-free) client.
MAX_LINE_BYTES = 8 * 1024 * 1024


def protocol_major(version: str) -> int:
    """Extract the major component of a ``major.minor`` version string."""
    if not isinstance(version, str):
        raise ProtocolError("protocol_version must be a string, got %r" % (version,))
    head = version.split(".", 1)[0]
    try:
        return int(head)
    except ValueError:
        raise ProtocolError("malformed protocol_version %r" % (version,)) from None


def check_protocol_version(version: str) -> None:
    """Reject a peer version whose major differs from ours.

    Raises:
        VersionMismatchError: The majors differ (incompatible wire format).
        ProtocolError: The version string is malformed.
    """
    major = protocol_major(version)
    if major != PROTOCOL_MAJOR:
        raise VersionMismatchError(
            "protocol major %d (version %s) is incompatible with this peer's "
            "major %d (version %s)" % (major, version, PROTOCOL_MAJOR, PROTOCOL_VERSION)
        )


def encode_message(message: dict[str, Any]) -> bytes:
    """Encode one message as a compact JSON line (trailing newline included)."""
    try:
        text = json.dumps(message, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ProtocolError("message is not JSON-serializable: %s" % (exc,)) from exc
    data = text.encode("utf-8")
    if len(data) + 1 > MAX_LINE_BYTES:
        raise ProtocolError(
            "message of %d bytes exceeds the %d-byte line limit" % (len(data), MAX_LINE_BYTES)
        )
    return data + b"\n"


def _reject_constant(token: str) -> float:
    # Mirrors encode_message's allow_nan=False: NaN/Infinity are not JSON,
    # and a NaN smuggled into (say) a clock column defeats every ordering
    # comparison downstream.
    raise ValueError("non-finite JSON constant %r is not accepted" % (token,))


def decode_line(line: bytes) -> dict[str, Any]:
    """Decode one protocol line into a message dictionary."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "line of %d bytes exceeds the %d-byte limit" % (len(line), MAX_LINE_BYTES)
        )
    try:
        payload = json.loads(line.decode("utf-8"), parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
        raise ProtocolError("line is not valid JSON: %s" % (exc,)) from exc
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object, got %s" % (type(payload).__name__,))
    return payload


def ok_response(result: Any, request_id: Any | None = None) -> dict[str, Any]:
    """Successful response envelope."""
    response: dict[str, Any] = {"ok": True, "result": result}
    if request_id is not None:
        response["id"] = request_id
    return response


def error_response(
    code: str,
    message: str,
    op: str | None = None,
    request_id: Any | None = None,
) -> dict[str, Any]:
    """Typed failure envelope: ``{"ok": false, "error": {code, message, op}}``."""
    response: dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message, "op": op},
    }
    if request_id is not None:
        response["id"] = request_id
    return response


def error_response_for(
    exc: BaseException,
    op: str | None = None,
    request_id: Any | None = None,
) -> dict[str, Any]:
    """Failure envelope for one exception, via the error-code registry."""
    envelope = error_envelope(exc, op)
    response: dict[str, Any] = {"ok": False, "error": envelope}
    if request_id is not None:
        response["id"] = request_id
    return response
