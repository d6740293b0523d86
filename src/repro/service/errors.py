"""Typed service errors and the machine-readable error-code registry.

Every failure the service surfaces — over the NDJSON TCP protocol, the HTTP
gateway, or in-process — is one exception type from this module, carrying a
stable machine-readable ``code``.  The wire form is one envelope shape::

    {"ok": false, "error": {"code": "CLOCK_REGRESSION", "message": "...", "op": "ingest"}}

shared by the TCP server, the shard router (worker errors re-raise as the
same typed exception on the router side) and the HTTP gateway (which maps
``code`` to an HTTP status).  Clients rebuild the typed exception from the
envelope via :func:`exception_for_error`, so ``except TenantNotFoundError``
works identically against an in-process service and a remote one.

The registry (:data:`ERROR_CODES`) is the single source of truth: every code
maps to its exception class, its HTTP status and a one-line description
(the ``docs/api.md`` table); the gateway's status table is derived from it.
"""

from __future__ import annotations

from typing import Any, ClassVar, NamedTuple

from ..core.errors import ConfigurationError, EmptyStructureError

__all__ = [
    "ServiceError",
    "ServiceRequestError",
    "ProtocolError",
    "BadRequestError",
    "UnknownOperationError",
    "InvalidParameterError",
    "ModeMismatchError",
    "EmptyStateError",
    "IngestRejectedError",
    "ClockRegressionError",
    "ServiceStoppedError",
    "ShardUnavailableError",
    "DeadlineExceededError",
    "VersionMismatchError",
    "PoolDisabledError",
    "TenantRequiredError",
    "TenantNotFoundError",
    "TenantExistsError",
    "TenantEvictedError",
    "ERROR_CODES",
    "ErrorCode",
    "error_envelope",
    "exception_for_error",
]


class ServiceError(Exception):
    """Base class of service-level failures.

    Every subclass pins a stable machine-readable ``code``; an instance may
    carry the operation (``op``) it failed, which travels in the envelope.
    """

    code: ClassVar[str] = "INTERNAL"

    def __init__(self, message: str = "", op: str | None = None) -> None:
        super().__init__(message)
        self.op = op


class ServiceRequestError(ServiceError):
    """A request was rejected (any ``ok: false`` response).

    The catch-all clients raise for responses whose code has no dedicated
    class (e.g. talking to a newer server); typed rejections below subclass
    it, so ``except ServiceRequestError`` stays the broad client-side net.
    A received unknown code is preserved on the instance via ``wire_code``.
    """

    def __init__(
        self, message: str = "", op: str | None = None, wire_code: str | None = None
    ) -> None:
        super().__init__(message, op=op)
        if wire_code is not None:
            # Shadow the class attribute so .code reflects what the server sent.
            self.code = wire_code  # type: ignore[misc]


class ProtocolError(ServiceError):
    """A malformed protocol line or message."""

    code = "PROTOCOL"


class BadRequestError(ServiceRequestError):
    """A structurally invalid request (wrong types, missing fields)."""

    code = "BAD_REQUEST"


class UnknownOperationError(BadRequestError):
    """The request named an operation this server does not serve."""

    code = "UNKNOWN_OP"


class InvalidParameterError(BadRequestError):
    """A parameter is missing or outside its valid range."""

    code = "INVALID_PARAMETER"


class ModeMismatchError(ServiceRequestError):
    """The operation is not served by the target's service mode."""

    code = "MODE_MISMATCH"


class EmptyStateError(ServiceRequestError):
    """The query is undefined on empty state (e.g. quantile of nothing).

    Client-side face of :class:`repro.core.errors.EmptyStructureError`.
    """

    code = "EMPTY_STRUCTURE"


class IngestRejectedError(ServiceRequestError):
    """An ingest chunk failed validation and was not enqueued."""

    code = "INGEST_REJECTED"


class ClockRegressionError(IngestRejectedError):
    """An arrival clock ran behind the relevant high-water mark."""

    code = "CLOCK_REGRESSION"


class ServiceStoppedError(ServiceRequestError):
    """The service is draining or stopped and accepts no new work."""

    code = "SERVICE_STOPPED"


class ShardUnavailableError(ServiceRequestError):
    """A shard worker is dead or unreachable; the request was not served."""

    code = "SHARD_UNAVAILABLE"


class DeadlineExceededError(ServiceRequestError):
    """An operation ran past its deadline and was abandoned.

    Raised client-side when a per-operation deadline expires before the
    response arrives, and router-side when a shard fan-out exceeds its
    budget.  The request may or may not have been applied by the server;
    idempotent retries (ingest with ``client``/``seq``) are safe.
    """

    code = "DEADLINE_EXCEEDED"


class VersionMismatchError(ServiceRequestError):
    """Client and server speak incompatible protocol majors."""

    code = "VERSION_MISMATCH"


class PoolDisabledError(ServiceRequestError):
    """A tenant-namespaced request reached a server without a tenant pool."""

    code = "POOL_DISABLED"


class TenantRequiredError(BadRequestError):
    """A pooled server requires a ``tenant`` on this operation."""

    code = "TENANT_REQUIRED"


class TenantNotFoundError(ServiceRequestError):
    """The named tenant does not exist in the catalog."""

    code = "TENANT_NOT_FOUND"


class TenantExistsError(ServiceRequestError):
    """Tenant creation collided with an existing catalog entry."""

    code = "TENANT_EXISTS"


class TenantEvictedError(ServiceRequestError):
    """An evicted tenant could not be restored (snapshot missing/corrupt)."""

    code = "TENANT_EVICTED"


class ErrorCode(NamedTuple):
    """One registry row: the typed exception, its HTTP status, its meaning."""

    exception: type[ServiceError]
    status: int
    description: str


#: Error-code registry: code -> (exception class, HTTP status, one-line
#: description).  The gateway's status table is derived from it, and
#: ``tests/service/test_ops.py`` checks the ``docs/api.md`` table against it.
ERROR_CODES: dict[str, ErrorCode] = {
    "PROTOCOL": ErrorCode(
        ProtocolError, 400, "Malformed protocol line or message (not valid single-line JSON)."
    ),
    "BAD_REQUEST": ErrorCode(
        BadRequestError, 400, "Structurally invalid request: wrong types or missing fields."
    ),
    "UNKNOWN_OP": ErrorCode(
        UnknownOperationError, 400, "The request named an operation this server does not serve."
    ),
    "INVALID_PARAMETER": ErrorCode(
        InvalidParameterError, 400, "A parameter is missing or outside its valid range."
    ),
    "MODE_MISMATCH": ErrorCode(
        ModeMismatchError, 409, "Operation not served by the target's service mode."
    ),
    "EMPTY_STRUCTURE": ErrorCode(
        EmptyStateError, 409, "Query undefined on empty state (no in-range arrivals)."
    ),
    "INGEST_REJECTED": ErrorCode(
        IngestRejectedError, 400, "Ingest chunk failed validation; nothing was enqueued."
    ),
    "CLOCK_REGRESSION": ErrorCode(
        ClockRegressionError,
        409,
        "Arrival clock ran behind the high-water mark; clocks must be non-decreasing.",
    ),
    "SERVICE_STOPPED": ErrorCode(
        ServiceStoppedError, 503, "Service is draining or stopped; no new work accepted."
    ),
    "SHARD_UNAVAILABLE": ErrorCode(
        ShardUnavailableError, 503, "A shard worker is dead or unreachable."
    ),
    "DEADLINE_EXCEEDED": ErrorCode(
        DeadlineExceededError,
        504,
        "The operation ran past its deadline before a response arrived.",
    ),
    "VERSION_MISMATCH": ErrorCode(
        VersionMismatchError, 400, "Client and server speak incompatible protocol majors."
    ),
    "POOL_DISABLED": ErrorCode(
        PoolDisabledError, 400, "Tenant-namespaced request on a server without a pool."
    ),
    "TENANT_REQUIRED": ErrorCode(
        TenantRequiredError, 400, "A pooled server requires `tenant` on this operation."
    ),
    "TENANT_NOT_FOUND": ErrorCode(
        TenantNotFoundError, 404, "The named tenant does not exist in the catalog."
    ),
    "TENANT_EXISTS": ErrorCode(
        TenantExistsError, 409, "Tenant creation collided with an existing entry."
    ),
    "TENANT_EVICTED": ErrorCode(
        TenantEvictedError,
        500,
        "Evicted tenant could not be restored: snapshot missing or corrupt.",
    ),
    "INTERNAL": ErrorCode(ServiceRequestError, 500, "Unexpected server-side failure."),
}

_CODE_TO_EXCEPTION: dict[str, type[ServiceError]] = {
    code: row.exception for code, row in ERROR_CODES.items() if code != "INTERNAL"
}


def error_envelope(exc: BaseException, op: str | None = None) -> dict[str, Any]:
    """Build the wire-form error envelope for one exception.

    Exceptions outside the service hierarchy map onto stable codes too:
    :class:`~repro.core.errors.ConfigurationError` (bad parameter values) to
    ``INVALID_PARAMETER``, :class:`~repro.core.errors.EmptyStructureError`
    to ``EMPTY_STRUCTURE``, and plain ``TypeError``/``ValueError``/
    ``KeyError`` to ``BAD_REQUEST``.
    """
    if isinstance(exc, ServiceError):
        code = exc.code
        if op is None:
            op = exc.op
    elif isinstance(exc, ConfigurationError):
        code = "INVALID_PARAMETER"
    elif isinstance(exc, EmptyStructureError):
        code = "EMPTY_STRUCTURE"
    elif isinstance(exc, (TypeError, ValueError, KeyError)):
        code = "BAD_REQUEST"
    else:
        code = "INTERNAL"
    return {"code": code, "message": str(exc), "op": op}


def exception_for_error(error: Any, prefix: str | None = None) -> ServiceError:
    """Rebuild the typed exception for one received error payload.

    Accepts the structured envelope (``{"code", "message", "op"}``) and, for
    compatibility with pre-v2 servers, a bare error string.  Unknown codes
    come back as plain :class:`ServiceRequestError` with the received code
    preserved, so a client one release behind still fails typed-ish instead
    of crashing on the envelope.

    Args:
        error: The ``error`` field of an ``ok: false`` response.
        prefix: Optional message prefix (the router names the shard here).
    """
    if isinstance(error, dict):
        code = error.get("code")
        message = str(error.get("message", "unknown server error"))
        op = error.get("op")
        if not isinstance(op, str):
            op = None
    else:
        code = None
        message = str(error) if error is not None else "unknown server error"
        op = None
    if prefix:
        message = "%s: %s" % (prefix, message)
    if isinstance(code, str):
        cls = _CODE_TO_EXCEPTION.get(code)
        if cls is not None:
            return cls(message, op=op)
        return ServiceRequestError(message, op=op, wire_code=code)
    return ServiceRequestError(message, op=op)
