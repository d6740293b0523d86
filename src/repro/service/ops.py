"""The protocol op table: every operation the serving tier speaks, defined once.

One :class:`Op` row per protocol op holds what every tier needs to serve it:
its parameters and their wire types, whether it mutates server state, its
deadline class, whether it addresses the workers of a sharded server, its
REST route, the modes that serve a query, and its ``docs/api.md`` result
text.  The TCP dispatcher (:func:`~repro.service.server.dispatch_service_op`),
the query entry points of :class:`~repro.service.core.SketchService` and
:class:`~repro.service.router.ShardRouter`, the HTTP gateway's routes and
the client's deadlines all read :data:`OPS`; ``tests/service/test_ops.py``
checks the ``docs/api.md`` tables against it.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from .errors import (
    BadRequestError,
    InvalidParameterError,
    ModeMismatchError,
    TenantRequiredError,
    UnknownOperationError,
)

__all__ = [
    "OPS",
    "Op",
    "Param",
    "SLOW_DEADLINE",
    "TENANT_ID_PATTERN",
    "check_params",
    "deadline_for",
    "query_handler",
    "require_tenant",
]

#: Budget (seconds) of the slow deadline class: ops whose server-side work is
#: legitimately long (drain, snapshot, restart_shard, pool_sweep) are never
#: cut off at a retrying client's ordinary per-operation budget.
SLOW_DEADLINE = 600.0

#: Python types a value of each wire type :func:`check_params` checks may
#: have.  The other wire types (``any``, ``float``, ``float_list``) only
#: type query parameters, which the query handlers validate; a
#: ``float_list`` is comma-separated in a REST query string.
_WIRE_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "str": (str,),
    "bool": (bool,),
    "list": (list,),
    "object": (dict,),
}


@dataclass(frozen=True)
class Param:
    """One message field of an op: name, wire type, required or optional."""

    name: str
    wire: str
    required: bool


@dataclass(frozen=True)
class Op:
    """One protocol operation.

    Attributes:
        name: The ``op`` field of its messages.
        kind: ``admin``, ``query`` (answered by ``query``) or ``tenant``
            (pooled servers only).
        params: Message fields, in documentation order.
        result: The result column of its ``docs/api.md`` row.
        mutates: Changes server state (sketch contents, durable files,
            tenants, armed faults, the process itself); never routed by GET.
        slow: Deadline class: slow ops get :data:`SLOW_DEADLINE`.
        sharded: Its ``shard`` parameter names a worker of a sharded server,
            so a message carrying one fails ``MODE_MISMATCH`` anywhere else.
        http: ``(method, route under /v1)`` of its REST route, or ``None``.
            An op with a ``tenant`` parameter is also routed under
            ``tenants/{id}/``.
        modes: For queries, the service modes that serve it.
    """

    name: str
    kind: str
    params: tuple[Param, ...]
    result: str
    mutates: bool = False
    slow: bool = False
    sharded: bool = False
    http: tuple[str, str] | None = None
    modes: tuple[str, ...] = ()

    def param(self, name: str) -> Param | None:
        return next((param for param in self.params if param.name == name), None)


def _op(name: str, kind: str, params: str, result: str, **flags: Any) -> Op:
    """Build one row; ``params`` reads like the docs: ``key:any [range:float]``."""
    parsed = []
    for token in params.split():
        field, _, wire = token.strip("[]").partition(":")
        parsed.append(Param(field, wire, not token.startswith("[")))
    return Op(name, kind, tuple(parsed), result, **flags)


def _query(name: str, params: str, modes: str, result: str) -> Op:
    return _op(name, "query", params + " [tenant:str]", result,
               http=("GET", "query/" + name), modes=tuple(modes.split(", ")))


#: Every protocol op, by name, in ``docs/api.md`` order.
OPS: dict[str, Op] = {op.name: op for op in (
    _op("hello", "admin", "[protocol_version:str]", "`{protocol_version}`"),
    _op("ping", "admin", "", '`"pong"`'),
    _op("info", "admin", "", "static configuration: `mode`, `backend`, `protocol_version`, "
        "`epsilon`, `window`, `pool`, `shards`, ...", http=("GET", "info")),
    _op("stats", "admin", "", "live counters: `records_ingested`, `applied_clock`, "
        "`memory_bytes`, `uptime_seconds`, pool/shard details", http=("GET", "stats")),
    _op("ingest", "admin",
        "keys:list clocks:list [values:list] [site:int] [tenant:str] [client:str] [seq:int]",
        "`{accepted}` — number of records enqueued (journaled first when a WAL is "
        "configured); a `client`/`seq` pair already acknowledged is re-acked without "
        "being re-applied, making retries exactly-once", mutates=True, http=("POST", "ingest")),
    _op("drain", "admin", "[tenant:str]", "`{applied_clock}` after an apply-barrier",
        mutates=True, slow=True, http=("POST", "drain")),
    _op("expire", "admin", "[tenant:str]", "`{applied_clock}` after an out-of-window sweep",
        mutates=True, http=("POST", "expire")),
    _op("snapshot", "admin", "[path:str] [tenant:str]",
        "`{path}` of the atomic snapshot written", mutates=True, slow=True,
        http=("POST", "snapshot")),
    _op("restart_shard", "admin", "shard:int", "respawn outcome (sharded servers only)",
        mutates=True, slow=True, sharded=True),
    _op("failpoint", "admin", "[spec:str] [disarm:bool] [name:str] [shard:int]",
        "fault injection for tests: arm a failpoint `spec`, disarm all (or one `name`), "
        "optionally targeting one worker via `shard`; result `{armed}` lists the armed "
        "sites", mutates=True, sharded=True),
    _op("shutdown", "admin", "", "graceful drain + exit", mutates=True),
    _query("point", "key:any [range:float]", "flat, hierarchical, multisite",
           "estimated frequency"),
    _query("range", "lo:int hi:int [range:float]", "hierarchical", "estimated range sum"),
    _query("heavy_hitters", "[phi:float] [absolute:float] [range:float]", "hierarchical",
           "`[[key, estimate], ...]` sorted by estimate"),
    _query("quantile", "fraction:float [range:float]", "hierarchical", "key at the quantile"),
    _query("quantiles", "fractions:float_list [range:float]", "hierarchical",
           "keys at each fraction"),
    _query("self_join", "[range:float]", "flat, multisite", "second-moment estimate"),
    _query("arrivals", "[range:float]", "flat, hierarchical", "estimated arrival total"),
    _query("staleness", "[now:float]", "multisite", "seconds behind the latest round"),
    _query("root_state", "", "multisite",
           "serialized root aggregate (the router's merge input)"),
    _op("tenant_create", "tenant", "tenant:str [config:object]",
        "tenant stats; `config` may override sketch parameters (`mode`, `epsilon`, "
        "`delta`, `window`, `model`, `counter_type`, `universe_bits`, `sites`, "
        "`period`, `max_arrivals`, `seed`)", mutates=True, http=("PUT", "tenants/{id}")),
    _op("tenant_delete", "tenant", "tenant:str", "`{deleted}`", mutates=True,
        http=("DELETE", "tenants/{id}")),
    _op("tenant_list", "tenant", "",
        "catalog listing: residency, mode, watermarks, snapshot path per tenant",
        http=("GET", "tenants")),
    _op("tenant_stats", "tenant", "tenant:str",
        "live counters (restores the tenant if evicted)", http=("GET", "tenants/{id}")),
    _op("pool_sweep", "tenant", "",
        "immediate expiry sweep + budget enforcement; reports evictions", mutates=True,
        slow=True, http=("POST", "sweep")),
)}


def check_params(op: Op, message: dict[str, Any]) -> None:
    """Reject a message missing a required field or carrying a mistyped one.

    Raises:
        TenantRequiredError: A required ``tenant`` is missing.
        BadRequestError: Any other missing or mistyped field.
    """
    for param in op.params:
        value = message.get(param.name)
        if value is None:
            if param.required:
                error = TenantRequiredError if param.name == "tenant" else BadRequestError
                raise error("%s requires '%s'" % (op.name, param.name), op=op.name)
            continue
        types = _WIRE_TYPES.get(param.wire)
        if types is not None and (
            not isinstance(value, types) or (isinstance(value, bool) and param.wire != "bool")
        ):
            raise BadRequestError(
                "'%s' must be of wire type %s" % (param.name, param.wire), op=op.name
            )


#: Valid tenant ids: path-safe (snapshots are named after them), 1-128 chars.
TENANT_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.:-]{0,127}$")


def require_tenant(tenant: Any) -> str:
    """The ``tenant`` of a pooled request, checked against :data:`TENANT_ID_PATTERN`.

    Raises:
        TenantRequiredError: ``tenant`` is missing.
        InvalidParameterError: ``tenant`` is not a valid tenant id.
    """
    if tenant is None:
        raise TenantRequiredError("this operation requires a 'tenant' on a pooled server")
    if not isinstance(tenant, str) or not TENANT_ID_PATTERN.match(tenant):
        raise InvalidParameterError(
            "tenant ids must match %s, got %r" % (TENANT_ID_PATTERN.pattern, tenant)
        )
    return tenant


def deadline_for(name: Any) -> float | None:
    """Deadline of an op's class: :data:`SLOW_DEADLINE` or ``None`` (default)."""
    op = OPS.get(name)
    return SLOW_DEADLINE if op is not None and op.slow else None


def query_handler(target: object, name: str, mode: str) -> Callable[[dict[str, Any]], Any]:
    """The ``_query_<name>`` method of ``target``, gated by the op's modes.

    Raises:
        UnknownOperationError: ``name`` is not a query op.
        ModeMismatchError: The op is not served in ``mode``.
    """
    op = OPS.get(name)
    if op is None or op.kind != "query":
        raise UnknownOperationError("unknown query op %r" % (name,), op=name)
    if mode not in op.modes:
        raise ModeMismatchError(
            "%s is served in mode %s, not %s" % (name, "/".join(op.modes), mode), op=name
        )
    handler: Callable[[dict[str, Any]], Any] = getattr(target, "_query_" + name)
    return handler
