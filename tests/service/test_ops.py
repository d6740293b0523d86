"""Tests of the protocol op table (``repro.service.ops``).

The table is the one description of the protocol, so these tests hold the
things derived from it — and the hand-written ``docs/api.md`` — to it: the
documented op and error tables, the ``_query_<op>`` handlers of both query
tiers, the dispatcher's gates and the deadline classes.
"""

from __future__ import annotations

import asyncio
import inspect
import re
from pathlib import Path

import pytest

from repro.service import (
    ERROR_CODES,
    STATUS_FOR_CODE,
    ServiceConfig,
    SketchService,
    dispatch_service_op,
)
from repro.service.errors import (
    BadRequestError,
    ModeMismatchError,
    PoolDisabledError,
    UnknownOperationError,
)
from repro.service.ops import OPS, SLOW_DEADLINE, deadline_for
from repro.service.router import ShardRouter

API_DOC = Path(__file__).resolve().parents[2] / "docs" / "api.md"

_SECTION_KINDS = {
    "### Lifecycle and admin": "admin",
    "### Queries": "query",
    "### Tenant lifecycle (pooled servers)": "tenant",
}


def _doc_tables() -> dict[str, list[list[str]]]:
    """Rows (as cell lists) of every ``| `x` | ...`` table, by heading."""
    tables: dict[str, list[list[str]]] = {}
    heading = ""
    for line in API_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            heading = line.strip()
        elif re.match(r"^\|\s*`", line):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            tables.setdefault(heading, []).append(cells)
    return tables


class TestApiDoc:
    def test_op_tables_match_the_op_table(self):
        tables = _doc_tables()
        documented = {}
        for heading, kind in _SECTION_KINDS.items():
            for row in tables[heading]:
                name = row[0].strip("`")
                documented[name] = (kind, row)
        assert set(documented) == set(OPS)
        for name, (kind, row) in documented.items():
            op = OPS[name]
            assert op.kind == kind, name
            # Query rows leave out the `tenant` every query takes (the
            # section's preamble says so).
            expected = [
                param.name
                for param in op.params
                if not (kind == "query" and param.name == "tenant")
            ]
            assert re.findall(r"`(\w+)`", row[1]) == expected, name
            assert row[-1] == op.result, name
            if kind == "query":
                assert row[2] == ", ".join(op.modes), name

    def test_route_table_names_every_routed_op(self):
        rows = _doc_tables()["## REST routes (`repro gateway`)"]
        named = {token for row in rows for token in re.findall(r"`(\w+)`", row[1])}
        # Query ops share the generic `.../query/{op}` rows.
        routed = {name for name, op in OPS.items() if op.http and op.kind != "query"}
        assert named & set(OPS) == routed

    def test_error_table_matches_the_registry(self):
        rows = {row[0].strip("`"): row for row in _doc_tables()["## Error codes"]}
        assert set(rows) == set(STATUS_FOR_CODE)
        for code, row in rows.items():
            assert int(row[1]) == STATUS_FOR_CODE[code], code
        for code, entry in ERROR_CODES.items():
            assert rows[code][2] == entry.description, code


class TestQueryHandlers:
    @pytest.mark.parametrize("target", [SketchService, ShardRouter])
    def test_every_query_op_has_a_handler(self, target):
        handlers = {
            name[len("_query_"):]
            for name, member in inspect.getmembers(target, callable)
            if name.startswith("_query_")
        }
        queries = {name for name, op in OPS.items() if op.kind == "query"}
        assert handlers == queries

    @pytest.mark.parametrize("mode", ["flat", "hierarchical", "multisite"])
    def test_modes_gate_both_tiers(self, mode):
        service = SketchService(ServiceConfig(mode=mode))
        router = ShardRouter(ServiceConfig(mode=mode, shards=2), local=True)
        for name, op in OPS.items():
            if op.kind != "query" or mode in op.modes:
                continue
            with pytest.raises(ModeMismatchError):
                service.query(name, {})
            with pytest.raises(ModeMismatchError):
                asyncio.run(router.query(name, {}))

    def test_non_query_ops_are_not_queries(self):
        service = SketchService(ServiceConfig(mode="flat"))
        for name, op in OPS.items():
            if op.kind != "query":
                with pytest.raises(UnknownOperationError):
                    service.query(name, {})


class TestDispatchGates:
    def dispatch(self, message):
        return asyncio.run(dispatch_service_op(SketchService(ServiceConfig()), message))

    def test_shutdown_is_the_front_ends_op(self):
        with pytest.raises(UnknownOperationError):
            self.dispatch({"op": "shutdown"})

    def test_tenant_ops_need_a_pool(self):
        for name, op in OPS.items():
            if op.kind == "tenant":
                with pytest.raises(PoolDisabledError):
                    self.dispatch({"op": name})

    @pytest.mark.parametrize(
        "message",
        [
            {"op": "ingest", "keys": "ab", "clocks": [1.0, 2.0]},
            {"op": "ingest", "clocks": [1.0]},
            {"op": "ingest", "keys": ["a"], "clocks": [1.0], "site": True},
            {"op": "snapshot", "path": 7},
            {"op": "restart_shard"},
            {"op": "failpoint", "name": 3, "disarm": True},
        ],
    )
    def test_wire_types_are_checked(self, message):
        with pytest.raises(BadRequestError):
            self.dispatch(message)


def test_slow_deadline_class():
    slow = {name for name in OPS if deadline_for(name) == SLOW_DEADLINE}
    assert slow == {"drain", "snapshot", "restart_shard", "pool_sweep"}
    assert deadline_for("point") is None
    assert deadline_for("no-such-op") is None
