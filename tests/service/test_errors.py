"""Tests of the typed error layer: envelopes, registry, wire round-trips."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import ConfigurationError, EmptyStructureError
from repro.service import (
    ERROR_CODES,
    STATUS_FOR_CODE,
    ServiceClient,
    ServiceConfig,
    SketchServer,
    SketchService,
    error_envelope,
    exception_for_error,
    status_for_code,
)
from repro.service.errors import (
    ClockRegressionError,
    InvalidParameterError,
    ModeMismatchError,
    PoolDisabledError,
    ServiceRequestError,
    TenantNotFoundError,
    UnknownOperationError,
    VersionMismatchError,
)
from repro.service.protocol import PROTOCOL_MAJOR, decode_line, encode_message


def run(coroutine):
    return asyncio.run(coroutine)


class TestEnvelopeBuilding:
    def test_every_registered_code_round_trips(self):
        for code, (cls, _status, description) in ERROR_CODES.items():
            assert description, code
            exc = cls("boom", op="ingest")
            envelope = error_envelope(exc)
            # INTERNAL is the base-class catch-all; every other class pins
            # its own code.
            if code != "INTERNAL":
                assert envelope == {"code": code, "message": "boom", "op": "ingest"}
            rebuilt = exception_for_error(envelope)
            assert type(rebuilt) is cls
            assert rebuilt.code == envelope["code"]
            assert rebuilt.op == "ingest"

    def test_foreign_exceptions_map_to_stable_codes(self):
        assert error_envelope(ConfigurationError("x"))["code"] == "INVALID_PARAMETER"
        assert error_envelope(EmptyStructureError("x"))["code"] == "EMPTY_STRUCTURE"
        assert error_envelope(TypeError("x"))["code"] == "BAD_REQUEST"
        assert error_envelope(ValueError("x"))["code"] == "BAD_REQUEST"
        assert error_envelope(RuntimeError("x"))["code"] == "INTERNAL"

    def test_explicit_op_wins_over_exception_op(self):
        assert error_envelope(ModeMismatchError("x"), op="range")["op"] == "range"

    def test_subclass_codes(self):
        # CLOCK_REGRESSION specialises INGEST_REJECTED: catching the broad
        # class still works, the code stays the specific one.
        envelope = error_envelope(ClockRegressionError("late"))
        assert envelope["code"] == "CLOCK_REGRESSION"


class TestExceptionForError:
    def test_unknown_code_is_preserved(self):
        exc = exception_for_error({"code": "FUTURE_THING", "message": "m", "op": None})
        assert type(exc) is ServiceRequestError
        assert exc.code == "FUTURE_THING"

    def test_legacy_string_error(self):
        exc = exception_for_error("plain old error text")
        assert type(exc) is ServiceRequestError
        assert "plain old error text" in str(exc)

    def test_prefix_names_the_shard(self):
        exc = exception_for_error(
            {"code": "TENANT_NOT_FOUND", "message": "unknown tenant 'x'"}, prefix="shard 3"
        )
        assert isinstance(exc, TenantNotFoundError)
        assert str(exc).startswith("shard 3: ")


class TestStatusTable:
    def test_every_registered_code_has_a_status(self):
        for code in ERROR_CODES:
            assert code in STATUS_FOR_CODE, code

    def test_routing_codes_have_statuses(self):
        assert status_for_code("NOT_FOUND") == 404
        assert status_for_code("METHOD_NOT_ALLOWED") == 405

    def test_unknown_code_is_a_500(self):
        assert status_for_code("SOMETHING_NEW") == 500
        assert status_for_code(None) == 500


class TestWireRoundTrips:
    """The server's envelope rebuilds the same typed exception client-side."""

    def test_typed_exceptions_over_the_wire(self):
        async def body():
            service = SketchService(ServiceConfig(mode="flat"))
            async with (
                SketchServer(service) as server,
                await ServiceClient.connect(port=server.port) as client,
            ):
                with pytest.raises(UnknownOperationError):
                    await client.request({"op": "no-such-op"})
                with pytest.raises(InvalidParameterError):
                    await client.request({"op": "point"})  # missing key
                with pytest.raises(ModeMismatchError):
                    await client.heavy_hitters(phi=0.1)  # flat mode
                with pytest.raises(PoolDisabledError):
                    await client.point("a", tenant="alpha")  # no pool
                with pytest.raises(ClockRegressionError):
                    await client.ingest(["a", "b"], [5.0, 1.0])
                # The connection survives every rejected request.
                assert await client.ping() == "pong"

        run(body())

    def test_sharded_only_ops_are_a_mode_mismatch(self):
        """restart_shard and a shard-targeted failpoint need a sharded
        server; anywhere else they fail MODE_MISMATCH, not INTERNAL."""

        async def body():
            service = SketchService(ServiceConfig(mode="flat"))
            async with (
                SketchServer(service) as server,
                await ServiceClient.connect(port=server.port) as client,
            ):
                with pytest.raises(ModeMismatchError):
                    await client.restart_shard(0)
                with pytest.raises(ModeMismatchError):
                    await client.failpoint(spec="server.respond=sleep:0", shard=0)
                # Without 'shard' the failpoint op serves this process.
                assert await client.failpoint(disarm=True) == {"armed": {}}

        run(body())

    def test_handshake_rejects_wrong_major(self):
        async def body():
            service = SketchService(ServiceConfig(mode="flat"))
            async with SketchServer(service) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                wrong = "%d.0" % (PROTOCOL_MAJOR + 1)
                writer.write(encode_message({"op": "hello", "protocol_version": wrong}))
                await writer.drain()
                response = decode_line((await reader.readline())[:-1])
                assert response["ok"] is False
                assert response["error"]["code"] == "VERSION_MISMATCH"
                writer.close()
                await writer.wait_closed()

        run(body())

    def test_client_connect_handshake_succeeds(self):
        async def body():
            service = SketchService(ServiceConfig(mode="flat"))
            async with SketchServer(service) as server:
                client = await ServiceClient.connect(port=server.port)
                from repro.service.protocol import PROTOCOL_VERSION

                assert client.server_protocol_version == PROTOCOL_VERSION
                info = await client.get_info()
                assert info.protocol_version == PROTOCOL_VERSION
                await client.close()

        run(body())

    def test_connect_wraps_pre_handshake_servers(self):
        """A server that answers hello with an error (as a pre-2.0 server
        answers any unknown op) is reported as a version mismatch."""

        async def legacy_server(reader, writer):
            await reader.readline()
            writer.write(encode_message({"ok": False, "error": "unknown op 'hello'"}))
            await writer.drain()
            writer.close()

        async def body():
            server = await asyncio.start_server(legacy_server, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(VersionMismatchError):
                    await ServiceClient.connect(port=port)
            finally:
                server.close()
                await server.wait_closed()

        run(body())
