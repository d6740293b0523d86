"""Tests of the SketchService core: queueing, batching, queries, lifecycle."""

from __future__ import annotations

import asyncio
import inspect

import pytest

from repro.core import ECMSketch
from repro.core.config import CounterType, ECMConfig
from repro.core.errors import ConfigurationError
from repro.distributed.continuous import PeriodicAggregationCoordinator
from repro.queries.hierarchical import HierarchicalECMSketch
from repro.serialization import dumps
from repro.service import (
    IngestRejectedError,
    ServiceConfig,
    ServiceStoppedError,
    SketchService,
)
from repro.service.core import ServiceError
from repro.service.router import ShardRouter
from repro.streams import IntegerZipfTrace, WorldCupSyntheticTrace


def run(coroutine):
    """Drive one async test body to completion."""
    return asyncio.run(coroutine)


async def _awaited(value):
    """``value``, awaited when the router answers with an awaitable."""
    return await value if inspect.isawaitable(value) else value


def flat_config(**overrides) -> ServiceConfig:
    return ServiceConfig(mode="flat", **overrides)


class TestServiceConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(mode="turbo")

    def test_rejects_snapshot_period_without_path(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(snapshot_every=5.0)

    def test_round_trips_through_dict(self):
        config = ServiceConfig(mode="hierarchical", universe_bits=10, epsilon=0.1,
                               snapshot_path="snap.json", snapshot_every=2.0)
        assert ServiceConfig.from_dict(config.to_dict()) == config

    def test_describe_is_mode_specific(self):
        assert "universe_bits" in ServiceConfig(mode="hierarchical").describe()
        assert "sites" in ServiceConfig(mode="multisite").describe()
        flat = ServiceConfig(mode="flat").describe()
        assert "universe_bits" not in flat and "sites" not in flat


class TestFlatIngestAndQueries:
    def test_service_state_matches_serial_reference(self):
        """Chunked concurrent-path ingest is byte-identical to serial add_many."""
        trace = WorldCupSyntheticTrace(num_records=4_000).generate()
        keys = [record.key for record in trace]
        clocks = [record.timestamp for record in trace]

        async def body():
            service = SketchService(flat_config(batch_size=256))
            async with service:
                # Many small, unevenly sized chunks — the ingest loop coalesces.
                position = 0
                size = 1
                while position < len(keys):
                    stop = min(len(keys), position + size)
                    await service.ingest(keys[position:stop], clocks[position:stop])
                    position = stop
                    size = (size * 3) % 97 + 1
                await service.drain()
                return dumps(service.state), service.records_ingested

        service_bytes, ingested = run(body())
        reference = ECMSketch(ECMConfig.for_point_queries(
            epsilon=0.05, delta=0.05, window=1_000_000.0))
        reference.add_many(keys, clocks)
        assert ingested == len(keys)
        assert service_bytes == dumps(reference)

    def test_queries_between_batches(self):
        async def body():
            async with SketchService(flat_config()) as service:
                await service.ingest(["a", "b", "a", "a"], [1.0, 2.0, 3.0, 4.0])
                await service.drain()
                point = service.query("point", {"key": "a"})
                self_join = service.query("self_join", {})
                arrivals = service.query("arrivals", {})
                return point, self_join, arrivals

        point, self_join, arrivals = run(body())
        assert point == 3.0
        assert self_join == 10.0
        assert arrivals == 4.0

    def test_weighted_ingest(self):
        async def body():
            async with SketchService(flat_config()) as service:
                await service.ingest(["a", "b"], [1.0, 2.0], values=[5, 2])
                await service.drain()
                return service.records_ingested, service.query("point", {"key": "a"})

        ingested, point = run(body())
        assert ingested == 7
        assert point == 5.0

    def test_stats_shape(self):
        async def body():
            async with SketchService(flat_config()) as service:
                await service.ingest(["a"], [1.0])
                await service.drain()
                return service.stats(), service.info()

        stats, info = run(body())
        assert stats["records_ingested"] == 1
        assert stats["pending_arrivals"] == 0
        assert stats["applied_clock"] == 1.0
        assert stats["memory_bytes"] > 0
        assert stats["mode"] == info["mode"] == "flat"

    def test_expire_now_is_a_no_op_for_answers(self):
        async def body():
            async with SketchService(flat_config(window=10.0)) as service:
                await service.ingest(["a"] * 5, [1.0, 2.0, 3.0, 11.5, 12.0])
                await service.drain()
                before = service.query("point", {"key": "a"})
                service.expire_now()
                after = service.query("point", {"key": "a"})
                return before, after

        before, after = run(body())
        assert before == after


class TestIngestValidation:
    def test_rejects_out_of_order_chunks(self):
        async def body():
            async with SketchService(flat_config()) as service:
                await service.ingest(["a"], [10.0])
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["b"], [9.0])
                # The rejected chunk left no trace: ingest continues cleanly.
                await service.ingest(["c"], [10.0])
                await service.drain()
                return service.records_ingested

        assert run(body()) == 2

    def test_rejects_internal_clock_regression(self):
        async def body():
            async with SketchService(flat_config()) as service:
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["a", "b"], [5.0, 4.0])

        run(body())

    def test_rejects_length_mismatch_and_empty(self):
        async def body():
            async with SketchService(flat_config()) as service:
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["a", "b"], [1.0])
                with pytest.raises(IngestRejectedError):
                    await service.ingest([], [])
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["a"], [1.0], values=[1, 2])
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["a"], [1.0], values=[-1])

        run(body())

    def test_rejects_weights_beyond_int64_before_the_ack(self):
        # Acked, a weight of 2**63 would reach the sketch with no client
        # left to tell; the chunk is rejected and ingest carries on.
        async def body():
            async with SketchService(flat_config()) as service:
                values = [1] * 39 + [2**63]
                with pytest.raises(IngestRejectedError, match="2\\*\\*63"):
                    await service.ingest(["k%d" % i for i in range(40)], [1.0] * 40, values=values)
                await service.ingest(["a"], [2.0], values=[3])
                await service.drain()
                return service.records_ingested, service.state.total_arrivals()

        assert run(body()) == (3, 3)

    def test_hierarchical_rejects_out_of_universe_keys(self):
        async def body():
            config = ServiceConfig(mode="hierarchical", universe_bits=4)
            async with SketchService(config) as service:
                with pytest.raises(IngestRejectedError):
                    await service.ingest([16], [1.0])
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["a"], [1.0])
                await service.ingest([15], [1.0])

        run(body())

    def test_multisite_rejects_bad_site(self):
        async def body():
            config = ServiceConfig(mode="multisite", sites=2, period=100.0)
            async with SketchService(config) as service:
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["a"], [1.0], site=2)

        run(body())

    @pytest.mark.parametrize("served", ["service", "router"])
    def test_eh_rejects_int_clocks_beyond_2_53_before_the_ack(self, served):
        """Acked, the clock would fail in the EH store: an apply error and
        no arrival, with the client told it was accepted."""

        async def body():
            shards = 2 if served == "router" else None
            config = flat_config(shards=shards)
            target = ShardRouter(config, local=True) if shards else SketchService(config)
            async with target:
                with pytest.raises(IngestRejectedError, match="2\\*\\*53") as excinfo:
                    await target.ingest(["a"], [2**60 + 1])
                assert excinfo.type is IngestRejectedError
                await target.ingest(["a", "b"], [2**53, 2**53])
                await target.drain()
                stats = await _awaited(target.stats())
                return stats["ingest_apply_errors"], stats["records_ingested"]

        assert run(body()) == (0, 2)

    @pytest.mark.parametrize("counter", [CounterType.DETERMINISTIC_WAVE, CounterType.RANDOMIZED_WAVE])
    def test_wave_services_ack_and_apply_big_int_clocks(self, counter):
        async def body():
            config = flat_config(counter_type=counter, max_arrivals=1000)
            async with SketchService(config) as service:
                await service.ingest(["a"], [2**60 + 1])
                await service.drain()
                stats = service.stats()
                return stats["ingest_apply_errors"], stats["records_ingested"]

        assert run(body()) == (0, 1)

    @pytest.mark.parametrize("served", ["service", "router"])
    def test_multisite_rejects_a_bool_site(self, served):
        """JSON ``true`` is not site 1, in-process either."""

        async def body():
            shards = 2 if served == "router" else None
            config = ServiceConfig(mode="multisite", sites=2, period=100.0, shards=shards)
            target = ShardRouter(config, local=True) if shards else SketchService(config)
            async with target:
                with pytest.raises(IngestRejectedError, match="site"):
                    await target.ingest(["a"], [1.0], site=True)
                assert await target.ingest(["a"], [1.0], site=1) == 1

        run(body())

    def test_stopped_service_rejects_ingest(self):
        async def body():
            service = SketchService(flat_config())
            await service.start()
            await service.stop()
            with pytest.raises(ServiceStoppedError):
                await service.ingest(["a"], [1.0])

        run(body())


class TestBackpressure:
    def test_bounded_queue_suspends_producers(self):
        """With a tiny queue, a flood of puts cannot run ahead of the consumer."""

        async def body():
            config = flat_config(queue_chunks=2, batch_size=8)
            async with SketchService(config) as service:
                clock = 0.0
                for _ in range(64):
                    clock += 1.0
                    await service.ingest(["k"], [clock])
                    # The queue bound holds at every instant.
                    assert service.stats()["pending_chunks"] <= 2
                await service.drain()
                return service.records_ingested

        assert run(body()) == 64


class TestHierarchicalQueries:
    def test_hierarchical_query_surface(self):
        trace = IntegerZipfTrace(num_records=3_000, universe_bits=10, seed=3).generate()
        keys = [record.key for record in trace]
        clocks = [record.timestamp for record in trace]

        async def body():
            config = ServiceConfig(mode="hierarchical", universe_bits=10, epsilon=0.02)
            async with SketchService(config) as service:
                for start in range(0, len(keys), 512):
                    await service.ingest(keys[start:start + 512], clocks[start:start + 512])
                await service.drain()
                point = service.query("point", {"key": keys[0]})
                rng = service.query("range", {"lo": 0, "hi": 1023})
                hitters = service.query("heavy_hitters", {"phi": 0.05})
                median = service.query("quantile", {"fraction": 0.5})
                deciles = service.query("quantiles", {"fractions": [0.25, 0.5, 0.75]})
                return point, rng, hitters, median, deciles

        point, rng, hitters, median, deciles = run(body())
        reference = HierarchicalECMSketch(universe_bits=10, epsilon=0.02, delta=0.05,
                                          window=1_000_000.0)
        reference.add_many(keys, clocks)
        assert point == reference.point_query(keys[0])
        assert rng == reference.range_query(0, 1023)
        assert dict(hitters) == reference.heavy_hitters(0.05)
        assert median == reference.quantile(0.5)
        assert deciles == reference.quantiles([0.25, 0.5, 0.75])

    def test_mode_mismatch_is_rejected(self):
        async def body():
            async with SketchService(flat_config()) as service:
                with pytest.raises(ServiceError):
                    service.query("heavy_hitters", {"phi": 0.1})
                with pytest.raises(ServiceError):
                    service.query("quantile", {"fraction": 0.5})
            config = ServiceConfig(mode="hierarchical", universe_bits=4)
            async with SketchService(config) as service:
                with pytest.raises(ServiceError):
                    service.query("self_join", {})
                # arrivals is served in hierarchical mode too (estimate_total
                # over the leaf level) — the sharded router fans it out.
                assert service.query("arrivals", {}) == 0.0

        run(body())

    def test_unknown_op_and_missing_params(self):
        async def body():
            async with SketchService(flat_config()) as service:
                with pytest.raises(ServiceError):
                    service.query("frobnicate", {})
                with pytest.raises(ServiceError):
                    service.query("point", {})

        run(body())


class TestMultisiteMode:
    def test_rounds_match_direct_coordinator(self):
        """Service-path multisite ingest reproduces the coordinator exactly."""
        trace = WorldCupSyntheticTrace(num_records=3_000, num_nodes=3).generate()
        records = list(trace)

        async def body():
            config = ServiceConfig(mode="multisite", sites=3, period=100_000.0,
                                   batch_size=256)
            async with SketchService(config) as service:
                # Chunks per contiguous same-site run, exactly as the reference
                # coordinator routes per-record arrivals.
                start = 0
                for index in range(1, len(records) + 1):
                    if index == len(records) or records[index].node % 3 != records[start].node % 3:
                        segment = records[start:index]
                        await service.ingest(
                            [r.key for r in segment],
                            [r.timestamp for r in segment],
                            site=segment[0].node % 3,
                        )
                        start = index
                await service.drain()
                coordinator = service.state
                return (
                    coordinator.stats.rounds,
                    service.query("point", {"key": records[0].key}),
                    service.query("self_join", {}),
                    service.query("staleness", {"now": records[-1].timestamp}),
                )

        rounds, point, self_join, staleness = run(body())
        reference = PeriodicAggregationCoordinator(
            num_nodes=3,
            config=ECMConfig.for_point_queries(epsilon=0.05, delta=0.05,
                                               window=1_000_000.0),
            period=100_000.0,
        )
        for record in records:
            reference.observe(record.node % 3, record.key, record.timestamp, record.value)
        assert rounds == reference.stats.rounds > 0
        assert point == reference.query_frequency(records[0].key)
        assert self_join == reference.query_self_join()
        assert staleness == reference.staleness(records[-1].timestamp)

    def test_chunks_spanning_several_rounds_match_per_arrival_observe(self):
        """Rounds inside one chunk fire where per-arrival ``observe`` fires them."""
        trace = WorldCupSyntheticTrace(num_records=8_000, num_nodes=1).generate()
        keys, clocks, _ = trace.columns()
        values = [1 + index % 3 for index in range(len(keys))]
        period = 10_000.0
        chunk = 2_000  # ~250k clock units: each chunk crosses ~25 rounds

        async def body():
            config = ServiceConfig(mode="multisite", sites=1, period=period, batch_size=256)
            async with SketchService(config) as service:
                for start in range(0, len(keys), chunk):
                    stop = start + chunk
                    await service.ingest(
                        keys[start:stop], clocks[start:stop], values=values[start:stop]
                    )
                await service.drain()
                return service.state

        served = run(body())
        reference = PeriodicAggregationCoordinator(
            num_nodes=1,
            config=ECMConfig.for_point_queries(epsilon=0.05, delta=0.05, window=1_000_000.0),
            period=period,
        )
        for key, clock, value in zip(keys, clocks, values, strict=True):
            reference.observe(0, key, clock, value)
        assert reference.stats.rounds > 4 * len(keys) // chunk
        assert served.stats.round_clocks == reference.stats.round_clocks
        assert served.stats.arrivals == reference.stats.arrivals == len(keys)
        for mine, theirs in zip(served.nodes, reference.nodes, strict=True):
            assert dumps(mine.sketch) == dumps(theirs.sketch)
        assert dumps(served.root_sketch()) == dumps(reference.root_sketch())


class TestReviewRegressions:
    """Pins for review findings: bad input must die at validation, not apply."""

    def test_rejects_unhashable_keys_before_ack(self):
        """A JSON list/dict key must be rejected, not kill the consumer task."""

        async def body():
            async with SketchService(flat_config()) as service:
                with pytest.raises(IngestRejectedError):
                    await service.ingest([["not", "hashable"]], [1.0])
                with pytest.raises(IngestRejectedError):
                    await service.ingest([{"k": 1}], [1.0])
                # The consumer is alive and the service keeps working.
                await service.ingest(["ok"], [2.0])
                await service.drain()
                assert service.query("point", {"key": "ok"}) == 1.0
                assert service.stats()["ingest_apply_errors"] == 0

        run(body())

    def test_rejects_non_finite_clocks(self):
        """NaN passes no ordering comparison, so it must never enter the queue."""

        async def body():
            async with SketchService(flat_config()) as service:
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["a"], [float("nan")])
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["a"], [float("inf")])
                # The high-water mark survived the rejected chunks.
                await service.ingest(["a"], [1.0])
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["b"], [0.5])

        run(body())

    def test_apply_failure_does_not_kill_the_consumer(self):
        """Defense in depth: a bug slipping past validation drops one batch,
        counts it, and leaves the service serving."""

        async def body():
            async with SketchService(flat_config()) as service:
                # Hashable at validation time, but poisonous inside add_many's
                # NumPy path: a tuple key is hashable yet add_many handles it
                # fine — so instead inject the failure directly.
                original = service._apply_chunks
                calls = {"n": 0}

                def exploding(chunks):
                    calls["n"] += 1
                    if calls["n"] == 1:
                        raise RuntimeError("injected apply bug")
                    return original(chunks)

                service._apply_chunks = exploding
                await service.ingest(["lost"], [1.0])
                await service.drain()  # must not deadlock
                await service.ingest(["kept"], [2.0])
                await service.drain()
                stats = service.stats()
                assert stats["ingest_apply_errors"] == 1
                assert stats["pending_arrivals"] == 0
                assert service.query("point", {"key": "kept"}) == 1.0

        run(body())

    def test_partial_apply_failure_keeps_pending_accounting_exact(self):
        """A failure after some groups applied must not double-decrement."""

        async def body():
            # batch_size must exceed one chunk so the consumer coalesces the
            # two 4-record chunks into a single _apply_chunks call.
            async with SketchService(flat_config(batch_size=16)) as service:
                original = service._apply_chunks
                state = {"armed": False}

                def partial(chunks):
                    if state["armed"] and len(chunks) > 1:
                        original(chunks[:1])  # first group lands...
                        raise RuntimeError("injected failure on the second group")
                    return original(chunks)

                service._apply_chunks = partial
                # Prime one applied record, then arm and enqueue two chunks
                # that the consumer will coalesce into one batch.
                await service.ingest(["warm"], [1.0])
                await service.drain()
                state["armed"] = True
                await service.ingest(["a"] * 4, [2.0, 3.0, 4.0, 5.0])
                await service.ingest(["b"] * 4, [6.0, 7.0, 8.0, 9.0])
                await service.drain()
                stats = service.stats()
                assert stats["pending_arrivals"] == 0, stats
                assert stats["ingest_apply_errors"] >= 1
                # And the service still serves.
                await service.ingest(["c"], [10.0])
                await service.drain()
                assert stats["pending_arrivals"] == 0

        run(body())

    def test_concurrent_snapshots_serialize(self, tmp_path):
        """Overlapping snapshot_async calls must not roll the file back."""

        async def body():
            config = flat_config(snapshot_path=str(tmp_path / "s.json"))
            async with SketchService(config) as service:
                await service.ingest(["a"], [1.0])
                await service.drain()
                paths = await asyncio.gather(*(service.snapshot_async() for _ in range(5)))
                assert service.snapshots_written == 5
                assert set(paths) == {str(tmp_path / "s.json")}
                restored = SketchService.from_snapshot(paths[0])
                assert restored.records_ingested == 1

        run(body())

    def test_large_chunk_vectorized_clock_validation(self):
        """The >=64-element NumPy validation path matches the scalar one."""

        async def body():
            async with SketchService(flat_config()) as service:
                good = [float(i) for i in range(200)]
                await service.ingest(["k"] * 200, good)
                bad_order = [float(i) for i in range(200)]
                bad_order[100] = 10.0  # regression inside the chunk
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["k"] * 200, bad_order)
                bad_nan = [300.0 + i for i in range(200)]
                bad_nan[50] = float("nan")
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["k"] * 200, bad_nan)
                below_watermark = [50.0 + i for i in range(200)]
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["k"] * 200, below_watermark)
                mixed = [500.0 + i for i in range(200)]
                mixed[7] = "not-a-clock"
                with pytest.raises(IngestRejectedError):
                    await service.ingest(["k"] * 200, mixed)
                await service.drain()
                assert service.records_ingested == 200

        run(body())
