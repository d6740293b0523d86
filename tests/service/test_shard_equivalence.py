"""Property-based equivalence of the sharded serving tier.

The contract under test: a :class:`~repro.service.router.ShardRouter` over
``N`` shard workers answers like serial :class:`SketchService` state fed the
same trace.

* ``shards=1`` — answers must be **byte-identical** to one unsharded serial
  service: the router adds routing and fan-out plumbing but no approximation.
* ``shards=N`` — answers must equal the same merges computed over ``N``
  independently driven serial references (one per shard, worker-equivalent
  configuration, fed exactly the sub-stream the partition function assigns).
  The references never touch router code, so this catches partitioning,
  ordering and merge bugs rather than re-deriving them.

Random traces sweep window models (time/count) and shard counts
(1, 2, 4, 7) under hypothesis.
"""

from __future__ import annotations

import asyncio
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ServiceConfig, ShardRouter, SketchService, shard_column, shard_of
from repro.service.shard_worker import worker_config
from repro.windows.base import WindowModel

#: Property tests explore large input spaces; run `-m 'not slow'` to skip.
pytestmark = pytest.mark.slow

EPSILON = 0.25
DELTA = 0.2
UNIVERSE_BITS = 6
SHARD_COUNTS = (1, 2, 4, 7)


def run(coroutine):
    return asyncio.run(coroutine)


# --------------------------------------------------------------------------
# Partition-function pins: the manifest records the scheme name, so these
# exact values may never change — a restored shard's key ownership depends
# on them.
# --------------------------------------------------------------------------
class TestPartitionFunction:
    def test_shard_of_stability_pins(self):
        pins = [
            (0, 4, 0),
            (1, 4, 2),
            (7, 4, 0),
            (12345, 4, 3),
            (-3, 4, 1),
            (2**63, 4, 0),
            (0, 7, 0),
            (99, 7, 3),
            ("alpha", 4, 2),
            ("beta", 4, 3),
            ("alpha", 7, 3),
            (b"alpha", 4, 2),
            (3.5, 4, 0),
            (None, 4, 1),
            (True, 4, 2),  # JSON true: hashes like the integer 1
            (1, 4, 2),
        ]
        for key, shards, expected in pins:
            assert shard_of(key, shards) == expected, (key, shards)

    def test_single_shard_is_identity(self):
        for key in (0, -1, "x", None, 3.5):
            assert shard_of(key, 1) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(
            st.one_of(
                st.integers(min_value=-(2**70), max_value=2**70),
                st.text(max_size=8),
            ),
            max_size=200,
        ),
        shards=st.integers(min_value=1, max_value=9),
    )
    def test_shard_column_matches_scalar(self, keys, shards):
        """The vectorized column partitioner equals the scalar function."""
        assert shard_column(keys, shards) == [shard_of(key, shards) for key in keys]

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=2**31), min_size=64, max_size=200),
        shards=st.integers(min_value=2, max_value=9),
    )
    def test_shard_column_vector_path_matches_scalar(self, keys, shards):
        """Columns long enough for the NumPy path still match bit-for-bit."""
        assert shard_column(keys, shards) == [shard_of(key, shards) for key in keys]

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.one_of(
            # Signed and unsigned 64-bit columns, and columns NumPy can only
            # hold as objects or floats (ints beyond 64 bits, or both signs
            # past 2**63): the vector path or the scalar loop, never a lossy
            # conversion.
            st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=64, max_size=200),
            st.lists(st.integers(min_value=-(2**31), max_value=-1), min_size=64, max_size=200),
            st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=64, max_size=200),
            st.lists(st.integers(min_value=-(2**80), max_value=2**80), min_size=64, max_size=200),
            st.lists(st.integers(min_value=2**64, max_value=2**70), min_size=64, max_size=200),
            # JSON ``true``/``false`` hash like the integers 1 and 0, alone
            # and inside an integer column.
            st.lists(st.booleans(), min_size=64, max_size=200),
            st.lists(st.one_of(st.booleans(), st.integers(-5, 5)), min_size=64, max_size=200),
            # Mixed keys take the scalar loop.
            st.lists(
                st.one_of(st.integers(min_value=-(2**70), max_value=2**70), st.text(max_size=8)),
                min_size=64,
                max_size=200,
            ),
        ),
        shards=st.integers(min_value=2, max_value=9),
    )
    def test_shard_column_long_columns_match_scalar(self, keys, shards):
        """Every long column partitions exactly like the scalar function."""
        assert shard_column(keys, shards) == [shard_of(key, shards) for key in keys]


# --------------------------------------------------------------------------
# Trace strategies
# --------------------------------------------------------------------------
def _clocks(model: WindowModel, gaps: list[float], count: int) -> list[float]:
    if model == WindowModel.COUNT_BASED:
        return [float(index + 1) for index in range(count)]
    clock = 0.0
    out = []
    for gap in gaps[:count]:
        clock += gap
        out.append(clock)
    return out


flat_traces = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]),
        st.floats(min_value=0.0, max_value=8.0),
    ),
    min_size=1,
    max_size=120,
)

hier_traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << UNIVERSE_BITS) - 1),
        st.floats(min_value=0.0, max_value=8.0),
    ),
    min_size=1,
    max_size=120,
)

models = st.sampled_from([WindowModel.TIME_BASED, WindowModel.COUNT_BASED])
shard_counts = st.sampled_from(SHARD_COUNTS)


def _config(mode: str, model: WindowModel, shards: int | None) -> ServiceConfig:
    return ServiceConfig(
        mode=mode,
        epsilon=EPSILON,
        delta=DELTA,
        window=40.0,
        model=model,
        universe_bits=UNIVERSE_BITS,
        batch_size=32,
        expire_every=None,
        shards=shards,
        seed=3,
    )


async def _drive(
    config: ServiceConfig, keys: list[Any], clocks: list[float], chunk: int = 17
) -> tuple[ShardRouter, list[SketchService]]:
    """Start router + per-shard serial references, feed both the same trace.

    The references are fed the *partitioned* sub-streams directly — the same
    assignment :func:`shard_of` makes, but through plain serial ingest with
    no router code in the path.
    """
    shards = config.shards or 1
    router = ShardRouter(config, local=True)
    references = [SketchService(worker_config(config, shard)) for shard in range(shards)]
    await router.start()
    for reference in references:
        await reference.start()
    owners = [shard_of(key, shards) for key in keys]
    for offset in range(0, len(keys), chunk):
        stop = offset + chunk
        await router.ingest(keys[offset:stop], clocks[offset:stop])
        per_shard: dict[int, tuple[list[Any], list[float]]] = {}
        for index in range(offset, min(stop, len(keys))):
            bucket = per_shard.setdefault(owners[index], ([], []))
            bucket[0].append(keys[index])
            bucket[1].append(clocks[index])
        for shard, (sub_keys, sub_clocks) in per_shard.items():
            await references[shard].ingest(sub_keys, sub_clocks)
    await router.drain()
    for reference in references:
        await reference.drain()
    return router, references


async def _shutdown(router: ShardRouter, references: list[SketchService]) -> None:
    await router.stop(drain=True)
    for reference in references:
        await reference.stop(drain=True)


def _ref_sum(references: list[SketchService], op: str, message: dict[str, Any]) -> float:
    return float(sum(float(ref.query(op, dict(message))) for ref in references))


# --------------------------------------------------------------------------
# Flat mode
# --------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(trace=flat_traces, model=models, shards=shard_counts)
def test_flat_router_matches_references(trace, model, shards):
    keys = [key for key, _gap in trace]
    clocks = _clocks(model, [gap for _key, gap in trace], len(trace))

    async def body():
        config = _config("flat", model, shards)
        router, references = await _drive(config, keys, clocks)
        try:
            probe_keys = sorted(set(keys)) + ["missing-key"]
            for key in probe_keys:
                served = await router.query("point", {"op": "point", "key": key})
                owner = references[shard_of(key, shards)]
                assert served == owner.query("point", {"op": "point", "key": key})
            assert await router.query("self_join", {"op": "self_join"}) == _ref_sum(
                references, "self_join", {"op": "self_join"}
            )
            assert await router.query("arrivals", {"op": "arrivals"}) == _ref_sum(
                references, "arrivals", {"op": "arrivals"}
            )
            # Windowed variants exercise the expiry path of every shard.
            assert await router.query(
                "self_join", {"op": "self_join", "range": 10.0}
            ) == _ref_sum(references, "self_join", {"op": "self_join", "range": 10.0})
            stats = await router.stats()
            assert stats["records_ingested"] == len(keys)
            assert stats["degraded"] == []
        finally:
            await _shutdown(router, references)

    run(body())


@settings(max_examples=10, deadline=None)
@given(trace=flat_traces, model=models)
def test_flat_single_shard_router_is_byte_identical(trace, model):
    """shards=1 adds plumbing but zero approximation: every answer is equal
    to a *monolithic* serial service (not just a worker-config reference)."""
    keys = [key for key, _gap in trace]
    clocks = _clocks(model, [gap for _key, gap in trace], len(trace))

    async def body():
        router, _ = await _drive(_config("flat", model, 1), keys, clocks)
        serial = SketchService(_config("flat", model, None))
        await serial.start()
        await serial.ingest(keys, clocks)
        await serial.drain()
        try:
            for key in sorted(set(keys)) + ["missing-key"]:
                message = {"op": "point", "key": key}
                assert await router.query("point", message) == serial.query("point", message)
            for message in (
                {"op": "self_join"},
                {"op": "arrivals"},
                {"op": "self_join", "range": 7.5},
            ):
                op = str(message["op"])
                assert await router.query(op, message) == serial.query(op, message)
        finally:
            await router.stop(drain=True)
            await serial.stop(drain=True)

    run(body())


# --------------------------------------------------------------------------
# Hierarchical mode
# --------------------------------------------------------------------------
def _reference_quantile(
    references: list[SketchService], fraction: float, range_length: float | None
) -> int:
    """The router's documented quantile semantics, evaluated over references."""
    message: dict[str, Any] = {"op": "arrivals"}
    if range_length is not None:
        message["range"] = range_length
    total = _ref_sum(references, "arrivals", message)
    target = fraction * total
    lo, hi = 0, (1 << UNIVERSE_BITS) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        probe: dict[str, Any] = {"op": "range", "lo": 0, "hi": mid}
        if range_length is not None:
            probe["range"] = range_length
        if _ref_sum(references, "range", probe) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


@settings(max_examples=25, deadline=None)
@given(
    trace=hier_traces,
    model=models,
    shards=shard_counts,
    phi=st.sampled_from([0.05, 0.2, 0.5]),
)
def test_hierarchical_router_matches_references(trace, model, shards, phi):
    keys = [key for key, _gap in trace]
    clocks = _clocks(model, [gap for _key, gap in trace], len(trace))

    async def body():
        config = _config("hierarchical", model, shards)
        router, references = await _drive(config, keys, clocks)
        try:
            for key in sorted(set(keys))[:16]:
                served = await router.query("point", {"op": "point", "key": key})
                owner = references[shard_of(key, shards)]
                assert served == owner.query("point", {"op": "point", "key": key})
            for lo, hi in ((0, 7), (0, (1 << UNIVERSE_BITS) - 1), (13, 44)):
                message = {"op": "range", "lo": lo, "hi": hi}
                assert await router.query("range", message) == _ref_sum(
                    references, "range", message
                )
            assert await router.query("arrivals", {"op": "arrivals"}) == _ref_sum(
                references, "arrivals", {"op": "arrivals"}
            )

            # Heavy hitters: same absolute threshold, merged detection sets.
            total = _ref_sum(references, "arrivals", {"op": "arrivals"})
            expected = sorted(
                (
                    pair
                    for ref in references
                    for pair in ref.query(
                        "heavy_hitters",
                        {"op": "heavy_hitters", "absolute": phi * total},
                    )
                ),
                key=lambda item: (-item[1], item[0]),
            )
            served_hitters = await router.query(
                "heavy_hitters", {"op": "heavy_hitters", "phi": phi}
            )
            assert [tuple(pair) for pair in served_hitters] == [
                tuple(pair) for pair in expected
            ]

            # Quantiles: the fanned binary search equals the reference search.
            if total > 0.0:
                for fraction in (0.0, 0.25, 0.5, 0.9, 1.0):
                    served = await router.query(
                        "quantile", {"op": "quantile", "fraction": fraction}
                    )
                    assert served == _reference_quantile(references, fraction, None)
                served_multi = await router.query(
                    "quantiles", {"op": "quantiles", "fractions": [0.1, 0.5, 0.99]}
                )
                assert served_multi == [
                    _reference_quantile(references, fraction, None)
                    for fraction in (0.1, 0.5, 0.99)
                ]
        finally:
            await _shutdown(router, references)

    run(body())


@settings(max_examples=10, deadline=None)
@given(trace=hier_traces, model=models)
def test_hierarchical_single_shard_router_is_byte_identical(trace, model):
    keys = [key for key, _gap in trace]
    clocks = _clocks(model, [gap for _key, gap in trace], len(trace))

    async def body():
        router, _ = await _drive(_config("hierarchical", model, 1), keys, clocks)
        serial = SketchService(_config("hierarchical", model, None))
        await serial.start()
        await serial.ingest(keys, clocks)
        await serial.drain()
        try:
            for message in (
                {"op": "range", "lo": 0, "hi": 44},
                {"op": "arrivals"},
                {"op": "heavy_hitters", "phi": 0.2},
                {"op": "quantile", "fraction": 0.5},
                {"op": "quantiles", "fractions": [0.1, 0.9]},
            ):
                op = str(message["op"])
                assert await router.query(op, dict(message)) == serial.query(
                    op, dict(message)
                )
        finally:
            await router.stop(drain=True)
            await serial.stop(drain=True)

    run(body())


# --------------------------------------------------------------------------
# Multisite mode (deterministic: rounds only complete past period boundaries)
# --------------------------------------------------------------------------
class TestMultisiteSharding:
    def _trace(self):
        arrivals = []
        for clock in range(1, 13):
            for site in range(4):
                arrivals.append(("key-%d" % (site % 3), float(clock), site))
        return arrivals

    def test_single_shard_router_matches_serial_coordinator(self):
        async def body():
            shared = dict(mode="multisite", sites=4, period=3.0, window=100.0,
                          epsilon=EPSILON, delta=DELTA, expire_every=None)
            router = ShardRouter(ServiceConfig(shards=1, **shared), local=True)
            serial = SketchService(ServiceConfig(**shared))
            await router.start()
            await serial.start()
            for key, clock, site in self._trace():
                await router.ingest([key], [clock], site=site)
                await serial.ingest([key], [clock], site=site)
            await router.drain()
            await serial.drain()
            try:
                for key in ("key-0", "key-1", "key-2", "nope"):
                    message = {"op": "point", "key": key}
                    assert await router.query("point", message) == serial.query(
                        "point", message
                    )
                assert await router.query("self_join", {"op": "self_join"}) == serial.query(
                    "self_join", {"op": "self_join"}
                )
                message = {"op": "staleness", "now": 12.0}
                assert await router.query("staleness", dict(message)) == serial.query(
                    "staleness", dict(message)
                )
            finally:
                await router.stop(drain=True)
                await serial.stop(drain=True)

        run(body())

    def test_sharded_frequencies_sum_across_site_blocks(self):
        async def body():
            shared = dict(mode="multisite", sites=4, period=3.0, window=100.0,
                          epsilon=EPSILON, delta=DELTA, expire_every=None)
            router = ShardRouter(ServiceConfig(shards=2, **shared), local=True)
            await router.start()
            # References: one coordinator per shard, spanning its site block
            # (sites 0-1 -> shard 0, sites 2-3 -> shard 1).
            references = [
                SketchService(worker_config(ServiceConfig(shards=2, **shared), shard))
                for shard in range(2)
            ]
            for reference in references:
                await reference.start()
            for key, clock, site in self._trace():
                await router.ingest([key], [clock], site=site)
                await references[site // 2].ingest([key], [clock], site=site % 2)
            await router.drain()
            for reference in references:
                await reference.drain()
            try:
                for key in ("key-0", "key-1", "key-2"):
                    message = {"op": "point", "key": key}
                    assert await router.query("point", dict(message)) == _ref_sum(
                        references, "point", message
                    )
                served = await router.query("self_join", {"op": "self_join"})
                assert served > 0.0  # merged cross-block estimate, not a sum
            finally:
                await _shutdown(router, references)

        run(body())
