"""Serialization of sketches and sliding-window synopses.

The distributed algorithms of the paper ship synopses over the network: local
ECM-sketches travel up the aggregation tree (Section 5.3), randomized waves
are unioned at the coordinator (Section 5.2), and the geometric method
broadcasts estimate vectors (Section 6.2).  This module provides an explicit,
versioned wire format for all of those structures so that deployments can
actually move them between processes:

* ``*_to_dict`` / ``*_from_dict`` — lossless conversion to plain Python
  dictionaries (JSON-compatible scalars, lists and dicts only);
* :func:`dumps` / :func:`loads` — JSON byte strings with a type tag, suitable
  for sockets, message queues or files;
* :func:`to_json_pieces` — the text of :func:`dumps` as pieces, ECM-sketches
  and stacks encoded one counter at a time, for writers that stream it;
* :func:`read_ecm_sketch` / :func:`read_hierarchical` — the ``*_from_dict``
  rebuild straight from a :class:`~repro.jsonstream.JSONStream`, decoding
  one counter at a time, for readers that stream it.

Round-tripping is exact: a deserialized structure answers every query with the
same result as the original and can keep ingesting new arrivals.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING, Any

from .core.config import CounterType, ECMConfig
from .core.ecm_sketch import ECMSketch
from .core.errors import ConfigurationError
from .windows.base import WindowModel, _require_real, is_int_clock

if TYPE_CHECKING:
    # Imported where a structure of their type is (de)serialized: flat
    # snapshots load neither the hierarchy nor the wave and Count-Min codecs.
    from .core.countmin import CountMinSketch
    from .jsonstream import JSONStream
    from .queries.heavy_hitters import FrequentItemsTracker
    from .queries.hierarchical import HierarchicalECMSketch
    from .windows.columnar_eh import ColumnarEHStore
    from .windows.deterministic_wave import DeterministicWave
    from .windows.exponential_histogram import ExponentialHistogram
    from .windows.randomized_wave import RandomizedWave

    Serializable = (
        ExponentialHistogram
        | DeterministicWave
        | RandomizedWave
        | CountMinSketch
        | ECMSketch
        | HierarchicalECMSketch
        | FrequentItemsTracker
    )

__all__ = [
    "FORMAT_VERSION",
    "histogram_to_dict",
    "histogram_from_dict",
    "wave_to_dict",
    "wave_from_dict",
    "randomized_wave_to_dict",
    "randomized_wave_from_dict",
    "countmin_to_dict",
    "countmin_from_dict",
    "config_to_dict",
    "config_from_dict",
    "ecm_sketch_to_dict",
    "ecm_sketch_from_dict",
    "hierarchical_to_dict",
    "hierarchical_from_dict",
    "tracker_to_dict",
    "tracker_from_dict",
    "to_dict",
    "from_dict",
    "to_json_pieces",
    "read_ecm_sketch",
    "read_hierarchical",
    "dumps",
    "loads",
]

#: Version tag embedded in every serialized payload.
FORMAT_VERSION = 1


def _encode(payload: Any) -> str:
    """Compact JSON text, the encoding of every serialized payload."""
    return json.dumps(payload, separators=(",", ":"))


def _require(payload: dict[str, Any], kind: str) -> None:
    if payload.get("kind") != kind:
        raise ConfigurationError(
            "expected a %r payload, got %r" % (kind, payload.get("kind"))
        )
    if payload.get("version") != FORMAT_VERSION:
        raise ConfigurationError(
            "unsupported serialization version %r (this build reads version %d)"
            % (payload.get("version"), FORMAT_VERSION)
        )


# -------------------------------------------------------- exponential histogram
def _histogram_dict(
    counter: ExponentialHistogram | ColumnarEHStore, total: int, last_clock: Any, buckets: list[Any]
) -> dict[str, Any]:
    """A :func:`histogram_to_dict` payload; ``buckets`` oldest first."""
    return {
        "kind": "exponential_histogram",
        "version": FORMAT_VERSION,
        "epsilon": counter.epsilon,
        "window": counter.window,
        "model": counter.model.value,
        "total_arrivals": total,
        "last_clock": last_clock,
        "buckets": buckets,
    }


def histogram_to_dict(histogram: ExponentialHistogram) -> dict[str, Any]:
    """Serialize an exponential histogram to a plain dictionary."""
    buckets = [[bucket.size, bucket.start, bucket.end] for bucket in histogram.buckets_oldest_first()]
    return _histogram_dict(histogram, histogram.total_arrivals(), histogram.last_clock, buckets)


def _histogram_buckets(
    payload: dict[str, Any], like: ColumnarEHStore | None = None
) -> tuple[list[int], list[Any], list[Any], int, Any, bool]:
    """The level, start and end of each bucket of a :func:`histogram_to_dict`
    payload, its total arrivals and last clock, and whether it holds a clock
    that is not an int (then every clock loads float).

    It makes the checks :func:`histogram_from_dict` documents.  With
    ``like``, the payload's epsilon, window and model must also be its.
    """
    _require(payload, "exponential_histogram")
    last_clock = payload["last_clock"]
    int_clocks = last_clock is None or is_int_clock(last_clock)
    if not int_clocks:
        _require_real(last_clock, "an exponential histogram's last clock")
    levels, starts, ends = [], [], []
    for size, start, end in payload["buckets"]:
        # An int but not a bool (``is_int_clock`` skips the ABC check for an int).
        if not is_int_clock(size) or size <= 0 or size & (size - 1):
            raise ConfigurationError(
                "exponential-histogram bucket sizes must be positive powers of two; got %r" % (size,)
            )
        if size == 1 and start != end:
            raise ConfigurationError(
                "a size-1 bucket holds one arrival, so its start and end must match; "
                "got start=%r, end=%r" % (start, end)
            )
        if not (int_clocks and is_int_clock(start) and is_int_clock(end)):
            int_clocks = False
            _require_real(start, "an exponential-histogram bucket start")
            _require_real(end, "an exponential-histogram bucket end")
        levels.append(int(size).bit_length() - 1)
        starts.append(start)
        ends.append(end)
    header = (payload["epsilon"], payload["window"], payload["model"])
    if like is not None and header != (like.epsilon, like.window, like.model.value):
        raise ConfigurationError(
            "cannot load a counter with different epsilon/window/model into a columnar store"
        )
    return levels, starts, ends, int(payload["total_arrivals"]), last_clock, not int_clocks


def histogram_from_dict(payload: dict[str, Any]) -> ExponentialHistogram:
    """Rebuild an exponential histogram serialized by :func:`histogram_to_dict`.

    A payload holding any clock that is not an int loads float, as the
    histogram would have been promoted by it (older payloads could mix).

    Raises :class:`ConfigurationError` for buckets no exponential histogram
    can hold: a size that is not a positive power of two, a size-1 bucket
    whose ``start`` and ``end`` differ, or a clock that is not a real number.
    """
    levels, starts, ends, total, last_clock, float_clocks = _histogram_buckets(payload)
    from .windows.exponential_histogram import Bucket, ExponentialHistogram

    histogram = ExponentialHistogram(
        epsilon=payload["epsilon"],
        window=payload["window"],
        model=WindowModel(payload["model"]),
    )
    # Restore the bucket list verbatim instead of replaying arrivals: the
    # structure on the wire is already the structure we want in memory.
    histogram._levels = [deque() for _ in range(max(levels, default=-1) + 1)]
    for level, start, end in zip(levels, starts, ends, strict=True):
        histogram._levels[level].append(Bucket(size=1 << level, start=start, end=end))
    histogram._in_window_upper = sum(1 << level for level in levels)
    histogram._total_arrivals = total
    histogram._last_clock = last_clock
    if float_clocks:
        histogram._promote()
    return histogram


# ------------------------------------------------------------ deterministic wave
def wave_to_dict(wave: DeterministicWave) -> dict[str, Any]:
    """Serialize a deterministic wave to a plain dictionary."""
    return {
        "kind": "deterministic_wave",
        "version": FORMAT_VERSION,
        "epsilon": wave.epsilon,
        "window": wave.window,
        "model": wave.model.value,
        "max_arrivals": wave.max_arrivals,
        "total_arrivals": wave.total_arrivals(),
        "last_clock": wave.last_clock,
        "levels": [
            [[checkpoint.clock, checkpoint.rank] for checkpoint in level]
            for level in wave.levels_snapshot()
        ],
    }


def wave_from_dict(payload: dict[str, Any]) -> DeterministicWave:
    """Rebuild a deterministic wave serialized by :func:`wave_to_dict`."""
    _require(payload, "deterministic_wave")
    from .windows.deterministic_wave import DeterministicWave, WaveCheckpoint

    wave = DeterministicWave(
        epsilon=payload["epsilon"],
        window=payload["window"],
        max_arrivals=int(payload["max_arrivals"]),
        model=WindowModel(payload["model"]),
    )
    for index, level in enumerate(payload["levels"]):
        if index >= wave.num_levels:
            break
        wave._levels[index] = deque(
            WaveCheckpoint(clock=clock, rank=int(rank)) for clock, rank in level
        )
    wave._total_arrivals = int(payload["total_arrivals"])
    wave._last_clock = payload["last_clock"]
    return wave


# -------------------------------------------------------------- randomized wave
def randomized_wave_to_dict(wave: RandomizedWave) -> dict[str, Any]:
    """Serialize a randomized wave (including its sampled entries)."""
    copies = []
    for copy in wave._copies:
        copies.append(
            {
                "hash_a": copy.hash_a,
                "hash_b": copy.hash_b,
                "capacity_horizon": [
                    None if horizon == float("-inf") else horizon
                    for horizon in copy.capacity_horizon
                ],
                "levels": [
                    [[entry.clock, entry.uid_hash] for entry in level]
                    for level in copy.levels
                ],
            }
        )
    return {
        "kind": "randomized_wave",
        "version": FORMAT_VERSION,
        "epsilon": wave.epsilon,
        "delta": wave.delta,
        "window": wave.window,
        "model": wave.model.value,
        "max_arrivals": wave.max_arrivals,
        "seed": wave.seed,
        "stream_tag": wave.stream_tag,
        "capacity_constant": wave.capacity_constant,
        "total_arrivals": wave.total_arrivals(),
        "last_clock": wave.last_clock,
        "copies": copies,
    }


def randomized_wave_from_dict(payload: dict[str, Any]) -> RandomizedWave:
    """Rebuild a randomized wave serialized by :func:`randomized_wave_to_dict`."""
    _require(payload, "randomized_wave")
    from .windows.randomized_wave import RandomizedWave, _Entry

    wave = RandomizedWave(
        epsilon=payload["epsilon"],
        delta=payload["delta"],
        window=payload["window"],
        max_arrivals=int(payload["max_arrivals"]),
        model=WindowModel(payload["model"]),
        seed=int(payload["seed"]),
        stream_tag=int(payload["stream_tag"]),
        capacity_constant=payload["capacity_constant"],
    )
    if len(payload["copies"]) != len(wave._copies):
        raise ConfigurationError("copy count mismatch in randomized-wave payload")
    for copy, copy_payload in zip(wave._copies, payload["copies"], strict=False):
        copy.hash_a = int(copy_payload["hash_a"])
        copy.hash_b = int(copy_payload["hash_b"])
        copy.capacity_horizon = [
            float("-inf") if horizon is None else horizon
            for horizon in copy_payload["capacity_horizon"]
        ]
        for index, level in enumerate(copy_payload["levels"]):
            if not level or index >= copy.num_levels:
                continue
            copy._levels[index] = deque(
                _Entry(clock=clock, uid_hash=int(uid_hash)) for clock, uid_hash in level
            )
    wave._total_arrivals = int(payload["total_arrivals"])
    wave._last_clock = payload["last_clock"]
    return wave


# ------------------------------------------------------------------- Count-Min
def countmin_to_dict(sketch: CountMinSketch) -> dict[str, Any]:
    """Serialize a plain Count-Min sketch."""
    return {
        "kind": "countmin",
        "version": FORMAT_VERSION,
        "width": sketch.width,
        "depth": sketch.depth,
        "seed": sketch.seed,
        "total": sketch.total(),
        "counters": sketch.counters(),
    }


def countmin_from_dict(payload: dict[str, Any]) -> CountMinSketch:
    """Rebuild a Count-Min sketch serialized by :func:`countmin_to_dict`."""
    _require(payload, "countmin")
    from .core.countmin import CountMinSketch

    sketch = CountMinSketch(
        width=int(payload["width"]), depth=int(payload["depth"]), seed=int(payload["seed"])
    )
    sketch._counters = [[float(v) for v in row] for row in payload["counters"]]
    sketch._total = float(payload["total"])
    return sketch


# ------------------------------------------------------------------ ECM config
def config_to_dict(config: ECMConfig) -> dict[str, Any]:
    """Serialize an :class:`ECMConfig`."""
    return {
        "kind": "ecm_config",
        "version": FORMAT_VERSION,
        "epsilon_cm": config.epsilon_cm,
        "epsilon_sw": config.epsilon_sw,
        "delta": config.delta,
        "delta_sw": config.delta_sw,
        "window": config.window,
        "model": config.model.value,
        "counter_type": config.counter_type.value,
        "max_arrivals": config.max_arrivals,
        "seed": config.seed,
        "width": config.width,
        "depth": config.depth,
    }


def config_from_dict(payload: dict[str, Any]) -> ECMConfig:
    """Rebuild an :class:`ECMConfig` serialized by :func:`config_to_dict`."""
    _require(payload, "ecm_config")
    return ECMConfig(
        epsilon_cm=payload["epsilon_cm"],
        epsilon_sw=payload["epsilon_sw"],
        delta=payload["delta"],
        delta_sw=payload["delta_sw"],
        window=payload["window"],
        model=WindowModel(payload["model"]),
        counter_type=CounterType(payload["counter_type"]),
        max_arrivals=payload["max_arrivals"],
        seed=int(payload["seed"]),
        width=int(payload["width"]),
        depth=int(payload["depth"]),
    )


# ------------------------------------------------------------------ ECM sketch
_COUNTER_SERIALIZERS: dict[
    CounterType,
    tuple[Callable[[Any], dict[str, Any]], Callable[[dict[str, Any]], Any]],
] = {
    CounterType.EXPONENTIAL_HISTOGRAM: (histogram_to_dict, histogram_from_dict),
    CounterType.DETERMINISTIC_WAVE: (wave_to_dict, wave_from_dict),
    CounterType.RANDOMIZED_WAVE: (randomized_wave_to_dict, randomized_wave_from_dict),
}


def _ecm_sketch_envelope(sketch: ECMSketch) -> dict[str, Any]:
    """Every key of an ECM-sketch payload but ``counters``, which comes last."""
    return {
        "kind": "ecm_sketch",
        "version": FORMAT_VERSION,
        "config": config_to_dict(sketch.config),
        "stream_tag": sketch.stream_tag,
        "total_arrivals": sketch.total_arrivals(),
        "last_clock": sketch.last_clock,
        "effective_epsilon_sw": sketch.effective_epsilon_sw,
    }


def _counter_codec(
    sketch: ECMSketch,
) -> tuple[Callable[[int], dict[str, Any]], Callable[[int, dict[str, Any]], None]]:
    """Serializer and loader of one counter of ``sketch`` by flat cell index:
    a columnar grid's arrays, or the object grid's counter type's codec."""
    if sketch.backend == "columnar":
        store: ColumnarEHStore = sketch._store  # type: ignore[assignment]
        return store.cell_payload, store.load_payload
    to_dict, from_dict = _COUNTER_SERIALIZERS[sketch.counter_type]
    return (
        lambda cell: to_dict(sketch.counter(*divmod(cell, sketch.width))),
        lambda cell, payload: sketch._set_counter(*divmod(cell, sketch.width), from_dict(payload)),
    )


def ecm_sketch_to_dict(sketch: ECMSketch) -> dict[str, Any]:
    """Serialize a whole ECM-sketch (configuration plus every counter)."""
    serialize_counter, _ = _counter_codec(sketch)
    payload = _ecm_sketch_envelope(sketch)
    payload["counters"] = [
        [serialize_counter(row * sketch.width + column) for column in range(sketch.width)]
        for row in range(sketch.depth)
    ]
    return payload


def _ecm_sketch_pieces(sketch: ECMSketch) -> Iterator[str]:
    """The JSON text of :func:`ecm_sketch_to_dict`, encoded one counter at a time.

    A generator: each counter goes through its serializer and ``json.dumps``
    only when the piece before it has been taken, so neither the grid as
    nested dictionaries nor its text as a whole ever exists.
    """
    serialize_counter, _ = _counter_codec(sketch)
    envelope = _encode(_ecm_sketch_envelope(sketch))
    yield envelope[:-1] + ',"counters":['
    for row in range(sketch.depth):
        opening = "[" if row == 0 else "],["
        for column in range(sketch.width):
            yield opening + _encode(serialize_counter(row * sketch.width + column))
            opening = ","
    yield "]]}"


_ECM_SKETCH_HEAD = frozenset(["kind", "version", "config", "stream_tag"])


def _ecm_sketch_shell(payload: dict[str, Any]) -> ECMSketch:
    """The empty sketch an ECM-sketch payload describes."""
    _require(payload, "ecm_sketch")
    config = config_from_dict(payload["config"])
    return ECMSketch(config, stream_tag=int(payload["stream_tag"]))


def _load_counters(sketch: ECMSketch, rows: Iterable[Iterable[dict[str, Any]]]) -> None:
    """Load every counter of ``sketch`` from a grid of payloads, one at a time."""
    _, load_counter = _counter_codec(sketch)
    mismatch = "counter grid shape does not match the configuration"
    loaded = 0  # row-major: the flat index of the next cell
    for row, counters in enumerate(rows):
        for column, counter in enumerate(counters):
            if row >= sketch.depth or column >= sketch.width:
                raise ConfigurationError(mismatch)
            load_counter(loaded, counter)
            loaded += 1
        if loaded != (row + 1) * sketch.width:
            raise ConfigurationError(mismatch)
    if loaded != sketch.depth * sketch.width:
        raise ConfigurationError(mismatch)


def _finish_ecm_sketch(sketch: ECMSketch, payload: dict[str, Any]) -> ECMSketch:
    sketch._total_arrivals = int(payload["total_arrivals"])
    sketch._last_clock = payload["last_clock"]
    sketch.effective_epsilon_sw = payload["effective_epsilon_sw"]
    return sketch


def ecm_sketch_from_dict(payload: dict[str, Any]) -> ECMSketch:
    """Rebuild an ECM-sketch serialized by :func:`ecm_sketch_to_dict`."""
    sketch = _ecm_sketch_shell(payload)
    _load_counters(sketch, payload["counters"])
    return _finish_ecm_sketch(sketch, payload)


def _stream_grid(stream: JSONStream) -> Iterator[Iterable[dict[str, Any]]]:
    """The rows of the counter grid at the cursor, each decoded a counter at a time."""
    for _ in stream.items():
        if stream.peek() == "[":
            yield (stream.value() for _ in stream.items())
        else:
            yield stream.value()


def read_ecm_sketch(stream: JSONStream) -> ECMSketch:
    """:func:`ecm_sketch_from_dict` of the payload at the cursor, a counter at a time.

    The counters are decoded and loaded one by one when the keys that
    describe the sketch (``kind``, ``version``, ``config``, ``stream_tag``)
    come before them, as :func:`ecm_sketch_to_dict` writes them; a payload
    in another key order is decoded whole.  Either way the result and the
    errors are those of :func:`ecm_sketch_from_dict`.
    """
    if stream.peek() != "{":
        return ecm_sketch_from_dict(stream.value())
    fields: dict[str, Any] = {}
    sketch: ECMSketch | None = None
    for key in stream.keys():
        if (
            key == "counters"
            and sketch is None
            and _ECM_SKETCH_HEAD <= fields.keys()
            and stream.peek() == "["
        ):
            sketch = _ecm_sketch_shell(fields)
            _load_counters(sketch, _stream_grid(stream))
        else:
            fields[key] = stream.value()
    if sketch is None:
        return ecm_sketch_from_dict(fields)
    return _finish_ecm_sketch(sketch, fields)


# -------------------------------------------------------- hierarchical stacks
def _hierarchical_envelope(stack: HierarchicalECMSketch) -> dict[str, Any]:
    """Every key of a stack payload but ``levels``, which comes last."""
    return {
        "kind": "hierarchical_ecm_sketch",
        "version": FORMAT_VERSION,
        "universe_bits": stack.universe_bits,
        "window": stack.window,
        "model": stack.model.value,
        "counter_type": stack.counter_type.value,
        "seed": stack.seed,
        "stream_tag": stack.stream_tag,
        "total_arrivals": stack.total_arrivals(),
        "last_clock": stack._last_clock,
    }


def hierarchical_to_dict(stack: HierarchicalECMSketch) -> dict[str, Any]:
    """Serialize a hierarchical (dyadic) stack: one ECM-sketch per level."""
    payload = _hierarchical_envelope(stack)
    payload["levels"] = [
        ecm_sketch_to_dict(stack.level_sketch(level)) for level in range(stack.universe_bits)
    ]
    return payload


def _hierarchical_pieces(stack: HierarchicalECMSketch) -> Iterator[str]:
    """The JSON text of :func:`hierarchical_to_dict`, one counter after another."""
    envelope = _encode(_hierarchical_envelope(stack))
    yield envelope[:-1] + ',"levels":['
    for level in range(stack.universe_bits):
        pieces = _ecm_sketch_pieces(stack.level_sketch(level))
        yield ("," if level else "") + next(pieces)
        yield from pieces
    yield "]}"


_HIERARCHICAL_HEAD = frozenset(["kind", "version", "universe_bits"])


def _level_count_error(levels: int, universe_bits: int) -> ConfigurationError:
    return ConfigurationError(
        "level count %d does not match universe_bits %d" % (levels, universe_bits)
    )


def _hierarchical_stack(payload: dict[str, Any], levels: list[ECMSketch]) -> HierarchicalECMSketch:
    """The stack a payload describes, over its already rebuilt level sketches."""
    from .queries.hierarchical import HierarchicalECMSketch

    stack = HierarchicalECMSketch.__new__(HierarchicalECMSketch)
    stack.universe_bits = int(payload["universe_bits"])
    stack.window = payload["window"]
    stack.model = WindowModel(payload["model"])
    stack.counter_type = CounterType(payload["counter_type"])
    stack.seed = int(payload["seed"])
    stack.stream_tag = int(payload["stream_tag"])
    stack._levels = levels
    stack._total_arrivals = int(payload["total_arrivals"])
    stack._last_clock = payload["last_clock"]
    return stack


def hierarchical_from_dict(payload: dict[str, Any]) -> HierarchicalECMSketch:
    """Rebuild a stack serialized by :func:`hierarchical_to_dict`."""
    _require(payload, "hierarchical_ecm_sketch")
    universe_bits = int(payload["universe_bits"])
    levels = payload["levels"]
    if len(levels) != universe_bits:
        raise _level_count_error(len(levels), universe_bits)
    return _hierarchical_stack(payload, [ecm_sketch_from_dict(level) for level in levels])


def read_hierarchical(stream: JSONStream) -> HierarchicalECMSketch:
    """:func:`hierarchical_from_dict` of the payload at the cursor, a counter at a time.

    Each level is rebuilt by :func:`read_ecm_sketch` when ``kind``,
    ``version`` and ``universe_bits`` come before ``levels``; a payload in
    another key order is decoded whole.
    """
    if stream.peek() != "{":
        return hierarchical_from_dict(stream.value())
    fields: dict[str, Any] = {}
    levels: list[ECMSketch] | None = None
    for key in stream.keys():
        if (
            key == "levels"
            and levels is None
            and _HIERARCHICAL_HEAD <= fields.keys()
            and stream.peek() == "["
        ):
            _require(fields, "hierarchical_ecm_sketch")
            universe_bits = int(fields["universe_bits"])
            levels = [read_ecm_sketch(stream) for _ in stream.items()]
            if len(levels) != universe_bits:
                raise _level_count_error(len(levels), universe_bits)
        else:
            fields[key] = stream.value()
    if levels is None:
        return hierarchical_from_dict(fields)
    return _hierarchical_stack(fields, levels)


# ------------------------------------------------------- frequent-items tracker
def tracker_to_dict(tracker: FrequentItemsTracker) -> dict[str, Any]:
    """Serialize a keyed frequent-items tracker (sketch stack + dictionary).

    The key dictionary travels as the decoding list (keys in code order), so
    only JSON-scalar keys — strings, integers, floats, booleans, ``None`` —
    round-trip losslessly.  Richer hashables (tuples, frozensets, ...) are
    rejected here, at serialize time, rather than producing a payload that
    can never be loaded back.
    """
    for key in tracker._decoding:
        if key is not None and not isinstance(key, (str, int, float)):
            raise ConfigurationError(
                "tracker keys must be JSON scalars (str/int/float/bool/None) "
                "to serialize; got %r" % (type(key).__name__,)
            )
    return {
        "kind": "frequent_items_tracker",
        "version": FORMAT_VERSION,
        "sketch": hierarchical_to_dict(tracker.sketch()),
        "keys": list(tracker._decoding),
    }


def tracker_from_dict(payload: dict[str, Any]) -> FrequentItemsTracker:
    """Rebuild a tracker serialized by :func:`tracker_to_dict`."""
    _require(payload, "frequent_items_tracker")
    from .queries.heavy_hitters import FrequentItemsTracker

    tracker = FrequentItemsTracker.__new__(FrequentItemsTracker)
    tracker._sketch = hierarchical_from_dict(payload["sketch"])
    tracker._decoding = list(payload["keys"])
    try:
        tracker._encoding = {key: code for code, key in enumerate(tracker._decoding)}
    except TypeError as exc:
        raise ConfigurationError(
            "tracker payload contains unhashable keys: %s" % (exc,)
        ) from exc
    if len(tracker._encoding) != len(tracker._decoding):
        raise ConfigurationError("tracker payload contains duplicate keys")
    return tracker


# ------------------------------------------------------------------- JSON layer
_FROM_DICT: dict[str, Callable[[dict[str, Any]], Any]] = {
    "exponential_histogram": histogram_from_dict,
    "deterministic_wave": wave_from_dict,
    "randomized_wave": randomized_wave_from_dict,
    "countmin": countmin_from_dict,
    "ecm_sketch": ecm_sketch_from_dict,
    "ecm_config": config_from_dict,
    "hierarchical_ecm_sketch": hierarchical_from_dict,
    "frequent_items_tracker": tracker_from_dict,
}


def _serializers() -> dict[type, Callable[[Any], dict[str, Any]]]:
    """Every serializer but the config's, keyed by classes imported here."""
    from .core.countmin import CountMinSketch
    from .queries.heavy_hitters import FrequentItemsTracker
    from .queries.hierarchical import HierarchicalECMSketch
    from .windows.deterministic_wave import DeterministicWave
    from .windows.exponential_histogram import ExponentialHistogram
    from .windows.randomized_wave import RandomizedWave

    return {
        ExponentialHistogram: histogram_to_dict,
        DeterministicWave: wave_to_dict,
        RandomizedWave: randomized_wave_to_dict,
        CountMinSketch: countmin_to_dict,
        ECMSketch: ecm_sketch_to_dict,
        HierarchicalECMSketch: hierarchical_to_dict,
        FrequentItemsTracker: tracker_to_dict,
    }


def to_dict(obj: Serializable | ECMConfig) -> dict[str, Any]:
    """Serialize any wire-format structure to its tagged dictionary form.

    Type-dispatching twin of :func:`dumps` without the JSON layer.  Callers
    that embed large sketches inside larger documents (the sketch service's
    snapshots) use :func:`to_json_pieces` instead.
    """
    if isinstance(obj, ECMConfig):
        return config_to_dict(obj)
    serializer = _serializers().get(type(obj))
    if serializer is None:
        raise ConfigurationError("cannot serialize objects of type %r" % (type(obj),))
    return serializer(obj)


def from_dict(payload: dict[str, Any]) -> Serializable | ECMConfig:
    """Rebuild any structure from its tagged dictionary form (see :func:`to_dict`)."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ConfigurationError("payload is missing the 'kind' tag")
    deserializer = _FROM_DICT.get(payload["kind"])
    if deserializer is None:
        raise ConfigurationError("unknown payload kind %r" % (payload["kind"],))
    return deserializer(payload)


def to_json_pieces(obj: Serializable | ECMConfig) -> Iterator[str]:
    """The JSON text of :func:`to_dict` as pieces that join into :func:`dumps`.

    ECM-sketches and stacks are encoded one counter per piece, and lazily:
    a caller that writes each piece out before taking the next (the sketch
    service's snapshots) holds one counter's text at a time.  The object
    must not change until the last piece is taken.
    """
    if isinstance(obj, ECMSketch):
        return _ecm_sketch_pieces(obj)
    from .queries.hierarchical import HierarchicalECMSketch

    if isinstance(obj, HierarchicalECMSketch):
        return _hierarchical_pieces(obj)
    return iter([_encode(to_dict(obj))])


def dumps(obj: Serializable | ECMConfig) -> bytes:
    """Serialize a sketch, synopsis or configuration to JSON bytes."""
    return "".join(to_json_pieces(obj)).encode("utf-8")


def loads(data: bytes) -> Serializable | ECMConfig:
    """Deserialize JSON bytes produced by :func:`dumps`."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError("payload is not valid JSON: %s" % (exc,)) from exc
    return from_dict(payload)
