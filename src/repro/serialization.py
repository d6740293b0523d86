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
  for sockets, message queues or files.

Round-tripping is exact: a deserialized structure answers every query with the
same result as the original and can keep ingesting new arrivals.
"""

from __future__ import annotations

import json
import numbers
from collections import deque
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from .core.config import CounterType, ECMConfig
from .core.countmin import CountMinSketch
from .core.ecm_sketch import ECMSketch
from .core.errors import ConfigurationError
from .windows.base import WindowModel
from .windows.deterministic_wave import DeterministicWave, WaveCheckpoint
from .windows.exponential_histogram import Bucket, ExponentialHistogram
from .windows.randomized_wave import RandomizedWave, _Entry

if TYPE_CHECKING:
    # Imported where a stack is (de)serialized: flat snapshots never load
    # the hierarchy.
    from .queries.heavy_hitters import FrequentItemsTracker
    from .queries.hierarchical import HierarchicalECMSketch

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
    "dumps",
    "loads",
]

#: Version tag embedded in every serialized payload.
FORMAT_VERSION = 1


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
def histogram_to_dict(histogram: ExponentialHistogram) -> dict[str, Any]:
    """Serialize an exponential histogram to a plain dictionary."""
    return {
        "kind": "exponential_histogram",
        "version": FORMAT_VERSION,
        "epsilon": histogram.epsilon,
        "window": histogram.window,
        "model": histogram.model.value,
        "total_arrivals": histogram.total_arrivals(),
        "last_clock": histogram.last_clock,
        "buckets": [
            [bucket.size, bucket.start, bucket.end]
            for bucket in histogram.buckets_oldest_first()
        ],
    }


def histogram_from_dict(payload: dict[str, Any]) -> ExponentialHistogram:
    """Rebuild an exponential histogram serialized by :func:`histogram_to_dict`.

    Raises :class:`ConfigurationError` for buckets no exponential histogram
    can hold: a size that is not a positive power of two, or a size-1 bucket
    whose ``start`` and ``end`` differ.
    """
    _require(payload, "exponential_histogram")
    histogram = ExponentialHistogram(
        epsilon=payload["epsilon"],
        window=payload["window"],
        model=WindowModel(payload["model"]),
    )
    # Restore the bucket list verbatim instead of replaying arrivals: the
    # structure on the wire is already the structure we want in memory.
    for size, start, end in payload["buckets"]:
        if not isinstance(size, numbers.Integral) or isinstance(size, bool) or size <= 0 or size & (size - 1):
            raise ConfigurationError(
                "exponential-histogram bucket sizes must be positive powers of two; got %r" % (size,)
            )
        if size == 1 and start != end:
            raise ConfigurationError(
                "a size-1 bucket holds one arrival, so its start and end must match; "
                "got start=%r, end=%r" % (start, end)
            )
        level = int(size).bit_length() - 1
        while len(histogram._levels) <= level:
            histogram._levels.append(deque())
        histogram._levels[level].append(Bucket(size=int(size), start=start, end=end))
        histogram._in_window_upper += int(size)
    histogram._total_arrivals = int(payload["total_arrivals"])
    histogram._last_clock = payload["last_clock"]
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


def ecm_sketch_to_dict(sketch: ECMSketch) -> dict[str, Any]:
    """Serialize a whole ECM-sketch (configuration plus every counter)."""
    serialize_counter, _ = _COUNTER_SERIALIZERS[sketch.counter_type]
    return {
        "kind": "ecm_sketch",
        "version": FORMAT_VERSION,
        "config": config_to_dict(sketch.config),
        "stream_tag": sketch.stream_tag,
        "total_arrivals": sketch.total_arrivals(),
        "last_clock": sketch.last_clock,
        "effective_epsilon_sw": sketch.effective_epsilon_sw,
        "counters": [
            [serialize_counter(sketch.counter(row, column)) for column in range(sketch.width)]
            for row in range(sketch.depth)
        ],
    }


def ecm_sketch_from_dict(payload: dict[str, Any]) -> ECMSketch:
    """Rebuild an ECM-sketch serialized by :func:`ecm_sketch_to_dict`."""
    _require(payload, "ecm_sketch")
    config = config_from_dict(payload["config"])
    sketch = ECMSketch(config, stream_tag=int(payload["stream_tag"]))
    _, deserialize_counter = _COUNTER_SERIALIZERS[config.counter_type]
    counters = payload["counters"]
    if len(counters) != sketch.depth or any(len(row) != sketch.width for row in counters):
        raise ConfigurationError("counter grid shape does not match the configuration")
    for row in range(sketch.depth):
        for column in range(sketch.width):
            sketch._set_counter(row, column, deserialize_counter(counters[row][column]))
    sketch._total_arrivals = int(payload["total_arrivals"])
    sketch._last_clock = payload["last_clock"]
    sketch.effective_epsilon_sw = payload["effective_epsilon_sw"]
    return sketch


# -------------------------------------------------------- hierarchical stacks
def hierarchical_to_dict(stack: HierarchicalECMSketch) -> dict[str, Any]:
    """Serialize a hierarchical (dyadic) stack: one ECM-sketch per level."""
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
        "levels": [
            ecm_sketch_to_dict(stack.level_sketch(level))
            for level in range(stack.universe_bits)
        ],
    }


def hierarchical_from_dict(payload: dict[str, Any]) -> HierarchicalECMSketch:
    """Rebuild a stack serialized by :func:`hierarchical_to_dict`."""
    _require(payload, "hierarchical_ecm_sketch")
    universe_bits = int(payload["universe_bits"])
    levels = payload["levels"]
    if len(levels) != universe_bits:
        raise ConfigurationError(
            "level count %d does not match universe_bits %d"
            % (len(levels), universe_bits)
        )
    from .queries.hierarchical import HierarchicalECMSketch

    stack = HierarchicalECMSketch.__new__(HierarchicalECMSketch)
    stack.universe_bits = universe_bits
    stack.window = payload["window"]
    stack.model = WindowModel(payload["model"])
    stack.counter_type = CounterType(payload["counter_type"])
    stack.seed = int(payload["seed"])
    stack.stream_tag = int(payload["stream_tag"])
    stack._levels = [ecm_sketch_from_dict(level) for level in levels]
    stack._total_arrivals = int(payload["total_arrivals"])
    stack._last_clock = payload["last_clock"]
    return stack


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
_TO_DICT: dict[type, Callable[[Any], dict[str, Any]]] = {
    ExponentialHistogram: histogram_to_dict,
    DeterministicWave: wave_to_dict,
    RandomizedWave: randomized_wave_to_dict,
    CountMinSketch: countmin_to_dict,
    ECMSketch: ecm_sketch_to_dict,
}

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


def _stack_serializers() -> dict[type, Callable[[Any], dict[str, Any]]]:
    """The :mod:`repro.queries` serializers, keyed by classes imported here."""
    from .queries.heavy_hitters import FrequentItemsTracker
    from .queries.hierarchical import HierarchicalECMSketch

    return {HierarchicalECMSketch: hierarchical_to_dict, FrequentItemsTracker: tracker_to_dict}


def to_dict(obj: Serializable | ECMConfig) -> dict[str, Any]:
    """Serialize any wire-format structure to its tagged dictionary form.

    Type-dispatching twin of :func:`dumps` without the JSON layer — callers
    that embed sketches inside larger documents (e.g. the sketch service's
    snapshots) compose payloads from this and encode once at the end.
    """
    if isinstance(obj, ECMConfig):
        return config_to_dict(obj)
    serializer = _TO_DICT.get(type(obj)) or _stack_serializers().get(type(obj))
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


def dumps(obj: Serializable | ECMConfig) -> bytes:
    """Serialize a sketch, synopsis or configuration to JSON bytes."""
    return json.dumps(to_dict(obj), separators=(",", ":")).encode("utf-8")


def loads(data: bytes) -> Serializable | ECMConfig:
    """Deserialize JSON bytes produced by :func:`dumps`."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError("payload is not valid JSON: %s" % (exc,)) from exc
    return from_dict(payload)
