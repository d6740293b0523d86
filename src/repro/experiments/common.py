"""Shared plumbing of the experiment runners (Section 7 reproduction).

Every experiment in the paper uses the same ingredients: a data set (wc'98 or
snmp), a sliding window of one million seconds, exponentially increasing query
ranges, the three ECM-sketch variants (ECM-EH, ECM-DW, ECM-RW) and the
observed-error methodology of :mod:`repro.analysis.metrics`.  This module
centralises those ingredients so that the per-figure runners stay small and
the benchmarks stay thin wrappers.

Scale note: the real traces carry 10^8–10^9 records; the synthetic stand-ins
default to a few tens of thousands so every experiment runs in seconds on a
laptop.  All runners accept a ``num_records`` override for larger runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import CounterType, ECMConfig
from ..core.ecm_sketch import ECMSketch
from ..core.errors import ConfigurationError
from ..streams.generators import SnmpSyntheticTrace, WorldCupSyntheticTrace
from ..streams.stream import Stream
from ..windows.base import WindowModel

__all__ = [
    "PAPER_WINDOW_SECONDS",
    "DEFAULT_EPSILONS",
    "DEFAULT_DELTA",
    "VARIANT_LABELS",
    "DatasetSpec",
    "dataset_specs",
    "load_dataset",
    "experiment_config",
    "build_sketch",
    "max_arrivals_bound",
]

#: The paper monitors a sliding window of one million seconds (~11.5 days).
PAPER_WINDOW_SECONDS = 1_000_000.0

#: Epsilon sweep of Figures 4 and 5.
DEFAULT_EPSILONS = (0.05, 0.10, 0.15, 0.20, 0.25)

#: Failure probability used throughout Section 7.
DEFAULT_DELTA = 0.1

#: Human-readable labels of the sketch variants, as used in the paper's plots.
VARIANT_LABELS: dict[CounterType, str] = {
    CounterType.EXPONENTIAL_HISTOGRAM: "ECM-EH",
    CounterType.DETERMINISTIC_WAVE: "ECM-DW",
    CounterType.RANDOMIZED_WAVE: "ECM-RW",
}


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one synthetic data set used by the experiments."""

    name: str
    num_nodes: int
    domain_size: int
    zipf_exponent: float
    default_records: int


def dataset_specs() -> dict[str, DatasetSpec]:
    """The two data sets of the paper, at reproduction scale."""
    return {
        "wc98": DatasetSpec(
            name="wc98", num_nodes=33, domain_size=2_000, zipf_exponent=1.1, default_records=30_000
        ),
        "snmp": DatasetSpec(
            name="snmp", num_nodes=535, domain_size=3_000, zipf_exponent=0.9, default_records=30_000
        ),
    }


def load_dataset(name: str, num_records: int | None = None, seed: int = 7) -> Stream:
    """Generate the named synthetic data set.

    Args:
        name: ``"wc98"`` or ``"snmp"``.
        num_records: Trace length; defaults to the spec's reproduction scale.
        seed: Generator seed (fixed by default so experiments are repeatable).
    """
    specs = dataset_specs()
    if name not in specs:
        raise ConfigurationError("unknown dataset %r (expected one of %s)" % (name, sorted(specs)))
    spec = specs[name]
    records = num_records if num_records is not None else spec.default_records
    if name == "wc98":
        return WorldCupSyntheticTrace(
            num_records=records,
            num_nodes=spec.num_nodes,
            domain_size=spec.domain_size,
            zipf_exponent=spec.zipf_exponent,
            duration=PAPER_WINDOW_SECONDS,
            seed=seed,
        ).generate()
    return SnmpSyntheticTrace(
        num_records=records,
        num_nodes=spec.num_nodes,
        domain_size=spec.domain_size,
        zipf_exponent=spec.zipf_exponent,
        duration=PAPER_WINDOW_SECONDS,
        seed=seed,
    ).generate()


def max_arrivals_bound(stream: Stream, safety_factor: float = 2.0) -> int:
    """A conservative ``u(N, S)`` bound for wave-based counters.

    The paper notes that only loose bounds are available in practice (they use
    "one event per millisecond"); we use the trace length times a safety
    factor, which is similarly conservative at reproduction scale.
    """
    return max(16, int(len(stream) * safety_factor))


def experiment_config(
    counter_type: CounterType,
    epsilon: float,
    window: float,
    max_arrivals: int,
    query_type: str = "point",
    seed: int = 0,
    delta: float = DEFAULT_DELTA,
) -> ECMConfig:
    """The time-based configuration of one ECM-sketch variant for a query type.

    ``query_type`` is ``"point"``, ``"self-join"`` or ``"inner-product"``; it
    selects the memory-optimal epsilon split of Section 4.1, which is why the
    paper's Figure 4 shows different memory costs for the two query types at
    the same total epsilon.
    """
    if query_type not in ("point", "self-join", "inner-product"):
        raise ConfigurationError("query_type must be 'point' or 'self-join', got %r" % (query_type,))
    factory = ECMConfig.for_point_queries if query_type == "point" else ECMConfig.for_inner_product_queries
    return factory(
        epsilon=epsilon,
        delta=delta,
        window=window,
        model=WindowModel.TIME_BASED,
        counter_type=counter_type,
        max_arrivals=max_arrivals,
        seed=seed,
    )


def build_sketch(
    counter_type: CounterType,
    epsilon: float,
    delta: float,
    window: float,
    max_arrivals: int,
    query_type: str = "point",
    seed: int = 0,
    stream_tag: int = 0,
) -> ECMSketch:
    """Build one ECM-sketch variant sized for the requested query type
    (see :func:`experiment_config`)."""
    config = experiment_config(counter_type, epsilon, window, max_arrivals, query_type, seed, delta)
    return ECMSketch(config, stream_tag=stream_tag)
