"""Shared fixtures for the test suite.

The fixtures keep trace sizes small (a few thousand records) so the whole
suite runs in well under a minute while still exercising every code path with
realistic, skewed workloads.
"""

from __future__ import annotations

import contextlib
import random
from collections.abc import Iterator
from unittest import mock

import pytest

from repro.baselines import ExactStreamSummary
from repro.core import CounterType, ECMConfig
from repro.streams import SnmpSyntheticTrace, UniformTrace, WorldCupSyntheticTrace
from repro.windows.exponential_histogram import ExponentialHistogram


WINDOW = 100_000.0


@pytest.fixture(scope="session")
def window() -> float:
    """Sliding-window length shared by most fixtures."""
    return WINDOW


@pytest.fixture(scope="session")
def wc98_trace():
    """A small synthetic WorldCup'98-like trace (session-scoped: generated once)."""
    return WorldCupSyntheticTrace(
        num_records=4_000, num_nodes=8, domain_size=300, duration=WINDOW, seed=5
    ).generate()


@pytest.fixture(scope="session")
def snmp_trace():
    """A small synthetic SNMP-like trace."""
    return SnmpSyntheticTrace(
        num_records=3_000, num_nodes=16, domain_size=200, duration=WINDOW, seed=9
    ).generate()


@pytest.fixture(scope="session")
def uniform_trace():
    """A small uniform-popularity trace."""
    return UniformTrace(num_records=2_000, num_nodes=4, domain_size=64, duration=WINDOW, seed=3).generate()


@pytest.fixture(scope="session")
def wc98_exact(wc98_trace):
    """Exact summary of the wc98 fixture trace."""
    return ExactStreamSummary.from_stream(wc98_trace, window=WINDOW)


@pytest.fixture(scope="session")
def snmp_exact(snmp_trace):
    """Exact summary of the snmp fixture trace."""
    return ExactStreamSummary.from_stream(snmp_trace, window=WINDOW)


@pytest.fixture
def rng():
    """A deterministic random generator for per-test synthetic arrivals."""
    return random.Random(1234)


@pytest.fixture
def point_config(window) -> ECMConfig:
    """ECM-EH configuration sized for point queries at epsilon = 0.1."""
    return ECMConfig.for_point_queries(epsilon=0.1, delta=0.1, window=window)


@pytest.fixture
def rw_config(window) -> ECMConfig:
    """ECM-RW configuration sized for point queries at epsilon = 0.2."""
    return ECMConfig.for_point_queries(
        epsilon=0.2,
        delta=0.2,
        window=window,
        counter_type=CounterType.RANDOMIZED_WAVE,
        max_arrivals=20_000,
    )


def make_arrivals(rng: random.Random, count: int, mean_gap: float = 5.0):
    """Generate ``count`` monotonically increasing arrival timestamps."""
    clock = 0.0
    arrivals = []
    for _ in range(count):
        clock += rng.random() * mean_gap * 2.0
        arrivals.append(clock)
    return arrivals


@contextlib.contextmanager
def histograms_built() -> Iterator[list[ExponentialHistogram]]:
    """Every :class:`ExponentialHistogram` constructed inside the block, in a
    list that fills as they are built (a spy on ``__init__``)."""
    built: list[ExponentialHistogram] = []
    init = ExponentialHistogram.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with mock.patch.object(ExponentialHistogram, "__init__", spy):
        yield built
