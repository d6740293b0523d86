"""Sliding-window counter substrates used inside ECM-sketches.

This package provides the three sliding-window counting algorithms the paper
evaluates as ECM-sketch counter implementations — exponential histograms,
deterministic waves and randomized waves — plus an exact baseline counter and
the order-preserving aggregation algorithms of Section 5.
"""

from .base import SlidingWindowCounter, WindowModel
from .columnar_eh import ColumnarEHStore
from .deterministic_wave import DeterministicWave, WaveCheckpoint
from .exact_window import ExactWindowCounter
from .exponential_histogram import Bucket, ExponentialHistogram
from .merge import (
    aggregated_error,
    bucket_replay_events,
    bulk_merge_deterministic_waves,
    bulk_merge_exponential_histograms,
    epsilon_for_levels,
    merge_deterministic_waves,
    merge_exponential_histograms,
    multi_level_error,
    wave_replay_events,
)
from .randomized_wave import RandomizedWave

__all__ = [
    "SlidingWindowCounter",
    "WindowModel",
    "Bucket",
    "ColumnarEHStore",
    "ExponentialHistogram",
    "DeterministicWave",
    "WaveCheckpoint",
    "RandomizedWave",
    "ExactWindowCounter",
    "aggregated_error",
    "multi_level_error",
    "epsilon_for_levels",
    "bucket_replay_events",
    "wave_replay_events",
    "merge_exponential_histograms",
    "merge_deterministic_waves",
    "bulk_merge_exponential_histograms",
    "bulk_merge_deterministic_waves",
]
