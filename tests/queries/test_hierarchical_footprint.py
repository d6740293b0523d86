"""Footprint pin for the dyadic stack of Section 6.1.

A 16-level hierarchical stack holds sixteen columnar grids whose coarse
levels see few distinct keys, and on a Zipf stream most cells stay shallow
while a few hot prefixes go deep.  Each grid keeps one pool row per
``(cell, level)`` that stored a bucket, so the stack's true footprint
(``memory_bytes()``: the pool rows handed out and the per-cell arrays)
follows each cell's own depth, not the busiest cell's.
"""

from __future__ import annotations

from repro.queries import HierarchicalECMSketch
from repro.streams.generators import IntegerZipfTrace

#: Arrivals per ``add_many`` call, the chunk size of the service's ingest.
CHUNK = 1024


def test_zipf_stack_footprint_stays_small():
    stack = HierarchicalECMSketch(universe_bits=16, epsilon=0.05, delta=0.05, window=5e4)
    records = IntegerZipfTrace(num_records=8192, universe_bits=16, seed=7).generate().records
    for low in range(0, len(records), CHUNK):
        chunk = records[low : low + CHUNK]
        stack.add_many([record.key for record in chunk], [record.timestamp for record in chunk])
    assert stack.total_arrivals() == 8192
    # 3,770 (cell, level) rows of 22-24 slots hold the buckets (1.33 MiB),
    # 1.63 MiB in all; one dense (cells, levels, slots) box per grid read
    # about 6.5 MiB.
    assert stack.memory_bytes() <= 3 * 1024 * 1024
