"""Footprint pin for the dyadic stack of Section 6.1.

A 16-level hierarchical stack holds sixteen columnar grids whose coarse
levels see few distinct keys, so their cells stay shallow.  Each grid keeps
only the level planes its cells reached, so the stack's true footprint
(``memory_bytes()``, the arrays it allocated) follows the stream, not a
fixed headroom per grid.
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
    # Every grid keeps one plane per level its cells reached (3 to 5 here);
    # a fixed headroom of planes per grid read about 19.5 MiB.
    assert stack.memory_bytes() <= 8 * 1024 * 1024
