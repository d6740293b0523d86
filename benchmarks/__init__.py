"""Benchmark package (lets ``python -m benchmarks.e2e`` and the tests import the benchmarks)."""
