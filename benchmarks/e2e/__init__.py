"""End-to-end benchmark of the served sketch: ingest rate and query latency.

See ``README.md`` in this directory for the metrics, the workloads and how
to run and compare.
"""
