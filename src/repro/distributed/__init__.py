"""Distributed deployments: sites, aggregation trees and continuous monitoring."""

from __future__ import annotations

import importlib
from typing import Any

#: Every public name of the package and the submodule that defines it.  The
#: package imports nothing up front: a name's submodule is imported on first
#: access (PEP 562), so a multisite server that needs only the continuous
#: coordinator never loads the process-pool runner or the geometric monitor.
_EXPORTS: dict[str, str] = {
    "StreamNode": "node",
    "AggregationTree": "topology",
    "TreeVertex": "topology",
    "AggregationReport": "aggregation",
    "hierarchical_aggregate": "aggregation",
    "DistributedDeployment": "aggregation",
    "ShardPlan": "runner",
    "RunnerReport": "runner",
    "ShardedIngestRunner": "runner",
    "run_sharded_ingest": "runner",
    "PeriodicAggregationCoordinator": "continuous",
    "PropagationStats": "continuous",
    "GeometricMonitor": "geometric",
    "ThresholdFunction": "geometric",
    "L2NormSquaredFunction": "geometric",
    "SelfJoinFunction": "geometric",
    "MonitoringStats": "geometric",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + submodule, __name__), name)
    globals()[name] = value
    return value
