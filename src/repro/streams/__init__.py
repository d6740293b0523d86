"""Stream abstractions and synthetic workload generators."""

from __future__ import annotations

import importlib
from typing import Any

#: Every public name of the package and the submodule that defines it,
#: imported on first access (PEP 562): a server that only needs
#: :class:`StreamRecord` never loads the trace generators.
_EXPORTS: dict[str, str] = {
    "Stream": "stream",
    "StreamRecord": "stream",
    "ZipfSampler": "generators",
    "generate_arrival_times": "generators",
    "SyntheticTraceConfig": "generators",
    "WorldCupSyntheticTrace": "generators",
    "SnmpSyntheticTrace": "generators",
    "IntegerZipfTrace": "generators",
    "UniformTrace": "generators",
    "make_trace": "generators",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + submodule, __name__), name)
    globals()[name] = value
    return value
