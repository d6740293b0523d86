"""repro-lint: an AST-based invariant checker for this repository.

The sketch service encodes correctness contracts that ordinary linters do
not know about: shard partitioning must never use the per-process salted
builtin ``hash()`` (PR 6), nothing may block the single asyncio ingest loop
(PR 5/7), and sketch-state modules must stay deterministic so byte-identical
replay keeps holding (PR 1-4).
Until now those invariants survived on reviewer memory plus a handful of
runtime tests; ``reprolint`` turns each one into a named static rule.

Usage::

    python -m tools.reprolint src               # check a tree (or files)
    python -m tools.reprolint --list-rules      # rule catalog
    python -m tools.reprolint --format json src # machine-readable findings

Findings can be suppressed per line with a justifying comment::

    mark = hash(key)  # reprolint: disable=RL001 -- hashability probe only

or per file with ``# reprolint: disable-file=RL002`` on its own line.

The rule registry is plugin-style: a rule is a class decorated with
:func:`tools.reprolint.rules.register`; see ``docs/development.md`` for the
how-to-add-a-rule walkthrough.
"""

from __future__ import annotations

from .engine import Finding, ModuleFile, run_checks
from .rules import RULES, all_rules

__all__ = ["Finding", "ModuleFile", "RULES", "all_rules", "run_checks"]
