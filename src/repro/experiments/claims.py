"""The paper's claims, checked on the rows ``repro run`` writes.

Each claim is one row of :data:`CLAIMS`: the experiment whose rows it reads
(the ``experiment`` tag of every output row), the claim in words, and a
check naming the rows or groups that break it.  Accuracy and memory claims
read the deterministic columns; throughput enters only as the median over
rounds of the ratio of two update rates timed back to back (Table 3).

:data:`RUNS` names the commands whose rows ``EXPERIMENTS.json`` holds: both
data sets at the default scale, and a small run the test suite repeats.
``check`` reruns a command, checks every claim on its fresh rows and
compares them with the committed rows: the experiments are seeded, so every
column but :data:`TIMING_COLUMNS` must match, strings and integers exactly
and floats to :data:`FLOAT_TOLERANCE`.  ``record`` reruns
every command and rewrites ``EXPERIMENTS.json`` and ``EXPERIMENTS.md``::

    python -m repro.experiments.claims check EXPERIMENTS.json wc98 snmp
    python -m repro.experiments.claims record EXPERIMENTS.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .centralized import median_rate_ratio

__all__ = ["Claim", "CLAIMS", "RUNS", "TIMING_COLUMNS", "FLOAT_TOLERANCE", "check_claims", "compare_rows",
           "run_rows", "check_run", "record", "main"]

Row = dict[str, Any]
Check = Callable[[list[Row]], list[str]]

#: Wall-clock columns: they differ from run to run and are never compared.
TIMING_COLUMNS = frozenset(
    {"elapsed_seconds", "round_seconds", "updates_per_second", "update_microseconds", "query_microseconds"}
)

#: Relative tolerance of the float compare: it forgives only the last bits a
#: different NumPy build or Python version may round differently.
FLOAT_TOLERANCE = 1e-12

#: ``repro`` commands whose rows ``EXPERIMENTS.json`` holds.  snmp's 535
#: access points are reduced to 64 sites.
RUNS: dict[str, tuple[str, ...]] = {
    "wc98": ("run", "all"),
    "snmp": ("run", "all", "--dataset", "snmp", "--nodes", "64"),
    "small": ("run", "all", "--records", "2000", "--epsilons", "0.1", "0.25",
              "--network-sizes", "1", "4", "16", "--nodes", "4", "--max-keys", "30"),
}


@dataclass(frozen=True)
class Claim:
    """One claim of the paper on the rows of one experiment."""

    experiment: str
    text: str
    check: Check


def _label(row: Row) -> str:
    """Short human label of one row: its identifying columns."""
    names = [str(row[key]) for key in ("variant", "query_type", "policy", "strategy", "model") if key in row]
    values = ["%s=%g" % (key, row[key]) for key in ("epsilon", "num_nodes", "period", "range_length")
              if key in row]
    return " ".join(names + values)


def _each(holds: Callable[[Row], bool]) -> Check:
    """The claim holds for every row on its own."""
    return lambda rows: [_label(row) for row in rows if not holds(row)]


def _whole(holds: Callable[[list[Row]], bool], label: str) -> Check:
    """The claim holds for the experiment's rows taken together."""
    return lambda rows: [] if holds(rows) else [label]


def _within(column: str, bound: str = "epsilon") -> Check:
    return _each(lambda row: row[column] <= row[bound])


def _column(rows: list[Row], column: str, key: str = "epsilon", **match: Any) -> list[Any]:
    """``column`` of the rows whose columns equal ``match``, ordered by ``key``."""
    chosen = [row for row in rows if all(row[name] == value for name, value in match.items())]
    return [row[column] for row in sorted(chosen, key=lambda row: row[key])]


def _versus(column: str, first: str, second: str, holds: Callable[[Any, Any], bool], **match: Any) -> Check:
    """``holds(first's column, second's column)`` at every epsilon (rows of ``match``)."""

    def check(rows: list[Row]) -> list[str]:
        values = {(row["variant"], row["epsilon"]): row[column] for row in rows
                  if all(row[name] == value for name, value in match.items())}
        epsilons = sorted(epsilon for variant, epsilon in values if variant == first) or [None]
        return ["%s epsilon=%s" % (first, epsilon) for epsilon in epsilons
                if (second, epsilon) not in values or not holds(values[first, epsilon], values[second, epsilon])]

    return check


def _rate_ratio(faster: str, slower: str, floor: float) -> Check:
    """``faster``'s update rate over ``slower``'s, median over rounds, exceeds ``floor``."""

    def check(rows: list[Row]) -> list[str]:
        ratio = median_rate_ratio(*(_column(rows, "round_seconds", variant=name)[0] for name in (faster, slower)))
        return [] if ratio > floor else ["%s/%s = %.2f" % (faster, slower, ratio)]

    return check


def _growth(rows: list[Row], variant: str) -> float:
    """Analytical size at the smallest epsilon over that at the largest."""
    sizes = _column(rows, "analytical_bytes", variant=variant)
    return float(sizes[0] / sizes[-1])


def _transfer_grows(variant: str, strictly: bool) -> Check:
    def grows(rows: list[Row]) -> bool:
        sizes = _column(rows, "transfer_bytes", "num_nodes", variant=variant)
        return sizes[0] < sizes[-1] if strictly else sizes[0] <= sizes[-1]

    return _whole(grows, variant)


def _at_largest_network(rows: list[Row]) -> list[str]:
    largest = max(row["num_nodes"] for row in rows)
    return _versus("transfer_bytes", "ECM-RW", "ECM-EH", lambda rw, eh: rw > 5 * eh, num_nodes=largest)(rows)


def _optimal_split(rows: list[Row]) -> list[str]:
    optimal = {row["epsilon"]: row["memory_bytes"] for row in rows if row["policy"] == "optimal"}
    return [_label(row) for row in rows if optimal[row["epsilon"]] > row["memory_bytes"]]


def _falling(values: list[Any]) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


#: The claims table, in the order of the paper's evaluation.
CLAIMS: tuple[Claim, ...] = (
    # Table 2: space complexity (Section 4.2.2).
    Claim("table2", "ECM-RW's worst-case size grows faster with 1/epsilon than ECM-EH's",
          _whole(lambda rows: _growth(rows, "ECM-RW") > _growth(rows, "ECM-EH"), "growth")),
    Claim("table2", "measured ECM-RW size exceeds 5x ECM-EH at every epsilon",
          _versus("measured_bytes", "ECM-RW", "ECM-EH", lambda rw, eh: rw > 5 * eh)),
    Claim("table2", "measured ECM-EH size is below ECM-DW at every epsilon",
          _versus("measured_bytes", "ECM-EH", "ECM-DW", lambda eh, dw: eh < dw)),
    Claim("table2", "every measured size is within its analytical bound",
          _within("measured_bytes", "analytical_bytes")),
    Claim("table2", "every update and query latency and every bound is positive",
          _each(lambda row: min(row["update_microseconds"], row["query_microseconds"],
                                row["analytical_bytes"]) > 0)),
    # Figure 4: centralized accuracy vs memory (Section 7.2).
    Claim("figure4", "average error is within epsilon (Theorems 1/2)", _within("average_error")),
    Claim("figure4", "maximum error is within epsilon (Theorems 1/2)", _within("maximum_error")),
    Claim("figure4", "ECM-EH is more compact than ECM-DW at every epsilon",
          _versus("memory_bytes", "ECM-EH", "ECM-DW", lambda eh, dw: eh < dw, query_type="point")),
    Claim("figure4", "ECM-RW costs over 5x the memory of ECM-EH at every epsilon",
          _versus("memory_bytes", "ECM-RW", "ECM-EH", lambda rw, eh: rw > 5 * eh, query_type="point")),
    Claim("figure4", "ECM-EH memory falls as epsilon grows",
          _whole(lambda rows: _falling(_column(rows, "memory_bytes", variant="ECM-EH", query_type="point")),
                 "ECM-EH point")),
    # Table 3: update rates, median over interleaved rounds (Section 7.2).
    Claim("table3", "ECM-EH updates faster than 0.8x ECM-DW", _rate_ratio("ECM-EH", "ECM-DW", 0.8)),
    Claim("table3", "ECM-EH updates faster than 2x ECM-RW", _rate_ratio("ECM-EH", "ECM-RW", 2.0)),
    Claim("table3", "ECM-DW updates faster than ECM-RW", _rate_ratio("ECM-DW", "ECM-RW", 1.0)),
    # Figure 5 and Table 4: distributed accuracy and cost (Section 7.3).
    Claim("figure5", "average error of the aggregated sketch is within epsilon", _within("average_error")),
    Claim("figure5", "maximum error is within the aggregated sketch's bound (Theorems 1/2/4)",
          _within("maximum_error", "guarantee")),
    Claim("figure5", "every aggregation ships data", _each(lambda row: row["transfer_bytes"] > 0)),
    Claim("figure5", "ECM-RW aggregation ships over 5x the bytes of ECM-EH at every epsilon",
          _versus("transfer_bytes", "ECM-RW", "ECM-EH", lambda rw, eh: rw > 5 * eh, query_type="point")),
    Claim("table4", "distributed error is within epsilon", _within("distributed_error")),
    Claim("table4", "aggregation costs ECM-EH under 3x its centralized error",
          _each(lambda row: row["variant"] != "ECM-EH" or row["ratio"] < 3.0)),
    # Figure 6: network size (Section 7.3).
    Claim("figure6", "point error is within epsilon at every network size", _within("point_average_error")),
    Claim("figure6", "ECM-EH transfer volume grows with the network", _transfer_grows("ECM-EH", True)),
    Claim("figure6", "ECM-RW transfer volume does not shrink with the network",
          _transfer_grows("ECM-RW", False)),
    Claim("figure6", "ECM-RW ships over 5x the bytes of ECM-EH at the largest network", _at_largest_network),
    # Ablations and extensions.
    Claim("epsilon-split", "the optimal split needs no more memory than either skewed split", _optimal_split),
    Claim("epsilon-split", "every split spends exactly the error budget",
          _each(lambda row: abs(row["total_error"] - row["epsilon"]) <= 1e-3 * row["epsilon"])),
    Claim("merge-strategy", "maximum error of each replay is within the Theorem 4 aggregated epsilon",
          _within("maximum_error", "guarantee")),
    Claim("merge-strategy", "errors are ordered 0 <= average <= maximum",
          _each(lambda row: 0.0 <= row["average_error"] <= row["maximum_error"])),
    Claim("propagation-period", "communication grows as the period shrinks",
          _whole(lambda rows: (lambda sizes: sizes == sorted(sizes, reverse=True))(
              _column(rows, "transfer_bytes", "period")), "transfer")),
    Claim("propagation-period", "error at maximum staleness stays within 0.25",
          _each(lambda row: row["stale_error"] <= 0.25)),
    Claim("window-model", "both window models keep the point-query error within epsilon",
          _within("maximum_error")),
    Claim("window-model", "count-based memory is within 0.2x-5x of time-based",
          _whole(lambda rows: 0.2 <= _column(rows, "memory_bytes", model="count")[0]
                 / _column(rows, "memory_bytes", model="time")[0] <= 5.0, "count/time")),
    Claim("inner-product", "cross-stream inner-product error is within epsilon (Theorem 2)", _within("error")),
)


def check_claims(rows: Sequence[Row], claims: Sequence[Claim] = CLAIMS) -> list[str]:
    """Every claim of ``claims`` on one run's rows.

    Returns one message per broken claim; empty when all hold.  A claim
    whose experiment has no rows is broken: it would check nothing.
    """
    failures = []
    for claim in claims:
        selected = [row for row in rows if row.get("experiment") == claim.experiment]
        offending = claim.check(selected) if selected else ["no rows"]
        if offending:
            failures.append("%s: %s -- fails for %s" % (claim.experiment, claim.text, "; ".join(offending)))
    return failures


def _same(new: Any, old: Any) -> bool:
    if isinstance(new, float) and isinstance(old, float):
        return math.isclose(new, old, rel_tol=FLOAT_TOLERANCE)
    return bool(new == old)


def compare_rows(fresh: Sequence[Row], committed: Sequence[Row]) -> list[str]:
    """Differences between two runs of one command, timings aside.

    Rows are matched by experiment and position.  Floats match to
    :data:`FLOAT_TOLERANCE`, every other value exactly.
    """
    failures = []
    for experiment in dict.fromkeys(row.get("experiment") for row in [*committed, *fresh]):
        new = [row for row in fresh if row.get("experiment") == experiment]
        old = [row for row in committed if row.get("experiment") == experiment]
        if len(new) != len(old):
            failures.append("%s: %d rows, committed %d" % (experiment, len(new), len(old)))
            continue
        for new_row, old_row in zip(new, old):
            for column in sorted((new_row.keys() | old_row.keys()) - TIMING_COLUMNS):
                if not _same(new_row.get(column), old_row.get(column)):
                    failures.append("%s [%s]: %s = %r, committed %r" % (
                        experiment, _label(old_row), column, new_row.get(column), old_row.get(column)))
    return failures


def run_rows(argv: Sequence[str], out: Callable[[str], None] = print) -> list[Row]:
    """Run one ``repro`` command and return the rows its ``--output`` wrote."""
    from ..cli import main as cli_main

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "rows.json"
        if cli_main([*argv, "--output", str(path)], out=out) != 0:
            raise RuntimeError("repro %s failed" % " ".join(argv))
        rows: list[Row] = json.loads(path.read_text(encoding="utf-8"))
    return rows


def check_run(document: dict[str, Any], name: str, out: Callable[[str], None] = print) -> list[str]:
    """Rerun the command of one run, check its claims, compare with ``document``."""
    committed = document["runs"][name]
    failures = [] if committed["argv"] == list(RUNS[name]) else ["committed rows come from another command"]
    rows = run_rows(RUNS[name], out)
    failures += check_claims(rows) + compare_rows(rows, committed["rows"])
    return ["%s: %s" % (name, failure) for failure in failures]


_MARKDOWN_HEAD = """\
# Experiments

The paper's evaluation (Tables 2-4, Figures 4-6), its ablations and the
cross-stream inner product, at reproduction scale on seeded synthetic
traces.  `python -m repro.experiments.claims record EXPERIMENTS.json` writes
this file and `EXPERIMENTS.json` (the raw rows);
`python -m repro.experiments.claims check EXPERIMENTS.json wc98 snmp` reruns
the commands, checks every claim below on the fresh rows and compares them
with the committed ones.  All columns but the timings (%s) match on any
host, floats to a relative %g; the timings are this host's.  Table 3 times
each variant's whole-trace ingest back to back in every round and compares
variants by the median per-round ratio.  `small` is the run the test suite
repeats.  Larger grids are a flag away, e.g. `--epsilons 0.05 0.1 0.15 0.2
0.25` or `--network-sizes 1 2 4 8 16 32 64 128 256`.  From a checkout, run
the commands with `PYTHONPATH=src`.

Host: %d CPUs, %s, Python %s, NumPy %s.

| experiment | claim |
| --- | --- |
"""


def record(path: Path, out: Callable[[str], None] = print) -> int:
    """Rerun every command of :data:`RUNS`; write the rows and the tables.

    Refuses to write results that break a claim.
    """
    host = [os.cpu_count() or 1, platform.platform(), platform.python_version(), np.__version__]
    text = _MARKDOWN_HEAD % (", ".join("`%s`" % column for column in sorted(TIMING_COLUMNS)), FLOAT_TOLERANCE,
                           *host)
    text += "".join("| %s | %s |\n" % (claim.experiment, claim.text) for claim in CLAIMS)
    document: dict[str, Any] = {"host": dict(zip(("cpu_count", "platform", "python", "numpy"), host)),
                                "runs": {}}
    for name, argv in RUNS.items():
        lines: list[str] = []
        rows = run_rows(argv, lines.append)
        failures = check_claims(rows)
        for failure in failures:
            out("FAIL %s: %s" % (name, failure))
        if failures:
            return 1
        document["runs"][name] = {"argv": list(argv), "rows": rows}
        table = "\n".join(line for line in lines if not line.startswith("raw rows written")).strip()
        text += "\n## Run `%s`\n\n    python -m repro %s\n\n```text\n%s\n```\n" % (name, " ".join(argv), table)
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    path.with_suffix(".md").write_text(text, encoding="utf-8")
    out("wrote %s and %s" % (path, path.with_suffix(".md")))
    return 0


def main(argv: Sequence[str] | None = None, out: Callable[[str], None] = print) -> int:
    """``check`` or ``record`` the committed results; returns an exit code."""
    parser = argparse.ArgumentParser(prog="python -m repro.experiments.claims", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("action", choices=["check", "record"])
    parser.add_argument("results", type=Path, help="the committed results (EXPERIMENTS.json)")
    parser.add_argument("runs", nargs="*", metavar="RUN", help="runs to check (default: %s)" % " ".join(RUNS))
    args = parser.parse_args(argv)
    if set(args.runs) - set(RUNS):
        parser.error("unknown run; expected some of %s" % ", ".join(RUNS))
    if args.action == "record":
        return record(args.results, out)
    document = json.loads(args.results.read_text(encoding="utf-8"))
    failures = [failure for name in args.runs or RUNS for failure in check_run(document, name, out)]
    for failure in failures:
        out("FAIL %s" % failure)
    out("%d claims: %s" % (len(CLAIMS), "%d failures" % len(failures) if failures else "all hold"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
