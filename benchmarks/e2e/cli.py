"""Command line of the end-to-end benchmark.

``run`` measures workloads and prints every metric by name with its unit;
its last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` (end-to-end metrics, or per-layer metrics with
``--trace``).  It exits 1 when a correctness check fails, 3 when the only
requested workload was skipped.

``compare A.json... -- B.json...`` compares two sets of ``--json`` result
files against the bounds in ``BENCHMARK.json``; it exits 1 on a regression
and 2 when the files come from different hosts.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from collections.abc import Sequence
from dataclasses import replace
from typing import Any

from .compare import HostMismatchError, compare
from .harness import ROOT, Settings, host_facts, run_workload
from .workloads import WORKLOADS

__all__ = ["load_spec", "main"]

#: Run length and repetitions of ``--smoke`` (a self-test, not a measurement).
SMOKE = Settings(seconds=1.5, boots=2, probes=64, require_p99=False)


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units and regression bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _format(name: str, entry: dict[str, Any]) -> str:
    samples = entry.get("samples")
    return "  %-55s %14.6g %-10s%s" % (
        name, entry["value"], entry["unit"], "" if samples is None else "  n=%d" % samples
    )


def _report(result: dict[str, Any]) -> list[str]:
    lines = ["== %s: seed %d, %.1f s%s ==" % (
        result["workload"], result["seed"], result["seconds"], ", traced" if result["traced"] else ""
    )]
    lines += [_format(name, entry) for name, entry in result["metrics"].items()]
    if "layers" in result:
        lines.append("  -- per layer (traced run) --")
        lines += [_format(name, entry) for name, entry in sorted(result["layers"].items())]
        lines.append("  -- spans: calls / failures / items / busy ms / self ms / front self ms --")
        lines += [
            "  %-45s %9d %4d %10d %10.1f %10.1f %10.1f"
            % (name, row["calls"], row["failures"], row["items"], row["total_ms"],
               row["self_ms"], row["front_self_ms"])
            for name, row in sorted(result["spans"].items())
        ]
    lines += result.get("trace_warnings", [])
    lines += [
        "  check %-22s %-4s %s" % (name, "ok" if check["ok"] else "FAIL", check["detail"])
        for name, check in result["checks"].items()
    ]
    return lines


def _result_line(results: dict[str, dict[str, Any]], spec: dict[str, Any], traced: bool) -> str:
    """The last stdout line: exactly the spec's metrics for the chosen mode."""
    names = [metric["name"] for metric in spec["per_layer" if traced else "end_to_end"]]
    measured = {name: result for name, result in results.items() if "skipped" not in result}
    metrics = {}
    for workload, result in measured.items():
        available = {**result["metrics"], **result.get("layers", {})}
        for name in names:
            entry = available[name]
            key = name if len(measured) == 1 else "%s.%s" % (workload, name)
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    return json.dumps({
        "correct": all(result["correct"] for result in measured.values()),
        "attempted": sum(result["attempted"] for result in measured.values()),
        "failed": sum(result["failed"] for result in measured.values()),
        "metrics": metrics,
    })


def _run(args: argparse.Namespace) -> int:
    # A terminated benchmark still stops its servers and removes its scratch
    # directory: SIGTERM unwinds through the harness's finally blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    settings = SMOKE if args.smoke else Settings(seconds=float(spec["run_seconds"]))
    if args.seconds is not None:
        settings = replace(settings, seconds=args.seconds)
    traced = bool(args.trace)
    names = args.workload or list(WORKLOADS)
    results: dict[str, dict[str, Any]] = {}
    for name in names:
        workload = WORKLOADS[name].smoke() if args.smoke else WORKLOADS[name]
        result = run_workload(workload, args.seed, settings, traced)
        results[name] = result
        if "skipped" in result:
            print("== %s: skipped (%s) ==" % (name, result["skipped"]), flush=True)
        else:
            print("\n".join(_report(result)), flush=True)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump({"benchmark": "benchmarks/e2e", "host": host_facts(), "seed": args.seed,
                       "workloads": results}, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if all("skipped" in result for result in results.values()):
        return 3
    print(_result_line(results, spec, traced), flush=True)
    return 0 if all(r.get("correct", True) for r in results.values()) else 1


def _compare(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print("usage: python -m benchmarks.e2e compare A.json... -- B.json...", file=sys.stderr)
        return 2
    split = list(argv).index("--")
    first, second = list(argv[:split]), list(argv[split + 1:])
    if not first or not second:
        print("compare needs result files on both sides of --", file=sys.stderr)
        return 2
    try:
        lines, verdicts = compare(first, second, load_spec())
    except HostMismatchError as exc:
        print("refusing to compare: %s" % (exc,), file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if "regressed" in verdicts.values() else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads against a real repro serve")
    run.add_argument("--workload", action="append", choices=list(WORKLOADS),
                     help="workload to run (repeatable; default: all four)")
    run.add_argument("--seed", type=int, default=7, help="trace seed (default 7)")
    run.add_argument("--seconds", type=float, default=None,
                     help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    run.add_argument("--json", dest="json_out", default=None, help="write results to this file")
    run.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=[0, 1],
                     help="also run under the span launcher and report per-layer metrics")
    run.add_argument("--smoke", action="store_true", help="tiny sizes: a self-test of the harness")
    commands.add_parser("compare", help="compare A.json... -- B.json... against the bounds")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return _compare(argv[1:])
    args = build_parser().parse_args(argv)
    return _run(args)
