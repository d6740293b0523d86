"""Command-line interface for the ECM-sketch reproduction.

Usage (installed or via ``python -m repro``)::

    python -m repro list                          # list available experiments
    python -m repro run figure4 --dataset wc98    # regenerate one experiment
    python -m repro run table3 --records 20000
    python -m repro run all --records 5000        # the full evaluation, small scale
    python -m repro demo --records 10000          # a quick end-to-end sanity demo
    python -m repro heavy-hitters --records 10000 # sliding-window heavy hitters
    python -m repro serve --port 7600             # live sketch service (TCP, NDJSON)
    python -m repro serve --shards 2 --journal-dir wal  # sharded, journaled tier
    python -m repro gateway --backend-port 7600   # HTTP/REST front of a running server
    python -m repro replay --port 7600 --records 50000  # drive a server, report p50/p99

The ``run`` subcommand prints exactly the same tables the benchmark suite
emits, without requiring pytest; it is the lightweight entry point for
regenerating EXPERIMENTS.md numbers or exploring parameter settings.

Each subcommand imports what it runs when it runs: ``serve`` never loads
the experiments, the analysis harnesses or the exact baselines, which keeps
the start-up of a server short.  (Shard workers start from
:mod:`repro.service.shard_worker` and never import this module.)
"""

from __future__ import annotations

import argparse
import sys
import time as _time
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .core.config import ECMConfig
    from .streams.stream import Stream

__all__ = ["main", "build_parser", "EXPERIMENTS"]


def _run_figure4(args: argparse.Namespace) -> ExperimentResult:
    from .experiments import format_centralized_rows, run_centralized_error_experiment

    rows = run_centralized_error_experiment(
        dataset=args.dataset,
        epsilons=args.epsilons,
        num_records=args.records,
        max_keys_per_range=args.max_keys,
    )
    return rows, format_centralized_rows(rows)


def _run_table3(args: argparse.Namespace) -> ExperimentResult:
    from .experiments import format_update_rate_rows, run_update_rate_experiment

    rows = run_update_rate_experiment(
        dataset=args.dataset,
        num_records=args.records,
        batch_size=getattr(args, "batch_size", None),
    )
    return rows, format_update_rate_rows(rows)


def _run_figure5(args: argparse.Namespace) -> ExperimentResult:
    from .experiments import format_distributed_rows, run_distributed_error_experiment

    rows = run_distributed_error_experiment(
        dataset=args.dataset,
        epsilons=args.epsilons,
        num_records=args.records,
        num_nodes=args.nodes,
        max_keys_per_range=args.max_keys,
        workers=getattr(args, "workers", None),
        shards=getattr(args, "shards", None),
    )
    return rows, format_distributed_rows(rows)


def _run_table4(args: argparse.Namespace) -> ExperimentResult:
    from .experiments import (
        format_centralized_vs_distributed_rows,
        run_centralized_vs_distributed_experiment,
    )

    rows = run_centralized_vs_distributed_experiment(
        dataset=args.dataset,
        num_records=args.records,
        num_nodes=args.nodes,
        max_keys_per_range=args.max_keys,
        workers=getattr(args, "workers", None),
        shards=getattr(args, "shards", None),
    )
    return rows, format_centralized_vs_distributed_rows(rows)


def _run_figure6(args: argparse.Namespace) -> ExperimentResult:
    from .experiments import format_network_size_rows, run_network_size_experiment

    rows = run_network_size_experiment(
        dataset=args.dataset,
        network_sizes=tuple(args.network_sizes),
        num_records=args.records,
        max_keys_per_range=args.max_keys,
        workers=getattr(args, "workers", None),
        shards=getattr(args, "shards", None),
    )
    return rows, format_network_size_rows(rows)


def _run_table2(args: argparse.Namespace) -> ExperimentResult:
    from .experiments import format_complexity_rows, run_complexity_experiment

    rows = run_complexity_experiment(
        epsilons=args.epsilons, dataset=args.dataset, num_records=args.records
    )
    return rows, format_complexity_rows(rows)


def _run_ablations(args: argparse.Namespace) -> ExperimentResult:
    from .experiments import (
        format_epsilon_split_rows,
        format_merge_strategy_rows,
        run_epsilon_split_ablation,
        run_merge_strategy_ablation,
    )

    split_rows = run_epsilon_split_ablation()
    merge_rows = run_merge_strategy_ablation()
    text = "%s\n\n%s" % (
        format_epsilon_split_rows(split_rows),
        format_merge_strategy_rows(merge_rows),
    )
    return list(split_rows) + list(merge_rows), text


#: Result of one experiment runner: its raw rows and the formatted table.
ExperimentResult = tuple[list[object], str]

#: Registry of experiment names understood by ``run``.
EXPERIMENTS: dict[str, Callable[[argparse.Namespace], ExperimentResult]] = {
    "table2": _run_table2,
    "figure4": _run_figure4,
    "table3": _run_table3,
    "figure5": _run_figure5,
    "table4": _run_table4,
    "figure6": _run_figure6,
    "ablations": _run_ablations,
}


def _positive_int(text: str) -> int:
    """argparse type for flags that must be strictly positive integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % (text,)) from None
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive, got %d" % value)
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ECM-sketch reproduction: regenerate the paper's experiments from the command line.",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    run_parser.add_argument("--dataset", choices=["wc98", "snmp"], default="wc98")
    run_parser.add_argument("--records", type=int, default=8_000,
                            help="records per synthetic trace (default 8000)")
    run_parser.add_argument("--epsilons", type=float, nargs="+", default=[0.05, 0.10, 0.25])
    run_parser.add_argument("--nodes", type=int, default=None,
                            help="number of sites for the distributed experiments")
    run_parser.add_argument("--network-sizes", type=int, nargs="+", default=[1, 4, 16, 64],
                            help="network sizes for figure6")
    run_parser.add_argument("--max-keys", type=int, default=150,
                            help="cap on evaluated point-query keys per range")
    run_parser.add_argument("--output", type=str, default=None,
                            help="write the raw result rows to this .json or .csv file")
    run_parser.add_argument("--batch-size", type=_positive_int, default=None,
                            help="ingest via the batched fast path (add_many) in chunks "
                                 "of this many records; affects throughput experiments "
                                 "such as table3")
    run_parser.add_argument("--workers", type=_positive_int, default=None,
                            help="simulate distributed sites in this many worker "
                                 "processes (sharded runner); affects figure5, table4 "
                                 "and figure6")
    run_parser.add_argument("--shards", type=_positive_int, default=None,
                            help="number of shard work units for the parallel runner "
                                 "(defaults to --workers)")

    demo_parser = subparsers.add_parser("demo", help="run a quick end-to-end sanity demo")
    demo_parser.add_argument("--records", type=int, default=10_000)
    demo_parser.add_argument("--epsilon", type=float, default=0.05)
    demo_parser.add_argument("--batch-size", type=_positive_int, default=None,
                             help="ingest via the batched fast path (add_many) in chunks "
                                  "of this many records")
    demo_parser.add_argument("--workers", type=_positive_int, default=None,
                             help="also run a sharded distributed demo across this many "
                                  "worker processes")
    demo_parser.add_argument("--shards", type=_positive_int, default=None,
                             help="number of simulated sites for the distributed demo "
                                  "(defaults to 4 x workers)")

    hh_parser = subparsers.add_parser(
        "heavy-hitters",
        help="sliding-window heavy hitters on a Zipf stream (hierarchical query engine)",
    )
    hh_parser.add_argument("--records", type=_positive_int, default=10_000,
                           help="stream length (default 10000)")
    hh_parser.add_argument("--domain", type=_positive_int, default=3_000,
                           help="number of distinct keys (default 3000)")
    hh_parser.add_argument("--zipf", type=float, default=1.2,
                           help="Zipf popularity exponent (default 1.2)")
    hh_parser.add_argument("--phis", type=float, nargs="+", default=[0.01, 0.02, 0.05],
                           help="relative heavy-hitter thresholds to sweep")
    hh_parser.add_argument("--epsilon", type=float, default=0.01,
                           help="point-query error budget of the sketches")
    hh_parser.add_argument("--universe-bits", type=_positive_int, default=12,
                           help="encoded key-universe capacity (2**bits distinct keys)")
    hh_parser.add_argument("--batch-size", type=_positive_int, default=1_024,
                           help="chunk size of the batched ingest (add_many)")
    hh_parser.add_argument("--output", type=str, default=None,
                           help="write the raw result rows to this .json or .csv file")

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the live sketch service (concurrent ingest/query TCP server)",
    )
    serve_parser.add_argument("--host", type=str, default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=7600,
                              help="TCP port to bind (0 picks a free port; default 7600)")
    serve_parser.add_argument("--mode", choices=["flat", "hierarchical", "multisite"],
                              default="flat",
                              help="served sketch state: one ECM-sketch over arbitrary "
                                   "keys, a hierarchical stack over an integer universe, "
                                   "or per-site sketches behind a periodic-aggregation "
                                   "coordinator")
    serve_parser.add_argument("--epsilon", type=float, default=0.05,
                              help="total point-query error budget (default 0.05)")
    serve_parser.add_argument("--delta", type=float, default=0.05)
    serve_parser.add_argument("--window", type=float, default=1_000_000.0,
                              help="sliding-window length in clock units (default 1e6)")
    serve_parser.add_argument("--window-model", choices=["time", "count"], default="time")
    serve_parser.add_argument("--universe-bits", type=_positive_int, default=12,
                              help="key-universe capacity of the hierarchical mode")
    serve_parser.add_argument("--sites", type=_positive_int, default=4,
                              help="observation sites of the multisite mode")
    serve_parser.add_argument("--period", type=float, default=10_000.0,
                              help="aggregation period of the multisite mode, in stream "
                                   "clock units")
    serve_parser.add_argument("--batch-size", type=_positive_int, default=1_024,
                              help="micro-batch cap of the ingest loop (add_many call size)")
    serve_parser.add_argument("--queue-chunks", type=_positive_int, default=64,
                              help="ingest queue bound, in chunks (backpressure threshold)")
    serve_parser.add_argument("--expire-every", type=float, default=5.0,
                              help="seconds between background expire sweeps (0 disables)")
    serve_parser.add_argument("--snapshot-every", type=float, default=None,
                              help="seconds between periodic snapshots (requires "
                                   "--snapshot-path)")
    serve_parser.add_argument("--snapshot-path", type=str, default=None,
                              help="snapshot file (atomic replace; also the shutdown "
                                   "snapshot target)")
    serve_parser.add_argument("--restore", type=str, default=None, metavar="SNAPSHOT",
                              help="restore sketch state from this snapshot (or shard "
                                   "manifest) on boot")
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument("--shards", type=_positive_int, default=None,
                              help="serve through the sharded tier: partition the key "
                                   "universe (or the sites) across this many worker "
                                   "processes behind a merging router (default: one "
                                   "in-process service)")
    serve_parser.add_argument("--pool", action="store_true",
                              help="serve a multi-tenant sketch pool: every stateful "
                                   "op is namespaced by a 'tenant' id, the flags above "
                                   "become the default tenant configuration, and cold "
                                   "tenants are evicted to snapshots under --pool-dir")
    serve_parser.add_argument("--pool-dir", type=str, default=None,
                              help="durable pool directory (tenant catalog + eviction "
                                   "snapshots); required with --pool")
    serve_parser.add_argument("--memory-budget", type=_positive_int, default=None,
                              metavar="BYTES", dest="memory_budget",
                              help="resident-memory budget of the pool in bytes; "
                                   "exceeding it evicts least-recently-touched tenants")
    serve_parser.add_argument("--journal-dir", type=str, default=None,
                              help="write-ahead ingest journal directory: chunks are "
                                   "journaled before they are acknowledged, so recovery "
                                   "is snapshot + journal-tail replay (per-shard "
                                   "subdirectories under --shards)")
    serve_parser.add_argument("--journal-fsync", action="store_true",
                              help="fsync every journal append (power-loss durable) "
                                   "instead of the default flush-per-append "
                                   "(process-crash durable)")
    serve_parser.add_argument("--supervise", action="store_true",
                              help="with --shards: watch worker liveness and respawn "
                                   "dead shards automatically (snapshot restore + "
                                   "journal replay, capped exponential backoff)")

    gateway_parser = subparsers.add_parser(
        "gateway",
        help="run the HTTP/REST gateway in front of a running sketch server",
    )
    gateway_parser.add_argument("--host", type=str, default="127.0.0.1",
                                help="interface the gateway binds")
    gateway_parser.add_argument("--port", type=int, default=8080,
                                help="HTTP port to bind (0 picks a free port; "
                                     "default 8080)")
    gateway_parser.add_argument("--backend-host", type=str, default="127.0.0.1",
                                help="host of the sketch server to front")
    gateway_parser.add_argument("--backend-port", type=int, default=7600,
                                help="port of the sketch server to front")

    replay_parser = subparsers.add_parser(
        "replay",
        help="replay a synthetic trace against a running sketch service",
    )
    replay_parser.add_argument("--host", type=str, default="127.0.0.1")
    replay_parser.add_argument("--port", type=int, default=7600)
    replay_parser.add_argument("--records", type=_positive_int, default=50_000,
                               help="trace length (default 50000)")
    replay_parser.add_argument("--batch-size", type=_positive_int, default=1_024,
                               help="records per ingest request")
    replay_parser.add_argument("--rate", type=float, default=None,
                               help="target arrival rate in records/s (default: as fast "
                                    "as the server accepts)")
    replay_parser.add_argument("--query-every", type=int, default=8,
                               help="issue one query every N ingest batches (0 disables)")
    replay_parser.add_argument("--dataset", choices=["wc98", "snmp", "uniform"],
                               default="wc98",
                               help="flat-mode trace family (hierarchical servers get "
                                    "integer Zipf keys automatically)")
    replay_parser.add_argument("--seed", type=int, default=7,
                               help="trace seed (a serial reference replaying the same "
                                    "seed sees the exact same stream)")
    replay_parser.add_argument("--connections", type=_positive_int, default=1,
                               help="concurrent shard-affine ingest connections "
                                    "(capped at the server's shard count; default 1)")
    replay_parser.add_argument("--json", type=str, default=None, dest="json_out",
                               help="also write the report to this JSON file")

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the repo's AST invariant checker (reprolint) over source paths",
    )
    lint_parser.add_argument("paths", nargs="*", default=["src"],
                             help="files or directories to check (default: src)")
    lint_parser.add_argument("--format", choices=["text", "json"], default="text",
                             dest="lint_format", help="report format (default: text)")
    lint_parser.add_argument("--rules", type=str, default=None, metavar="RL001,RL002",
                             help="comma-separated subset of rule codes to run")
    lint_parser.add_argument("--list-rules", action="store_true",
                             help="print the rule catalog and exit")

    return parser


def _lint(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Delegate to ``tools.reprolint`` so contributors get ``repro lint``.

    The checker lives in the repository's ``tools/`` tree, not in the
    installed package, so this locates a checkout when ``tools`` is not
    already importable (installed-package invocation from the repo root).
    """
    try:
        from tools.reprolint.cli import main as lint_main
    except ImportError:
        root = _find_checkout_root()
        if root is None:
            out("error: cannot find the repository checkout (tools/reprolint); "
                "run from the repo root or python -m tools.reprolint directly")
            return 2
        sys.path.insert(0, root)
        from tools.reprolint.cli import main as lint_main
    argv = list(args.paths)
    argv += ["--format", args.lint_format]
    if args.rules:
        argv += ["--rules", args.rules]
    if args.list_rules:
        argv += ["--list-rules"]
    return lint_main(argv, out=out)


def _find_checkout_root() -> str | None:
    """Nearest directory (cwd upward, then this file upward) with tools/reprolint."""
    import pathlib

    candidates = [pathlib.Path.cwd(), *pathlib.Path.cwd().resolve().parents]
    here = pathlib.Path(__file__).resolve()
    candidates += list(here.parents)
    for candidate in candidates:
        if (candidate / "tools" / "reprolint" / "__init__.py").is_file():
            return str(candidate)
    return None


def _demo(
    records: int,
    epsilon: float,
    out: Callable[[str], None],
    batch_size: int | None = None,
    workers: int | None = None,
    shards: int | None = None,
) -> None:
    """A self-contained sanity demo mirroring examples/quickstart.py."""
    from .baselines import ExactStreamSummary
    from .core.ecm_sketch import ECMSketch
    from .streams import WorldCupSyntheticTrace

    window = 1_000_000.0
    trace = WorldCupSyntheticTrace(num_records=records).generate()
    sketch = ECMSketch.for_point_queries(epsilon=epsilon, delta=0.05, window=window)
    exact = ExactStreamSummary(window=window)
    ingest_start = _time.perf_counter()
    if batch_size is None:
        for record in trace:
            sketch.add(record.key, record.timestamp)
    else:
        for chunk in trace.iter_batches(batch_size):
            sketch.add_many([r.key for r in chunk], [r.timestamp for r in chunk])
    ingest_elapsed = _time.perf_counter() - ingest_start
    for record in trace:
        exact.add(record.key, record.timestamp)
    now = trace.end_time()
    arrivals = exact.arrivals(now=now)
    worst = 0.0
    for key, truth in list(exact.frequencies_in_range(None, now).items())[:200]:
        estimate = sketch.point_query(key, now=now)
        worst = max(worst, abs(estimate - truth) / arrivals)
    out("records ingested:        %d%s" % (
        len(trace),
        "" if batch_size is None else " (batched, batch_size=%d)" % batch_size,
    ))
    out("ingestion rate:          %.0f records/s" % (len(trace) / ingest_elapsed if ingest_elapsed > 0 else float("inf")))
    out("sketch memory:           %.1f KiB (%s store; synopsis model %.1f KiB)" % (
        sketch.memory_bytes() / 1024.0,
        sketch.backend,
        sketch.synopsis_bytes() / 1024.0,
    ))
    out("worst observed error:    %.4f (guarantee: %.2f)" % (worst, epsilon))
    out("self-join estimate:      %.0f (exact %d)" % (sketch.self_join(now=now), exact.self_join(now=now)))
    distributed_ok = True
    if workers is not None or shards is not None:
        distributed_ok = _demo_distributed(
            trace, sketch.config, out, workers=workers, shards=shards
        )
    out("demo %s" % ("PASSED" if worst <= epsilon and distributed_ok else "FAILED"))


def _demo_distributed(
    trace: Stream,
    config: ECMConfig,
    out: Callable[[str], None],
    workers: int | None = None,
    shards: int | None = None,
) -> bool:
    """Sharded distributed section of the demo: parallel sites + aggregation."""
    from .distributed import DistributedDeployment

    num_sites = shards if shards is not None else 4 * (workers or 1)
    deployment = DistributedDeployment(num_nodes=num_sites, config=config)
    deployment.ingest(
        trace.reassign_round_robin(num_sites), workers=workers, shards=shards
    )
    ingest_report = deployment.last_ingest_report
    aggregate_start = _time.perf_counter()
    root = deployment.aggregate()
    aggregate_elapsed = _time.perf_counter() - aggregate_start
    report = deployment.last_report
    out("distributed sites:       %d (workers=%s, shards=%s)" % (
        num_sites,
        "1" if workers is None else workers,
        ingest_report.shards if ingest_report else "n/a",
    ))
    if ingest_report is not None:
        out("sharded ingest rate:     %.0f records/s" % ingest_report.records_per_second())
    out("aggregation time:        %.3f s (%d levels, %.2f MB shipped)" % (
        aggregate_elapsed,
        report.levels if report else 0,
        report.transfer_megabytes() if report else 0.0,
    ))
    matches = root.total_arrivals() == len(trace)
    out("root arrivals:           %d (%s)" % (
        root.total_arrivals(),
        "matches trace" if matches else "MISMATCH",
    ))
    return matches


def _serve(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Run the live sketch service until SIGTERM/SIGINT or a shutdown request."""
    import asyncio

    from .core.config import CounterType
    from .core.errors import ConfigurationError
    from .service.config import ServiceConfig
    from .service.server import run_server
    from .windows.base import WindowModel

    try:
        config = ServiceConfig(
            mode=args.mode,
            epsilon=args.epsilon,
            delta=args.delta,
            window=args.window,
            model=WindowModel(args.window_model),
            counter_type=CounterType.EXPONENTIAL_HISTOGRAM,
            universe_bits=args.universe_bits,
            sites=args.sites,
            period=args.period,
            batch_size=args.batch_size,
            queue_chunks=args.queue_chunks,
            expire_every=args.expire_every if args.expire_every > 0 else None,
            snapshot_every=args.snapshot_every,
            snapshot_path=args.snapshot_path,
            seed=args.seed,
            shards=args.shards,
            pool=args.pool,
            pool_dir=args.pool_dir,
            memory_budget_bytes=args.memory_budget,
            journal_dir=args.journal_dir,
            journal_fsync=args.journal_fsync,
            supervise=args.supervise,
        )
    except ConfigurationError as exc:
        out("error: %s" % (exc,))
        return 2
    try:
        return asyncio.run(
            run_server(config, host=args.host, port=args.port, restore=args.restore)
        )
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        return 0


def _gateway(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Run the HTTP/REST gateway until SIGTERM/SIGINT."""
    import asyncio

    from .service.gateway import run_gateway

    try:
        return asyncio.run(
            run_gateway(
                backend_host=args.backend_host,
                backend_port=args.backend_port,
                host=args.host,
                port=args.port,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        return 0


def _replay(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Replay a synthetic trace against a running service and print the report."""
    import asyncio
    import json as _json

    from .service.client import ServiceRequestError
    from .service.replay import run_replay

    try:
        report = asyncio.run(
            run_replay(
                host=args.host,
                port=args.port,
                records=args.records,
                batch_size=args.batch_size,
                target_rate=args.rate,
                query_every=args.query_every,
                seed=args.seed,
                dataset=args.dataset,
                connections=args.connections,
            )
        )
    except ServiceRequestError as exc:
        # e.g. replaying a second trace whose clocks start below the
        # server's high-water mark: the server rejects the first chunk.
        out("error: the service rejected the replay (%s)" % (exc,))
        return 1
    except (ConnectionError, OSError) as exc:
        out("error: could not reach the service at %s:%d (%s)" % (args.host, args.port, exc))
        return 1
    for line in report.format_lines():
        out(line)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            _json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        out("report written to %s" % args.json_out)
    return 0


def main(argv: Sequence[str] | None = None, out: Callable[[str], None] = print) -> int:
    """CLI entry point.  Returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command is None:
        parser.print_help()
        return 2

    if args.command == "list":
        out("available experiments:")
        for name in sorted(EXPERIMENTS):
            out("  %s" % name)
        out("  all (runs every experiment in sequence)")
        return 0

    if args.command == "demo":
        _demo(
            records=args.records,
            epsilon=args.epsilon,
            out=out,
            batch_size=args.batch_size,
            workers=args.workers,
            shards=args.shards,
        )
        return 0

    if args.command == "serve":
        return _serve(args, out)

    if args.command == "gateway":
        return _gateway(args, out)

    if args.command == "replay":
        return _replay(args, out)

    if args.command == "lint":
        return _lint(args, out)

    if args.command == "heavy-hitters":
        from .analysis.reporting import write_rows
        from .experiments import format_frequent_items_rows, run_frequent_items_experiment

        rows = run_frequent_items_experiment(
            num_records=args.records,
            domain_size=args.domain,
            zipf_exponent=args.zipf,
            phis=args.phis,
            epsilon=args.epsilon,
            universe_bits=args.universe_bits,
            batch_size=args.batch_size,
        )
        out("heavy hitters on a Zipf(%.2f) stream (%d records, %d distinct keys)"
            % (args.zipf, args.records, args.domain))
        out("")
        out(format_frequent_items_rows(rows))
        if args.output:
            written = write_rows(list(rows), args.output)
            out("")
            out("raw rows written to %s" % written)
        return 0

    if args.command == "run":
        from .analysis.reporting import write_rows

        names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        if args.batch_size is not None and any(name != "table3" for name in names):
            out("note: --batch-size currently affects only the table3 (update-rate) "
                "experiment; the other experiments ignore it.")
        distributed_names = {"figure5", "table4", "figure6"}
        if (args.workers is not None or args.shards is not None) and any(
            name not in distributed_names for name in names
        ):
            out("note: --workers/--shards affect only the distributed experiments "
                "(figure5, table4, figure6); other experiments run in-process.")
        collected: list[object] = []
        for name in names:
            rows, table = EXPERIMENTS[name](args)
            collected.extend(rows)
            out("")
            out("=" * 72)
            out("experiment: %s (dataset=%s, records=%d)" % (name, args.dataset, args.records))
            out("=" * 72)
            out(table)
        if args.output:
            written = write_rows(collected, args.output)
            out("")
            out("raw rows written to %s" % written)
        return 0

    parser.error("unknown command %r" % (args.command,))
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
