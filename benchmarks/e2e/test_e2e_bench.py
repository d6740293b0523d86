"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e``.

The last test runs every workload, traced, at smoke size against real
servers (about half a minute).
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e.compare import HostMismatchError, compare, verdict
from benchmarks.e2e.spans import SpanRecorder, load_span_dir, self_times
from benchmarks.e2e.stats import percentile, supported, tail_samples

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ------------------------------------------------------------ percentiles
def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 99.0) == 99.0
    assert percentile(values, 100.0) == 100.0
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_p99_needs_ten_samples_beyond_it():
    assert tail_samples(1000, 99.0) == 10
    assert supported(1000, 99.0)
    assert not supported(999, 99.0)
    assert supported(1200, 99.0)  # 60 q/s for 20 s
    assert supported(100, 90.0) and not supported(99, 90.0)
    assert supported(10_000, 99.9)  # 99.9 / 100 * 10_000 is not exact in floats


# -------------------------------------------------------------- self time
def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    # parent [0, 100]; children overlap each other ([10, 30] and [20, 50])
    # and one outlives the parent ([90, 120]); a grandchild [12, 18] is
    # inside the first child only.
    start = np.array([0, 10, 20, 90, 12], dtype=np.int64)
    end = np.array([100, 30, 50, 120, 18], dtype=np.int64)
    parent = np.array([-1, 0, 0, 0, 1], dtype=np.int64)
    own = self_times(start, end, parent)
    assert own.tolist() == [100 - (40 + 10), 20 - 6, 30, 30, 6]


def test_recorder_nests_sync_async_and_thread_spans(tmp_path):
    recorder = SpanRecorder()

    def leaf(items):
        return len(items)

    def outer(items):
        return leaf_span(items) + leaf_span(items)

    async def coroutine(items):
        await asyncio.sleep(0)
        return outer_span(items)

    def failing():
        raise RuntimeError("boom")

    leaf_span = recorder.wrap(leaf, "test.leaf", items=lambda items: len(items))
    outer_span = recorder.wrap(outer, "test.outer")
    coroutine_span = recorder.wrap(coroutine, "test.coroutine")
    failing_span = recorder.wrap(failing, "test.failing")

    assert asyncio.run(coroutine_span([1, 2, 3])) == 6
    worker = threading.Thread(target=leaf_span, args=([1],))
    worker.start()
    worker.join(10.0)
    assert not worker.is_alive()
    with pytest.raises(RuntimeError):
        failing_span()
    recorder.dump(str(tmp_path))

    (table,) = load_span_dir(str(tmp_path))
    assert table.pid == os.getpid()
    names = [table.names[i] for i in table.name]
    assert sorted(names) == sorted(
        ["test.coroutine", "test.outer", "test.leaf", "test.leaf", "test.leaf", "test.failing"]
    )
    by_name = {}
    for index, name in enumerate(names):
        by_name.setdefault(name, []).append(index)
    (root,) = by_name["test.coroutine"]
    (middle,) = by_name["test.outer"]
    assert table.parent[root] == -1
    assert table.parent[middle] == root
    parents = sorted(int(table.parent[i]) for i in by_name["test.leaf"])
    assert parents == [-1, middle, middle]  # the thread's leaf is a root
    assert table.items[by_name["test.leaf"]].tolist().count(3) == 2
    assert table.failed[by_name["test.failing"][0]] == 1
    assert table.kinds[table.name[root]] == "async"
    own = self_times(table.start, table.end, table.parent)
    duration = table.duration
    leaves = [i for i in by_name["test.leaf"] if table.parent[i] == middle]
    assert own[middle] == duration[middle] - duration[leaves].sum()


def test_recorder_skips_a_direct_reentry_of_the_same_name(tmp_path):
    recorder = SpanRecorder()

    def base():
        return 1

    def override():
        return inner() + 1

    inner = recorder.wrap(base, "test.same")
    outer = recorder.wrap(override, "test.same")
    assert outer() == 2
    recorder.dump(str(tmp_path))
    (table,) = load_span_dir(str(tmp_path))
    assert len(table.name) == 1


# ---------------------------------------------------------------- compare
def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [v * 1.05 for v in base], "lower", 0.1) == "ok"
    assert verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "regressed"
    assert verdict(base, [v * 1.2 for v in base], "higher", 0.1) == "ok"
    assert verdict(base, [v * 0.8 for v in base], "higher", 0.1) == "regressed"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert verdict(base, noisy, "lower", 0.1) == "unresolved"
    # Wide spread, but every run of the second set is better: ok.
    assert verdict(noisy, [10.0, 20.0, 30.0, 15.0, 25.0], "lower", 0.1) == "ok"
    # Zero-tolerance metrics regress on any move the wrong way.
    assert verdict([0.0] * 3, [0.0, 0.001, 0.001], "lower", None) == "regressed"
    assert verdict([1.0] * 3, [1.0] * 3, "higher", None) == "ok"


def _result_file(path, prefix, host, rates):
    workloads = {
        "flat-durable": {
            "metrics": {
                **{metric["name"]: {"value": 10.0, "unit": metric["unit"]}
                   for metric in SPEC["end_to_end"] + SPEC["per_layer"]},
                "error_rate": {"value": 0.0, "unit": "fraction"},
                "answers_in_bound": {"value": 1.0, "unit": "fraction"},
            },
        },
        "sharded-flat": {"skipped": "needs 2 CPUs, host has 1"},
    }
    files = []
    for index, rate in enumerate(rates):
        workloads["flat-durable"]["metrics"]["ingest_rate"]["value"] = rate
        target = path / ("%s-%d.json" % (prefix, index))
        target.write_text(json.dumps({"host": {"cpu_count": host}, "workloads": workloads}))
        files.append(str(target))
    return files


def test_compare_flags_a_regression_and_refuses_other_hosts(tmp_path):
    first = _result_file(tmp_path, "first", 2, [1000.0, 1010.0, 990.0])
    slower = _result_file(tmp_path, "slower", 2, [700.0, 710.0, 690.0])
    lines, verdicts = compare(first, slower, SPEC)
    assert verdicts[("flat-durable", "ingest_rate")] == "regressed"
    assert verdicts[("flat-durable", "query_p50_ms")] == "ok"
    assert verdicts[("flat-durable", "error_rate")] == "ok"
    assert not any(workload == "sharded-flat" for workload, _ in verdicts)
    assert any("regressed" in line for line in lines)
    other = _result_file(tmp_path, "other", 1, [1000.0])
    with pytest.raises(HostMismatchError):
        compare(first, other, SPEC)


# ------------------------------------------------------------------ smoke
def test_smoke_run_covers_every_workload_and_the_traced_path(tmp_path):
    out = tmp_path / "smoke.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke", "--trace", "--json", str(out)],
        cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    document = json.loads(out.read_text())
    assert set(document["host"]) == {"cpu_count", "python", "numpy", "numba", "backend", "platform"}
    layer_names = {metric["name"] for metric in SPEC["per_layer"]}
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        result = document["workloads"][workload]
        if "skipped" in result:
            assert os.cpu_count() < 2 and workload == "sharded-flat"
            continue
        assert result["correct"], result["checks"]
        assert end_to_end <= set(result["metrics"])
        assert layer_names <= set(result["metrics"]) | set(result["layers"])
        assert {"%s.%s" % (workload, name) for name in layer_names} <= set(last["metrics"])
        router = result["layers"]["service.router.partition_us_per_arrival"]["value"]
        assert (router > 0) == (workload == "sharded-flat")
