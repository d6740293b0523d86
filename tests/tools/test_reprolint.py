"""Tests for the reprolint invariant checker (tools/reprolint).

Every rule gets a must-flag and a must-pass fixture, the suppression
syntax is exercised both per-line and file-wide, the JSON reporter has a
golden payload, and a self-run pins ``src/repro`` clean — the same
invocation the CI ``static-analysis`` job runs.

The acceptance-criteria cases copy the *real* service modules into a
fixture checkout and reintroduce the historical regression by hand (a
``hash()`` call in ``service/router.py``): the checker must fail it, because
that is exactly what the CI job relies on.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:  # direct pytest invocation from a subdir
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint.cli import main as lint_main  # noqa: E402
from tools.reprolint.cli import render_json  # noqa: E402
from tools.reprolint.engine import ModuleFile, run_checks  # noqa: E402
from tools.reprolint.rules import RULES, Rule, all_rules, register  # noqa: E402


# --------------------------------------------------------------------------
# fixture helpers


def write_module(root: Path, relative: str, source: str) -> Path:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def lint(root: Path, codes: list[str] | None = None, target: str = "src"):
    """Run a rule subset over a fixture checkout; parse errors are failures."""
    findings, errors = run_checks([root / target], all_rules(codes))
    assert errors == []
    return findings


def codes_of(findings) -> list[str]:
    return [finding.code for finding in findings]


# --------------------------------------------------------------------------
# RL001 no-salted-hash


class TestRL001:
    def test_flags_builtin_hash_in_service(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/partition.py",
            "def shard_of(key, shards):\n    return hash(key) % shards\n",
        )
        findings = lint(tmp_path, ["RL001"])
        assert codes_of(findings) == ["RL001"]
        assert "crc32v1" in findings[0].message
        assert findings[0].line == 2

    def test_flags_in_distributed_and_windows(self, tmp_path):
        write_module(
            tmp_path, "src/repro/distributed/geo.py", "x = hash('a')\n"
        )
        write_module(
            tmp_path, "src/repro/windows/merge2.py", "y = hash('b')\n"
        )
        assert codes_of(lint(tmp_path, ["RL001"])) == ["RL001", "RL001"]

    def test_silent_outside_partition_dirs(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/experiments/tables.py",
            "def dedupe(rows):\n    return {hash(tuple(r)): r for r in rows}\n",
        )
        assert lint(tmp_path, ["RL001"]) == []

    def test_silent_for_pinned_hashes(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/partition.py",
            "import zlib\n"
            "def shard_of(key, shards):\n"
            "    return zlib.crc32(key.encode()) % shards\n",
        )
        assert lint(tmp_path, ["RL001"]) == []


# --------------------------------------------------------------------------
# RL002 no-blocking-in-async


class TestRL002:
    def test_flags_time_sleep_in_async_def(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/worker.py",
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1.0)\n",
        )
        findings = lint(tmp_path, ["RL002"])
        assert codes_of(findings) == ["RL002"]
        assert "time.sleep" in findings[0].message
        assert "handler" in findings[0].message

    def test_flags_sqlite_through_attribute_and_helper_method(self, tmp_path):
        # The shape satellite 1 fixed: the sqlite call is two hops away from
        # the async def (async evict -> sync _touch -> catalog.touch -> the
        # blocking connection attribute).
        write_module(
            tmp_path,
            "src/repro/service/pool2.py",
            "import sqlite3\n"
            "class Catalog:\n"
            "    def __init__(self):\n"
            "        self._connection = sqlite3.connect('catalog.db')\n"
            "    def touch(self, name):\n"
            "        self._connection.execute('UPDATE t SET x=1')\n"
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self.catalog = Catalog()\n"
            "    def _touch(self, name):\n"
            "        self.catalog.touch(name)\n"
            "    async def evict(self, name):\n"
            "        self._touch(name)\n"
            "    async def restore(self, name):\n"
            "        self.catalog.touch(name)\n",
        )
        findings = lint(tmp_path, ["RL002"])
        assert codes_of(findings) == ["RL002", "RL002"]
        messages = " ".join(finding.message for finding in findings)
        assert "evict" in messages and "restore" in messages

    def test_silent_in_sync_code_and_executor_thunks(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/worker.py",
            "import asyncio\n"
            "import time\n"
            "def warmup():\n"
            "    time.sleep(0.1)\n"
            "async def snapshot():\n"
            "    def write():\n"
            "        with open('s.json', 'w') as f:\n"
            "            f.write('{}')\n"
            "    await asyncio.get_running_loop().run_in_executor(None, write)\n",
        )
        assert lint(tmp_path, ["RL002"]) == []


# --------------------------------------------------------------------------
# RL003 await-under-lock


class TestRL003:
    def test_flags_network_await_in_mutating_lock_body(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/router2.py",
            "class Router:\n"
            "    async def evict(self, name):\n"
            "        async with self._lock:\n"
            "            self._tenants[name] = 'evicting'\n"
            "            await self.channel.request({'op': 'snapshot'})\n",
        )
        findings = lint(tmp_path, ["RL003"])
        assert codes_of(findings) == ["RL003"]
        assert "request" in findings[0].message

    def test_silent_without_mutation_or_for_local_awaits(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/router2.py",
            # Read-only lock body: serializing reads is the point of the lock.
            "class Router:\n"
            "    async def peek(self):\n"
            "        async with self._lock:\n"
            "            return await self.channel.request({'op': 'stats'})\n"
            # Mutation plus a *local* await (drain of the guarded object) is
            # the sanctioned pattern.
            "    async def apply(self, name):\n"
            "        async with self._lock:\n"
            "            self._tenants[name] = 'live'\n"
            "            await self.service.drain()\n",
        )
        assert lint(tmp_path, ["RL003"]) == []


# --------------------------------------------------------------------------
# RL005 no-nondeterminism


class TestRL005:
    def test_flags_wall_clock_and_global_rng_in_sketch_modules(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/core/clocky.py",
            "import time\n"
            "import random\n"
            "def stamp(bucket):\n"
            "    bucket.expiry = time.time()\n"
            "def jitter():\n"
            "    return random.random()\n",
        )
        findings = lint(tmp_path, ["RL005"])
        assert codes_of(findings) == ["RL005", "RL005"]
        messages = " ".join(finding.message for finding in findings)
        assert "time.time" in messages and "random.random" in messages

    def test_flags_unseeded_rng_constructor(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/windows/wave2.py",
            "import numpy as np\n"
            "rng = np.random.default_rng()\n",
        )
        findings = lint(tmp_path, ["RL005"])
        assert codes_of(findings) == ["RL005"]
        assert "seed" in findings[0].message

    def test_silent_for_seeded_rng_and_monotonic_clocks(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/windows/wave2.py",
            "import numpy as np\n"
            "import random\n"
            "import time\n"
            "rng = np.random.default_rng(7)\n"
            "local = random.Random(7)\n"
            "t0 = time.perf_counter()\n",
        )
        assert lint(tmp_path, ["RL005"]) == []

    def test_silent_outside_sketch_state_dirs(self, tmp_path):
        # The serving tier may read wall clocks (timers, logs); only
        # sketch-state modules promise replay.
        write_module(
            tmp_path,
            "src/repro/service/timers.py",
            "import time\n"
            "def now():\n"
            "    return time.time()\n",
        )
        assert lint(tmp_path, ["RL005"]) == []


# --------------------------------------------------------------------------
# RL006 no-unbounded-rpc-await


class TestRL006:
    def test_flags_deadlineless_request_and_submit(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/fanout.py",
            "class Router:\n"
            "    async def probe(self):\n"
            "        return await self.channel.request({'op': 'ping'})\n"
            "    async def push(self, message):\n"
            "        return await self.channel.submit(message)\n",
        )
        findings = lint(tmp_path, ["RL006"])
        assert codes_of(findings) == ["RL006", "RL006"]
        messages = " ".join(finding.message for finding in findings)
        assert "deadline" in messages and "request" in messages and "submit" in messages

    def test_flags_bare_open_connection(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/dial.py",
            "import asyncio\n"
            "async def dial(host, port):\n"
            "    return await asyncio.open_connection(host, port)\n",
        )
        assert codes_of(lint(tmp_path, ["RL006"])) == ["RL006"]

    def test_silent_with_deadline_timeout_or_wait_for(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/fanout.py",
            "import asyncio\n"
            "class Router:\n"
            "    async def probe(self):\n"
            "        return await self.channel.request({'op': 'ping'}, deadline=5.0)\n"
            "    async def dial(self, host, port):\n"
            "        return await asyncio.wait_for(asyncio.open_connection(host, port), 5.0)\n"
            "    async def hello(self, client):\n"
            "        return await client.connect(timeout=5.0)\n",
        )
        assert lint(tmp_path, ["RL006"]) == []

    def test_silent_for_self_receivers_and_non_rpc_awaits(self, tmp_path):
        # self.request(...) is the transport implementing itself: the bound
        # lives one frame up in its caller.  call(...) IS the bounded
        # retry wrapper.
        write_module(
            tmp_path,
            "src/repro/service/client2.py",
            "class Client:\n"
            "    async def ping(self):\n"
            "        return await self.request({'op': 'ping'})\n"
            "    async def point(self, key):\n"
            "        return await self.inner.call({'op': 'point', 'key': key})\n",
        )
        assert lint(tmp_path, ["RL006"]) == []

    def test_silent_outside_the_serving_tier(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/experiments/driver.py",
            "async def probe(channel):\n"
            "    return await channel.request({'op': 'ping'})\n",
        )
        assert lint(tmp_path, ["RL006"]) == []


# --------------------------------------------------------------------------
# suppressions


class TestSuppressions:
    def test_line_disable_with_justification(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/probe.py",
            "def probe(key):\n"
            "    return hash(key)  # reprolint: disable=RL001 -- probe, not partitioning\n",
        )
        assert lint(tmp_path, ["RL001"]) == []

    def test_line_disable_only_covers_named_codes(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/probe.py",
            "def probe(key):\n"
            "    return hash(key)  # reprolint: disable=RL005\n",
        )
        assert codes_of(lint(tmp_path, ["RL001"])) == ["RL001"]

    def test_line_disable_covers_only_its_line(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/probe.py",
            "a = hash('a')  # reprolint: disable=RL001\n"
            "b = hash('b')\n",
        )
        findings = lint(tmp_path, ["RL001"])
        assert [(finding.code, finding.line) for finding in findings] == [("RL001", 2)]

    def test_disable_file_covers_the_whole_file(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/probe.py",
            "# reprolint: disable-file=RL001\n"
            "a = hash('a')\n"
            "b = hash('b')\n",
        )
        assert lint(tmp_path, ["RL001"]) == []

    def test_multiple_codes_in_one_comment(self, tmp_path):
        module = ModuleFile(
            tmp_path / "x.py", "x.py", "# reprolint: disable-file=RL001, RL002\n"
        )
        assert module.file_suppressions == frozenset(["RL001", "RL002"])


# --------------------------------------------------------------------------
# reporters and CLI


class TestReporting:
    def test_json_reporter_golden_payload(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/partition.py",
            "def shard_of(key, shards):\n    return hash(key) % shards\n",
        )
        findings = lint(tmp_path, ["RL001"])
        payload = json.loads(render_json(findings, []))
        expected_path = (tmp_path / "src/repro/service/partition.py").as_posix()
        assert payload == {
            "count": 1,
            "errors": [],
            "findings": [
                {
                    "path": expected_path,
                    "line": 2,
                    "col": 12,
                    "code": "RL001",
                    "message": (
                        "builtin hash() is salted per process; use crc32v1 "
                        "(service.router.shard_of) or core.hashing.HashFamily "
                        "for anything that partitions or merges state"
                    ),
                }
            ],
        }

    def test_cli_exit_codes(self, tmp_path):
        dirty = write_module(
            tmp_path, "src/repro/service/bad.py", "x = hash('a')\n"
        )
        clean = write_module(tmp_path, "src/repro/service/ok.py", "x = 1\n")
        out: list[str] = []
        assert lint_main([str(clean)], out=out.append) == 0
        assert out[-1] == "reprolint: clean"
        assert lint_main([str(dirty)], out=out.append) == 1
        assert "RL001" in out[-1]
        assert lint_main([str(tmp_path / "nope.py")], out=out.append) == 2
        assert lint_main([str(clean), "--rules", "RL999"], out=out.append) == 2

    def test_cli_reports_parse_errors(self, tmp_path):
        broken = write_module(
            tmp_path, "src/repro/service/broken.py", "def oops(:\n"
        )
        out: list[str] = []
        assert lint_main([str(broken)], out=out.append) == 2
        assert "cannot parse" in out[-1]

    def test_cli_list_rules_prints_the_catalog(self):
        out: list[str] = []
        assert lint_main(["--list-rules"], out=out.append) == 0
        catalog = "\n".join(out)
        for code in ["RL001", "RL002", "RL003", "RL005", "RL006"]:
            assert code in catalog


class TestRegistry:
    def test_all_five_rules_are_registered(self):
        assert {"RL001", "RL002", "RL003", "RL005", "RL006"} <= set(RULES)

    def test_register_rejects_bad_and_duplicate_codes(self):
        with pytest.raises(ValueError):
            register(type("NoCode", (Rule,), {"code": ""}))
        with pytest.raises(ValueError):
            register(type("Dup", (Rule,), {"code": "RL001"}))

    def test_unknown_code_subset_raises(self):
        with pytest.raises(KeyError):
            all_rules(["RL404"])


# --------------------------------------------------------------------------
# self-run and acceptance criteria


class TestSelfRun:
    def test_src_is_clean(self):
        findings, errors = run_checks([REPO_ROOT / "src"], all_rules())
        assert errors == []
        assert findings == []


def copy_service_checkout(tmp_path: Path) -> Path:
    """Copy the real service tree into a disposable fixture checkout."""
    shutil.copytree(
        REPO_ROOT / "src/repro/service", tmp_path / "src/repro/service"
    )
    return tmp_path


class TestAcceptance:
    """The regression the CI static-analysis job exists to catch."""

    def test_reintroducing_hash_into_router_fails(self, tmp_path):
        root = copy_service_checkout(tmp_path)
        router = root / "src/repro/service/router.py"
        router.write_text(
            router.read_text(encoding="utf-8")
            + "\n\ndef _legacy_shard_of(key, shards):\n"
            "    return hash(key) % shards\n",
            encoding="utf-8",
        )
        findings = lint(root, ["RL001"])
        assert codes_of(findings) == ["RL001"]
        assert findings[0].path.endswith("service/router.py")

    def test_unmodified_service_checkout_is_clean(self, tmp_path):
        root = copy_service_checkout(tmp_path)
        assert lint(root, ["RL001"]) == []
