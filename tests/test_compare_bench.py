"""Unit tests of the bench-regression guard (benchmarks/compare_bench.py)."""

from __future__ import annotations

import importlib.util
import json
import os

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench",
    os.path.join(os.path.dirname(__file__), "..", "benchmarks", "compare_bench.py"),
)
assert _SPEC is not None and _SPEC.loader is not None
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)


class TestRatioDiscovery:
    def test_finds_speedups_in_nested_trees_and_lists(self):
        tree = {
            "ingest": {"speedup": 2.5, "records": 100},
            "stages": [{"speedup": 1.5}, {"other": {"speedup": 3.0}}],
            "speedup": 4.0,
        }
        leaves = dict(compare_bench.iter_ratio_leaves(tree))
        assert leaves == {
            "ingest.speedup": (2.5, None),
            "stages[0].speedup": (1.5, None),
            "stages[1].other.speedup": (3.0, None),
            "speedup": (4.0, None),
        }

    def test_ignores_non_numeric_and_non_ratio_keys(self):
        leaves = dict(compare_bench.iter_ratio_leaves(
            {"speedup": "fast", "records_per_second": 99.0, "flag": True}
        ))
        assert leaves == {}

    def test_backend_labels_are_inherited_from_enclosing_dicts(self):
        tree = {
            "backend": "columnar+numba",
            "ingest": {"speedup": 2.5},
            "stages": [{"backend": "columnar", "speedup": 1.5}],
        }
        leaves = dict(compare_bench.iter_ratio_leaves(tree))
        assert leaves == {
            "ingest.speedup": (2.5, "columnar+numba"),
            "stages[0].speedup": (1.5, "columnar"),
        }


class TestComparison:
    def test_within_tolerance_passes(self):
        baseline = {"a": {"speedup": 2.0}}
        fresh = {"a": {"speedup": 1.6}}  # -20%, inside the 25% tolerance
        _report, regressions = compare_bench.compare_trees(baseline, fresh, 0.25)
        assert regressions == []

    def test_thirty_percent_slowdown_fails(self):
        baseline = {"a": {"speedup": 2.0}}
        fresh = {"a": {"speedup": 1.4}}  # -30%
        _report, regressions = compare_bench.compare_trees(baseline, fresh, 0.25)
        assert len(regressions) == 1
        assert "a.speedup" in regressions[0]

    def test_missing_ratio_fails(self):
        _report, regressions = compare_bench.compare_trees(
            {"a": {"speedup": 2.0}}, {}, 0.25
        )
        assert len(regressions) == 1

    def test_backend_switch_is_skipped_not_flagged(self):
        baseline = {"a": {"backend": "columnar+numba", "speedup": 8.0}}
        fresh = {"a": {"backend": "columnar", "speedup": 2.0}}  # would be -75%
        report, regressions = compare_bench.compare_trees(baseline, fresh, 0.25)
        assert regressions == []
        assert any("backend changed: columnar+numba -> columnar" in line for line in report)

    def test_new_ratio_in_fresh_run_is_not_a_failure(self):
        report, regressions = compare_bench.compare_trees(
            {}, {"a": {"speedup": 2.0}}, 0.25
        )
        assert regressions == []
        assert any("no baseline yet" in line for line in report)


class TestCli:
    def test_self_test_passes(self, capsys):
        assert compare_bench.main(["--self-test"]) == 0
        assert "self-test passed" in capsys.readouterr().out

    def test_file_pair_flow(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "fresh.json"
        baseline.write_text(json.dumps({"x": {"speedup": 3.0}}))
        fresh.write_text(json.dumps({"x": {"speedup": 2.9}}))
        assert compare_bench.main(["--pair", str(baseline), str(fresh)]) == 0
        fresh.write_text(json.dumps({"x": {"speedup": 2.0}}))
        assert compare_bench.main(["--pair", str(baseline), str(fresh)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_rejects_bad_tolerance(self):
        import pytest

        with pytest.raises(SystemExit):
            compare_bench.main(["--self-test", "--tolerance", "1.5"])


class TestFloorClamp:
    def test_large_baseline_floors_are_clamped(self):
        baseline = {"sweep": {"speedup": 33.0}}
        # 5x would fail the raw 25% tolerance (floor 24.75) but clears the clamp.
        _report, regressions = compare_bench.compare_trees(
            baseline, {"sweep": {"speedup": 5.0}}, 0.25
        )
        assert regressions == []
        # A genuine collapse below the clamp still fails.
        _report, regressions = compare_bench.compare_trees(
            baseline, {"sweep": {"speedup": 3.0}}, 0.25
        )
        assert len(regressions) == 1

    def test_small_baselines_keep_the_tolerance_floor(self):
        baseline = {"ingest": {"speedup": 2.0}}
        _report, regressions = compare_bench.compare_trees(
            baseline, {"ingest": {"speedup": 1.4}}, 0.25
        )
        assert len(regressions) == 1
