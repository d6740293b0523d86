"""Structural tests of the experiment runners: data sets, row coverage, tables.

The paper's claims on these rows (errors within their guarantees, memory and
transfer orderings, update-rate ratios) are checked by
``repro.experiments.claims``; see ``test_claims.py``.
"""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS
from repro.core.errors import ConfigurationError
from repro.experiments import dataset_specs, load_dataset, median_rate_ratio
from repro.experiments.centralized import UPDATE_RATE_ROUNDS


def _rows(small_run, experiment):
    return [row for row in small_run[0] if row["experiment"] == experiment]


class TestCommon:
    def test_dataset_specs(self):
        specs = dataset_specs()
        assert specs["wc98"].num_nodes == 33
        assert specs["snmp"].num_nodes == 535

    def test_load_dataset(self):
        assert len(load_dataset("wc98", num_records=500)) == 500
        assert len(load_dataset("snmp", num_records=500)) == 500
        with pytest.raises(ConfigurationError):
            load_dataset("unknown")

    def test_load_dataset_is_deterministic(self):
        a = load_dataset("wc98", num_records=200)
        b = load_dataset("wc98", num_records=200)
        assert [r.key for r in a] == [r.key for r in b]


class TestRowCoverage:
    def test_every_experiment_writes_tagged_rows(self, small_run):
        experiments = {row["experiment"] for row in small_run[0]}
        # "ablations" writes two row schemas, each under its own tag.
        assert experiments == (set(EXPERIMENTS) - {"ablations"}) | {"epsilon-split", "merge-strategy"}

    def test_figure4_variants(self, small_run):
        variants = {(row["variant"], row["query_type"]) for row in _rows(small_run, "figure4")}
        assert {("ECM-EH", "point"), ("ECM-DW", "point"), ("ECM-RW", "point"), ("ECM-EH", "self-join")} <= variants
        # The paper gives no self-join guarantee for randomized waves.
        assert ("ECM-RW", "self-join") not in variants

    def test_distributed_variants(self, small_run):
        assert {row["variant"] for row in _rows(small_run, "figure5")} == {"ECM-EH", "ECM-RW"}
        assert {row["num_nodes"] for row in _rows(small_run, "figure5")} == {4}
        figure6 = _rows(small_run, "figure6")
        assert [row["num_nodes"] for row in figure6 if row["variant"] == "ECM-EH"] == [1, 4, 16]
        assert all(row["self_join_average_error"] is None for row in figure6 if row["variant"] == "ECM-RW")

    def test_table2_and_table3_variants(self, small_run):
        for experiment in ("table2", "table3"):
            assert {row["variant"] for row in _rows(small_run, experiment)} == {"ECM-EH", "ECM-DW", "ECM-RW"}

    def test_ablation_rows(self, small_run):
        assert {row["policy"] for row in _rows(small_run, "epsilon-split")} == {"optimal", "sw-heavy", "cm-heavy"}
        assert {row["strategy"] for row in _rows(small_run, "merge-strategy")} == {"half-half", "all-at-end"}
        assert [row["model"] for row in _rows(small_run, "window-model")] == ["time", "count"]
        assert len(_rows(small_run, "propagation-period")) == 4


class TestFormatting:
    @pytest.mark.parametrize(
        "heading",
        ["avg err", "updates/sec", "transfer(MB)", "ratio", "levels", "bound(bytes)", "policy",
         "strategy", "worst stale err", "memory(bytes)", "norm err"],
    )
    def test_tables_printed(self, small_run, heading):
        assert heading in small_run[1]


class TestTable3UpdateRates:
    def test_ordering(self, small_run):
        # The floors of a single 2,000-record run, held by the median round;
        # the paper's ratios are claims at the default scale (test_claims.py).
        seconds = {row["variant"]: row["round_seconds"] for row in _rows(small_run, "table3")}
        for row in _rows(small_run, "table3"):
            assert len(row["round_seconds"]) == UPDATE_RATE_ROUNDS
            assert row["elapsed_seconds"] == sorted(row["round_seconds"])[UPDATE_RATE_ROUNDS // 2]
        assert median_rate_ratio(seconds["ECM-EH"], seconds["ECM-RW"]) > 1.0
        assert median_rate_ratio(seconds["ECM-DW"], seconds["ECM-RW"]) > 1.0

    def test_median_rate_ratio_pairs_rounds(self):
        # One slow round of the faster variant does not decide the ratio.
        assert median_rate_ratio([1.0, 1.0, 10.0], [2.0, 2.0, 2.0]) == 2.0
        assert median_rate_ratio([2.0, 2.0], [1.0, 1.0]) == 0.5
