"""Unit tests for the experiment-result export helpers."""

from __future__ import annotations

import csv
import json

import pytest

from repro.analysis import row_to_dict, rows_to_dicts, write_csv, write_json, write_rows
from repro.core.errors import ConfigurationError
from repro.experiments import run_epsilon_split_ablation, run_update_rate_experiment
from repro.experiments.centralized import CentralizedErrorRow


def _sample_rows():
    return [
        CentralizedErrorRow(
            dataset="wc98", variant="ECM-EH", query_type="point", epsilon=0.1,
            memory_bytes=1_048_576, average_error=0.01, maximum_error=0.02, queries=10,
        ),
        CentralizedErrorRow(
            dataset="wc98", variant="ECM-RW", query_type="point", epsilon=0.1,
            memory_bytes=10_485_760, average_error=0.005, maximum_error=0.01, queries=10,
        ),
    ]


class TestRowConversion:
    def test_row_to_dict_includes_fields_and_properties(self):
        data = row_to_dict(_sample_rows()[0])
        assert data["variant"] == "ECM-EH"
        assert data["memory_bytes"] == 1_048_576
        # The derived property used on the figure's axis is included too.
        assert data["memory_megabytes"] == pytest.approx(1.0)

    def test_rows_to_dicts_length(self):
        assert len(rows_to_dicts(_sample_rows())) == 2

    def test_non_dataclass_rejected(self):
        with pytest.raises(ConfigurationError):
            row_to_dict({"not": "a dataclass"})


class TestWriters:
    def test_write_json(self, tmp_path):
        path = write_json(_sample_rows(), tmp_path / "figure4.json")
        payload = json.loads(path.read_text())
        assert len(payload) == 2
        assert payload[0]["dataset"] == "wc98"

    def test_write_csv(self, tmp_path):
        path = write_csv(_sample_rows(), tmp_path / "figure4.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[1]["variant"] == "ECM-RW"
        assert float(rows[0]["memory_megabytes"]) == pytest.approx(1.0)

    def test_write_csv_mixed_row_types(self, tmp_path):
        mixed = _sample_rows() + list(run_epsilon_split_ablation(epsilons=(0.1,)))
        path = write_csv(mixed, tmp_path / "mixed.csv")
        with path.open() as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        assert len(rows) == len(mixed)
        assert "policy" in reader.fieldnames and "variant" in reader.fieldnames

    def test_rows_are_tagged_with_their_experiment(self, tmp_path):
        mixed = _sample_rows() + list(run_epsilon_split_ablation(epsilons=(0.1,)))
        tags = [entry["experiment"] for entry in rows_to_dicts(mixed)]
        assert tags == ["figure4"] * 2 + ["epsilon-split"] * 3
        path = write_csv(mixed, tmp_path / "mixed.csv")
        with path.open() as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        # The tag leads every row, so one file of many schemas sorts by it.
        assert reader.fieldnames[0] == "experiment"
        assert [row["experiment"] for row in rows] == tags

    def test_write_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_csv([], tmp_path / "empty.csv")

    def test_write_rows_dispatches_on_extension(self, tmp_path):
        assert write_rows(_sample_rows(), tmp_path / "a.json").suffix == ".json"
        assert write_rows(_sample_rows(), tmp_path / "a.csv").suffix == ".csv"
        with pytest.raises(ConfigurationError):
            write_rows(_sample_rows(), tmp_path / "a.parquet")

    def test_round_trip_of_real_experiment_rows(self, tmp_path):
        rows = run_update_rate_experiment(dataset="wc98", num_records=800)
        path = write_json(rows, tmp_path / "table3.json")
        payload = json.loads(path.read_text())
        assert {entry["variant"] for entry in payload} == {"ECM-EH", "ECM-DW", "ECM-RW"}
        assert all(entry["updates_per_second"] > 0 for entry in payload)
