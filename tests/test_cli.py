"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.core.errors import ConfigurationError


def run_cli(argv):
    """Invoke the CLI capturing its output lines; returns (exit_code, lines)."""
    lines = []
    code = main(argv, out=lines.append)
    return code, lines


class TestParser:
    def test_no_command_shows_help(self, capsys):
        code, _lines = run_cli([])
        assert code == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_run_requires_known_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "figure99"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "figure4"])
        assert args.dataset == "wc98"
        assert args.records == 8_000
        assert args.epsilons == [0.05, 0.10, 0.25]

    def test_experiment_registry_covers_all_paper_artifacts(self):
        assert set(EXPERIMENTS) == {
            "table2", "figure4", "table3", "figure5", "table4", "figure6", "ablations",
            "propagation-period", "window-model", "inner-product",
        }


class TestCommands:
    def test_list(self):
        code, lines = run_cli(["list"])
        assert code == 0
        joined = "\n".join(lines)
        for name in EXPERIMENTS:
            assert name in joined

    def test_demo_small(self):
        code, lines = run_cli(["demo", "--records", "1500", "--epsilon", "0.1"])
        assert code == 0
        assert any("PASSED" in line for line in lines)

    def test_run_table3_small(self):
        code, lines = run_cli(["run", "table3", "--records", "1500"])
        assert code == 0
        joined = "\n".join(lines)
        assert "updates/sec" in joined
        assert "ECM-EH" in joined and "ECM-RW" in joined

    def test_heavy_hitters_command(self, tmp_path):
        output = tmp_path / "hh.json"
        code, lines = run_cli([
            "heavy-hitters", "--records", "2000", "--domain", "500",
            "--phis", "0.02", "0.05", "--output", str(output),
        ])
        assert code == 0
        joined = "\n".join(lines)
        assert "recall" in joined
        assert "0.0200" in joined and "0.0500" in joined
        assert output.exists()

    def test_heavy_hitters_rejects_domain_over_universe(self):
        with pytest.raises(ConfigurationError):
            run_cli(["heavy-hitters", "--records", "100", "--domain", "100",
                     "--universe-bits", "4"])

    def test_run_figure4_small(self):
        code, lines = run_cli([
            "run", "figure4", "--records", "1500", "--epsilons", "0.2", "--max-keys", "20",
        ])
        assert code == 0
        joined = "\n".join(lines)
        assert "avg err" in joined
        assert "wc98" in joined

    def test_run_figure6_small(self):
        code, lines = run_cli([
            "run", "figure6", "--records", "1200", "--network-sizes", "1", "4", "--max-keys", "20",
        ])
        assert code == 0
        joined = "\n".join(lines)
        assert "levels" in joined

    def test_run_ablations(self):
        code, lines = run_cli(["run", "ablations", "--records", "1000"])
        assert code == 0
        joined = "\n".join(lines)
        assert "policy" in joined and "strategy" in joined

    def test_run_on_snmp_dataset(self):
        code, lines = run_cli([
            "run", "table3", "--dataset", "snmp", "--records", "1200",
        ])
        assert code == 0
        assert any("snmp" in line for line in lines)

    def test_run_with_json_output(self, tmp_path):
        output = tmp_path / "table3.json"
        code, lines = run_cli([
            "run", "table3", "--records", "1200", "--output", str(output),
        ])
        assert code == 0
        assert output.exists()
        import json

        payload = json.loads(output.read_text())
        assert {entry["variant"] for entry in payload} == {"ECM-EH", "ECM-DW", "ECM-RW"}
        assert any(str(output) in line for line in lines)

    def test_run_with_csv_output(self, tmp_path):
        output = tmp_path / "ablations.csv"
        code, _lines = run_cli([
            "run", "ablations", "--records", "1000", "--output", str(output),
        ])
        assert code == 0
        assert output.exists()
        header = output.read_text().splitlines()[0]
        assert "policy" in header


class TestServeReplayParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7600
        assert args.mode == "flat"
        assert not hasattr(args, "backend")
        assert args.batch_size == 1024
        assert args.restore is None

    def test_serve_full_flag_surface(self):
        args = build_parser().parse_args([
            "serve", "--mode", "multisite", "--sites", "8", "--period", "500",
            "--window-model", "count",
            "--snapshot-every", "2.5", "--snapshot-path", "snap.json",
            "--restore", "old.json", "--queue-chunks", "16",
        ])
        assert args.mode == "multisite"
        assert args.sites == 8
        assert args.window_model == "count"
        assert args.snapshot_every == 2.5
        assert args.restore == "old.json"

    def test_serve_rejects_bad_mode_and_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--mode", "turbo"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "ram"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--backend", "object"])

    def test_serve_rejects_snapshot_period_without_path(self):
        code, lines = run_cli(["serve", "--snapshot-every", "5"])
        assert code == 2
        assert any("snapshot_path" in line for line in lines)

    def test_serve_rejects_restore_of_a_pooled_server(self, tmp_path):
        code, lines = run_cli([
            "serve", "--port", "0", "--pool", "--pool-dir", str(tmp_path / "pool"),
            "--restore", str(tmp_path / "snap.json"),
        ])
        assert code == 2
        assert lines == [
            "error: --restore does not apply to a pooled server: the pool directory "
            "(catalog + per-tenant snapshots) is the durable state"
        ]

    def test_serve_reports_a_missing_restore_snapshot(self, tmp_path):
        missing = tmp_path / "no-such-snapshot.json"
        code, lines = run_cli(["serve", "--port", "0", "--restore", str(missing)])
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot read the --restore snapshot: ")
        assert str(missing) in lines[0]

    def test_replay_defaults(self):
        args = build_parser().parse_args(["replay"])
        assert args.records == 50_000
        assert args.batch_size == 1024
        assert args.rate is None
        assert args.query_every == 8

    def test_replay_reports_unreachable_server(self):
        # Port 1 on localhost is never listening: replay must fail politely.
        code, lines = run_cli(["replay", "--port", "1", "--records", "100"])
        assert code == 1
        assert any("could not reach" in line for line in lines)


class TestLint:
    """``repro lint`` delegates to tools/reprolint (the checkout's checker)."""

    def test_lint_smoke_on_a_clean_file(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        code, lines = run_cli(["lint", str(clean)])
        assert code == 0
        assert lines[-1] == "reprolint: clean"

    def test_lint_flags_and_reports_findings(self, tmp_path):
        dirty = tmp_path / "src" / "repro" / "service" / "bad.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("x = hash('a')\n", encoding="utf-8")
        code, lines = run_cli(["lint", str(dirty), "--rules", "RL001"])
        assert code == 1
        assert any("RL001" in line for line in lines)

    def test_lint_list_rules(self):
        code, lines = run_cli(["lint", "--list-rules"])
        assert code == 0
        joined = "\n".join(lines)
        for rule_code in ["RL001", "RL002", "RL003", "RL005", "RL006"]:
            assert rule_code in joined
