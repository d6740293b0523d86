"""The claims table: it holds on the small run and on the committed results,
and it fails on a sketch with half its width and on a doctored results file."""

from __future__ import annotations

import copy
import json

import pytest

from repro.core import config as config_module
from repro.experiments import claims
from repro.experiments.claims import CLAIMS, RUNS, check_claims, compare_rows, run_rows

from .conftest import EXPERIMENTS_JSON


#: Table 3's rate ratios are checked on the default-scale runs; tier-1 holds
#: the small run to looser floors (TestTable3UpdateRates).
UNTIMED = [claim for claim in CLAIMS if claim.experiment != "table3"]


@pytest.fixture(scope="module")
def committed():
    return json.loads(EXPERIMENTS_JSON.read_text(encoding="utf-8"))


def test_small_run_holds_every_untimed_claim(small_run):
    assert check_claims(small_run[0], UNTIMED) == []


def test_a_claim_without_rows_fails(small_run):
    rows = [row for row in small_run[0] if row["experiment"] != "inner-product"]
    assert check_claims(rows, UNTIMED) == [
        "inner-product: cross-stream inner-product error is within epsilon (Theorem 2) -- fails for no rows"
    ]


def test_every_claim_reads_rows_of_the_small_run(small_run):
    experiments = {row["experiment"] for row in small_run[0]}
    assert {claim.experiment for claim in CLAIMS} == experiments


def test_small_run_matches_the_committed_rows(small_run, committed):
    assert committed["runs"]["small"]["argv"] == list(RUNS["small"])
    assert compare_rows(small_run[0], committed["runs"]["small"]["rows"]) == []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_committed_runs_hold_every_claim(committed, name):
    assert committed["runs"][name]["argv"] == list(RUNS[name])
    assert check_claims(committed["runs"][name]["rows"]) == []


def test_halved_width_fails_the_check(committed, monkeypatch):
    derive = config_module.dimensions_for_error

    def halved(epsilon, delta):
        width, depth = derive(epsilon, delta)
        return width // 2, depth

    monkeypatch.setattr(config_module, "dimensions_for_error", halved)
    argv = ["run", "figure4", *RUNS["small"][2:]]
    rows = run_rows(argv, out=lambda line: None)
    expected = [row for row in committed["runs"]["small"]["rows"] if row["experiment"] == "figure4"]
    figure4 = [claim for claim in CLAIMS if claim.experiment == "figure4"]
    failures = check_claims(rows, figure4) + compare_rows(rows, expected)
    assert any("memory_bytes" in failure for failure in failures)
    assert any("maximum_error" in failure for failure in failures)


def test_doctored_results_fail_the_check(small_run, committed, tmp_path, monkeypatch):
    doctored = copy.deepcopy(committed)
    cell = next(row for row in doctored["runs"]["small"]["rows"] if row["experiment"] == "table4")
    cell["distributed_error"] += 1e-6
    fresh = next(row for row in small_run[0] if row["experiment"] == "table4")
    path = tmp_path / "EXPERIMENTS.json"
    path.write_text(json.dumps(doctored), encoding="utf-8")
    # Table 3's timings are never compared; the committed ones keep its rate
    # claims, which the small run is not held to, out of this test.
    timings = [row for row in committed["runs"]["small"]["rows"] if row["experiment"] == "table3"]
    rows = [row for row in small_run[0] if row["experiment"] != "table3"] + timings
    monkeypatch.setattr(claims, "run_rows", lambda argv, out: rows)
    lines: list[str] = []
    assert claims.main(["check", str(path), "small"], out=lines.append) == 1
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL small: table4 [ECM-EH point epsilon=0.1]: distributed_error = %r, committed %r"
        % (fresh["distributed_error"], cell["distributed_error"])
    ]
    path.write_text(json.dumps(committed), encoding="utf-8")
    assert claims.main(["check", str(path), "small"], out=lines.append) == 0


def test_a_broken_claim_is_reported(committed):
    rows = copy.deepcopy(committed["runs"]["wc98"]["rows"])
    merge = next(row for row in rows if row["experiment"] == "merge-strategy" and row["strategy"] == "all-at-end")
    merge["maximum_error"] = merge["guarantee"] * 1.01
    assert check_claims(rows) == [
        "merge-strategy: maximum error of each replay is within the Theorem 4 aggregated epsilon"
        " -- fails for all-at-end epsilon=0.05"
    ]
