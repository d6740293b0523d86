"""The small ``repro run all`` both experiment test modules read."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.claims import RUNS, run_rows

#: The committed results of every run in ``RUNS``.
EXPERIMENTS_JSON = Path(__file__).resolve().parents[2] / "EXPERIMENTS.json"


@pytest.fixture(scope="session")
def small_run() -> tuple[list[dict], str]:
    """Rows and printed tables of the ``small`` run (about 12 s, run once for all tests)."""
    lines: list[str] = []
    rows = run_rows(RUNS["small"], lines.append)
    return rows, "\n".join(lines)
