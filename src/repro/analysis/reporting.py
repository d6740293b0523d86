"""Export experiment results to JSON / CSV for plotting and archival.

The experiment runners (:mod:`repro.experiments`) return lists of small
dataclasses — one per table row or figure point.  This module turns any such
list into plain dictionaries and writes them to disk, so results can be
plotted with matplotlib/pandas elsewhere or attached to a report.  Derived
properties (``memory_megabytes``, ``updates_per_second``, ``ratio``, ...) are
included alongside the stored fields because they are what the paper's axes
actually show.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from collections.abc import Sequence
from typing import Any

from ..core.errors import ConfigurationError

__all__ = ["row_to_dict", "rows_to_dicts", "format_table", "write_json", "write_csv", "write_rows"]


def row_to_dict(row: Any) -> dict[str, Any]:
    """Convert one experiment-row dataclass into a flat dictionary.

    The row class's ``experiment`` tag comes first, so rows of different
    experiments in one file can be told apart; stored dataclass fields
    follow, then computed ``@property`` values (skipping any that fail or
    return non-scalar values).
    """
    if not dataclasses.is_dataclass(row) or isinstance(row, type):
        raise ConfigurationError("expected a dataclass instance, got %r" % (type(row),))
    data: dict[str, Any] = {}
    if isinstance(getattr(row, "experiment", None), str):
        data["experiment"] = row.experiment
    data.update(dataclasses.asdict(row))
    for name in dir(type(row)):
        if name.startswith("_") or name in data:
            continue
        attribute = getattr(type(row), name, None)
        if isinstance(attribute, property):
            try:
                value = getattr(row, name)
            except Exception:  # pragma: no cover - defensive: skip failing props
                continue
            if isinstance(value, (int, float, str, bool)) or value is None:
                data[name] = value
    return data


def rows_to_dicts(rows: Sequence[Any]) -> list[dict[str, Any]]:
    """Convert a list of experiment rows into dictionaries."""
    return [row_to_dict(row) for row in rows]


def format_table(rows: Sequence[Any], columns: Sequence[tuple[str, str, str]]) -> str:
    """Render rows as an aligned text table.

    Each column is ``(title, attribute, spec)``: ``spec`` is a printf
    conversion such as ``"-8s"`` or ``"10.4f"``, and its width pads the title
    too.  ``None`` values print as ``n/a``.
    """
    widths = [int(spec.split(".")[0].rstrip("sdf")) for _, _, spec in columns]
    header = " ".join("%*s" % (width, title) for width, (title, _, _) in zip(widths, columns))
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = []
        for width, (_, attribute, spec) in zip(widths, columns):
            value = getattr(row, attribute)
            cells.append("%*s" % (width, "n/a") if value is None else ("%" + spec) % value)
        lines.append(" ".join(cells))
    return "\n".join(lines)


def write_json(rows: Sequence[Any], path: str | Path, indent: int = 2) -> Path:
    """Write experiment rows to a JSON file; returns the path written."""
    path = Path(path)
    payload = rows_to_dicts(rows)
    path.write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_csv(rows: Sequence[Any], path: str | Path) -> Path:
    """Write experiment rows to a CSV file; returns the path written.

    The header is the union of all row keys (rows of mixed types are allowed,
    missing values are left blank), so a single file can hold, for example,
    both point-query and self-join rows of Figure 4.
    """
    path = Path(path)
    dicts = rows_to_dicts(rows)
    if not dicts:
        raise ConfigurationError("cannot write an empty result set")
    fieldnames: list[str] = []
    for entry in dicts:
        for key in entry:
            if key not in fieldnames:
                fieldnames.append(key)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames, restval="")
        writer.writeheader()
        for entry in dicts:
            writer.writerow(entry)
    return path


def write_rows(rows: Sequence[Any], path: str | Path) -> Path:
    """Write rows to JSON or CSV depending on the file extension."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        return write_json(rows, path)
    if suffix == ".csv":
        return write_csv(rows, path)
    raise ConfigurationError(
        "unsupported output extension %r (use .json or .csv)" % (suffix,)
    )
