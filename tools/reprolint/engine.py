"""Checker engine: file loading, suppression handling, and the run loop.

The engine is rule-agnostic.  It walks the target paths, parses every
Python file once, hands each :class:`ModuleFile` to the rules, then
filters the collected findings through the suppression comments.  Rules never need to
reimplement path walking, parsing, or suppression logic.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (rules import engine)
    from .rules import Rule

__all__ = [
    "Finding",
    "ModuleFile",
    "iter_python_files",
    "run_checks",
]

#: ``# reprolint: disable=RL001`` (same line as the finding) or
#: ``# reprolint: disable-file=RL001`` (anywhere in the file).  Multiple
#: codes are comma-separated; anything after ``--`` is the justification.
_SUPPRESSION_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable|disable-file)\s*=\s*(?P<codes>RL\d+(?:\s*,\s*RL\d+)*)"
)

#: Directories never scanned (caches, VCS internals, virtualenvs).
_SKIPPED_DIRS = frozenset(
    [".git", "__pycache__", ".mypy_cache", ".ruff_cache", ".pytest_cache", ".venv", "venv"]
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def text(self) -> str:
        return "%s:%d:%d: %s %s" % (self.path, self.line, self.col, self.code, self.message)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


class ModuleFile:
    """One parsed Python source file plus its suppression comments."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        #: Path as reported in findings (relative to the invocation, POSIX).
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=display_path)
        #: line number -> codes disabled on that line.
        self.line_suppressions: dict[int, frozenset[str]] = {}
        #: codes disabled for the whole file.
        self.file_suppressions: frozenset[str] = frozenset()
        self._collect_suppressions()

    @classmethod
    def load(cls, path: Path, display_path: str | None = None) -> ModuleFile:
        display = display_path if display_path is not None else path.as_posix()
        return cls(path, display, path.read_text(encoding="utf-8"))

    def _collect_suppressions(self) -> None:
        file_wide: set[str] = set()
        for number, line in enumerate(self.lines, start=1):
            if "reprolint" not in line:
                continue
            match = _SUPPRESSION_RE.search(line)
            if match is None:
                continue
            codes = frozenset(code.strip() for code in match.group("codes").split(","))
            if match.group("kind") == "disable-file":
                file_wide.update(codes)
            else:
                self.line_suppressions[number] = codes
        self.file_suppressions = frozenset(file_wide)

    def suppressed(self, finding: Finding) -> bool:
        if finding.code in self.file_suppressions:
            return True
        return finding.code in self.line_suppressions.get(finding.line, frozenset())

    # Convenience for rules -------------------------------------------------
    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )

    @property
    def parts(self) -> tuple[str, ...]:
        """Path segments of the display path (used for directory scoping)."""
        return tuple(self.display_path.split("/"))


def iter_python_files(targets: Sequence[Path]) -> Iterable[tuple[Path, str]]:
    """Yield ``(path, display_path)`` for every Python file under the targets."""
    for target in targets:
        if target.is_file():
            yield target, target.as_posix()
            continue
        for path in sorted(target.rglob("*.py")):
            if any(part in _SKIPPED_DIRS for part in path.parts):
                continue
            yield path, path.as_posix()


def run_checks(
    targets: Sequence[Path], rules: Sequence[Rule]
) -> tuple[list[Finding], list[str]]:
    """Run ``rules`` over ``targets``; returns (findings, parse errors).

    Findings are suppression-filtered and sorted by location.  Files that do
    not parse are reported as errors rather than silently skipped — an
    invariant checker that skips unparseable files would go quiet exactly
    when the tree is at its worst.
    """
    modules: list[ModuleFile] = []
    errors: list[str] = []
    for path, display in iter_python_files(targets):
        try:
            modules.append(ModuleFile.load(path, display_path=display))
        except (SyntaxError, UnicodeDecodeError) as exc:
            errors.append("%s: cannot parse: %s" % (display, exc))
    raw: list[Finding] = []
    modules_by_display = {module.display_path: module for module in modules}
    for rule in rules:
        for module in modules:
            if rule.applies_to(module):
                raw.extend(rule.check_module(module))

    findings = []
    for finding in sorted(set(raw)):
        module = modules_by_display.get(finding.path)
        if module is not None and module.suppressed(finding):
            continue
        findings.append(finding)
    return findings, errors
