"""Argument parsing and reporting for the reprolint command line."""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from collections.abc import Callable, Sequence

from .engine import Finding, run_checks
from .rules import RULES, all_rules

__all__ = ["build_parser", "main", "render_json", "render_text"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="AST-based invariant checker for the sketch-service repo "
        "(salted hashes, event-loop blocking, lock discipline, determinism, "
        "bounded RPC awaits).",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to check (default: src)")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="report format (default: text)")
    parser.add_argument("--rules", type=str, default=None, metavar="RL001,RL002",
                        help="comma-separated subset of rule codes to run")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def render_text(findings: Sequence[Finding], errors: Sequence[str]) -> str:
    lines = [finding.text() for finding in findings]
    lines.extend("error: %s" % (error,) for error in errors)
    if not lines:
        return "reprolint: clean"
    lines.append(
        "reprolint: %d finding(s)%s"
        % (len(findings), ", %d parse error(s)" % len(errors) if errors else "")
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], errors: Sequence[str]) -> str:
    payload = {
        "findings": [finding.to_dict() for finding in findings],
        "errors": list(errors),
        "count": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _rule_catalog() -> str:
    lines = []
    for code in sorted(RULES):
        rule = RULES[code]
        lines.append("%s %s" % (code, rule.name))
        lines.append("    %s" % (rule.rationale,))
    return "\n".join(lines)


def main(
    argv: Sequence[str] | None = None, out: Callable[[str], None] = print
) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        out(_rule_catalog())
        return 0
    try:
        rules = all_rules(
            [code.strip() for code in args.rules.split(",")] if args.rules else None
        )
    except KeyError as exc:
        out("error: %s" % (exc.args[0],))
        return 2
    targets = [Path(path) for path in args.paths]
    missing = [path for path in targets if not path.exists()]
    if missing:
        out("error: no such path: %s" % ", ".join(str(path) for path in missing))
        return 2
    findings, errors = run_checks(targets, rules)
    if args.format == "json":
        out(render_json(findings, errors))
    else:
        out(render_text(findings, errors))
    if errors:
        return 2
    return 1 if findings else 0
