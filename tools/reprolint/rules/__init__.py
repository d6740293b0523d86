"""Rule registry: every rule is a class registered under its ``RL`` code.

Adding a rule is three steps (see docs/development.md for the worked
example): subclass :class:`Rule`, decorate it with :func:`register`, and add
a must-flag + must-pass fixture pair to ``tests/tools/test_reprolint.py``.
The module import below is what populates the registry — a rule module that
is not imported here does not exist as far as the checker is concerned.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from ..engine import Finding, ModuleFile

__all__ = ["Rule", "RULES", "register", "all_rules", "dotted_name"]


class Rule:
    """Base class of every reprolint rule.

    Class attributes:
        code: Stable machine code (``RL001`` ...), unique in the registry.
        name: Short kebab-case rule name for the catalog.
        rationale: One-line why — which repo invariant the rule guards.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def applies_to(self, module: ModuleFile) -> bool:
        """Whether this rule scans ``module`` at all."""
        return True

    def check_module(self, module: ModuleFile) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract


#: The registry: code -> rule class.
RULES: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (import-time plugin)."""
    if not rule_class.code or not rule_class.code.startswith("RL"):
        raise ValueError("rule %r needs an RLxxx code" % (rule_class.__name__,))
    if rule_class.code in RULES:
        raise ValueError("duplicate rule code %s" % (rule_class.code,))
    RULES[rule_class.code] = rule_class
    return rule_class


def all_rules(only: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate the registered rules (optionally a code subset)."""
    if only is None:
        codes = sorted(RULES)
    else:
        codes = []
        for code in only:
            if code not in RULES:
                raise KeyError("unknown rule code %r (known: %s)" % (code, ", ".join(sorted(RULES))))
            codes.append(code)
    return [RULES[code]() for code in codes]


def dotted_name(node: ast.AST) -> str | None:
    """Dotted name of a Name/Attribute chain (``self.catalog.touch``), else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# Import-time registration of the built-in rules (the plugin entry point).
from . import async_rules as _async_rules  # noqa: E402,F401
from . import determinism as _determinism  # noqa: E402,F401
