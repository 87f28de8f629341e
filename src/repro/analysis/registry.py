"""The pluggable rule registry.

Rules self-register at import time via the :func:`register` decorator; the
CLI and test suite enumerate them through :func:`all_rules`.  A rule is any
object with:

- ``name`` — the kebab-case identifier used in reports and suppressions;
- ``summary`` — a one-line description for ``--list-rules``;
- ``lineage`` — the historical bug this rule descends from (every rule in
  this tree was paid for by a real post-review fix; the catalog keeps the
  receipt);
- ``check(ctx)`` — yields :class:`repro.analysis.findings.Finding` objects
  for one parsed module (:class:`repro.analysis.analyzer.ModuleContext`).

Registration order is preserved for ``--list-rules`` but findings are
sorted by location, so registration order never changes a report.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

from repro.analysis.findings import Finding


@runtime_checkable
class Rule(Protocol):
    """Structural interface every registered rule satisfies."""

    name: str
    summary: str
    lineage: str

    def check(self, ctx) -> Iterable[Finding]:  # pragma: no cover - protocol
        ...


_RULES: "dict[str, Rule]" = {}


def register(rule_cls):
    """Class decorator: instantiate and register one rule.

    Raises ``ValueError`` on duplicate names — two rules sharing a name
    would make suppressions ambiguous.
    """
    rule = rule_cls()
    if not rule.name:
        raise ValueError(f"rule {rule_cls.__name__} has no name")
    if rule.name in _RULES:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    _RULES[rule.name] = rule
    return rule_cls


def all_rules() -> "list[Rule]":
    """Every registered rule, in registration order."""
    _ensure_loaded()
    return list(_RULES.values())


def get_rule(name: str) -> Rule:
    """The rule registered as ``name`` (KeyError with the catalog if absent)."""
    _ensure_loaded()
    try:
        return _RULES[name]
    except KeyError:
        raise KeyError(
            f"unknown rule {name!r}; registered: {sorted(_RULES)}"
        ) from None


def rule_names() -> "list[str]":
    _ensure_loaded()
    return sorted(_RULES)


def _ensure_loaded() -> None:
    # The built-in rules live in repro.analysis.rules and register on
    # import; importing lazily here breaks the registry/rules import cycle
    # while keeping "import repro.analysis.registry" side-effect free.
    from repro.analysis import rules  # noqa: F401
