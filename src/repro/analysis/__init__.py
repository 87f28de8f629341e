"""Project-invariant analysis: static rules plus a runtime sanitizer.

Two halves, one subsystem:

- the **static analyzer** (``python -m repro.analysis``) parses the tree
  and enforces, one module at a time, the concurrency/immutability
  invariants earlier PRs paid for — see :mod:`repro.analysis.rules` for
  the catalog, each rule tagged with the historical bug it descends from;
  ``--baseline`` adopts new rules on a legacy tree and fails on stale
  entries, ``--format json`` feeds CI artifacts;
- the **runtime sanitizer** (:mod:`repro.analysis.sanitizer`, opt-in via
  ``REPRO_SANITIZE=1``) records the process-wide lock acquisition graph
  and fails on ordering cycles, and arms a write-after-publish tripwire
  over cached/shared arrays; the pytest plugin
  (:mod:`repro.analysis.pytest_plugin`) additionally asserts zero leaked
  threads and shared-memory segments per test module.

Static analysis catches the lexically visible shape of a bug; the
sanitizer catches the dynamic interleavings it cannot see.  CI runs both.
"""

from repro.analysis.analyzer import (
    ModuleContext,
    ProjectAnalysis,
    WaiverWarning,
    analyze_file,
    analyze_project,
    analyze_source,
    walk_scope,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, all_rules, get_rule, register, rule_names

__all__ = [
    "Finding",
    "ModuleContext",
    "ProjectAnalysis",
    "Rule",
    "WaiverWarning",
    "all_rules",
    "analyze_file",
    "analyze_project",
    "analyze_source",
    "get_rule",
    "register",
    "rule_names",
    "walk_scope",
]
