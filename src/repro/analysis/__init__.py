"""Project-invariant analysis: static rules plus a runtime sanitizer.

Two halves, one subsystem:

- the **static analyzer** (``python -m repro.analysis [paths]``) parses
  each module and enforces the concurrency/immutability invariants
  earlier fixes paid for, one module at a time — see
  :mod:`repro.analysis.rules` for the catalog, each rule tagged with the
  bug it descends from.  ``tests/analysis/test_clean_tree.py`` is its
  gate: ``src``, ``benchmarks``, ``tests`` and ``examples`` come back with
  no finding, every waiver justified inline and none of them stale;
- the **runtime sanitizer** (:mod:`repro.analysis.sanitizer`, opt-in via
  ``REPRO_SANITIZE=1``) records the process-wide lock acquisition graph
  and fails on ordering cycles, and arms a write-after-publish tripwire
  over cached/shared arrays; the pytest plugin
  (:mod:`repro.analysis.pytest_plugin`) additionally asserts zero leaked
  threads per test module.

Static analysis catches the lexically visible shape of a bug; the
sanitizer catches the dynamic interleavings it cannot see.  CI runs both.
"""

from repro.analysis.analyzer import ProjectAnalysis, analyze_project, analyze_source
from repro.analysis.context import Finding, ModuleContext, walk_scope
from repro.analysis.rules import RULES

__all__ = [
    "RULES",
    "Finding",
    "ModuleContext",
    "ProjectAnalysis",
    "analyze_project",
    "analyze_source",
    "walk_scope",
]
