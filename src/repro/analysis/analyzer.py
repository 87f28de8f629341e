"""Parse each module once, run every rule, apply and audit its waivers.

:func:`analyze_source` checks one module: one parse, one
:class:`~repro.analysis.context.ModuleContext` shared by every rule,
findings filtered through the module's ``# repro: ignore[rule]`` waivers,
and every waiver that suppressed nothing reported as ``unused-waiver`` (a
refactor that moves the offending code leaves its waiver behind, silently
pre-waiving whatever lands there next).  :func:`analyze_project` runs it
over every ``.py`` file under the given paths.

A file that does not parse yields a single ``parse-error`` finding
instead of crashing the run: an unparseable file must fail the gate, not
dodge it.  Files are decoded as Python decodes them (``tokenize.open``: a
BOM or a ``coding`` cookie, else UTF-8), and one that cannot be decoded is
a ``parse-error`` finding too.
"""

from __future__ import annotations

import ast
import os
import tokenize
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.analysis.context import Finding, ModuleContext
from repro.analysis.rules import RULES
from repro.analysis.suppressions import suppressed_rules

#: rule name of the finding for a file the parser rejects.
PARSE_ERROR_RULE = "parse-error"

#: rule name of the finding for a waiver that suppresses nothing.  Naming
#: it in a waiver excuses that line's other names from the audit: the
#: escape hatch for a deliberately pre-placed waiver.
UNUSED_WAIVER_RULE = "unused-waiver"

#: every name a waiver may list.
KNOWN_RULES = frozenset(rule.name for rule in RULES) | {PARSE_ERROR_RULE, UNUSED_WAIVER_RULE}


def analyze_source(source: str, path: str = "<string>") -> "list[Finding]":
    """Every finding in one module's source, sorted by location."""
    waivers = suppressed_rules(source)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        line, col = exc.lineno or 1, (exc.offset or 0) + 1
        raw = [Finding(path, line, col, PARSE_ERROR_RULE, f"file does not parse: {exc.msg}")]
    else:
        ctx = ModuleContext(path=path, tree=tree)
        raw = [finding for rule in RULES for finding in rule.check(ctx)]
    findings = [f for f in raw if f.rule not in waivers.get(f.line, ())]
    fired = {(f.line, f.rule) for f in raw}
    for line, names in waivers.items():
        findings.extend(_unused_waivers(path, line, names, fired))
    return sorted(findings)


def _unused_waivers(
    path: str, line: int, names: "frozenset[str]", fired: "set[tuple[int, str]]"
) -> "Iterator[Finding]":
    """The ``unused-waiver`` findings for the waiver on ``line``."""

    def unused(message: str) -> Finding:
        return Finding(path, line, 1, UNUSED_WAIVER_RULE, message)

    if not names:
        yield unused("'# repro: ignore' names no rule, so it suppresses nothing")
    for name in sorted(names - KNOWN_RULES):
        yield unused(f"waiver '# repro: ignore[{name}]' names an unknown rule")
    if UNUSED_WAIVER_RULE in names:
        return
    for name in sorted(names & KNOWN_RULES):
        if (line, name) not in fired:
            yield unused(
                f"waiver '# repro: ignore[{name}]' suppresses nothing on this "
                "line; delete the stale waiver"
            )


def iter_python_files(paths: Iterable[str]) -> "Iterator[str]":
    """Expand directories into a sorted stream of ``.py`` paths.

    A path given as a file is analyzed whatever its suffix.
    """
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", ".git"))
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)
        else:
            yield path


@dataclass
class ProjectAnalysis:
    """Everything one whole-tree analyzer run produced."""

    findings: "list[Finding]"
    n_files: int


def analyze_project(paths: Iterable[str]) -> ProjectAnalysis:
    """Analyze every ``.py`` file under ``paths``, one module at a time."""
    findings: "list[Finding]" = []
    n_files = 0
    for filepath in iter_python_files(paths):
        n_files += 1
        try:
            with tokenize.open(filepath) as handle:
                source = handle.read()
        except (SyntaxError, UnicodeDecodeError) as exc:
            message = f"file does not decode: {exc}"
            findings.append(Finding(filepath, 1, 1, PARSE_ERROR_RULE, message))
            continue
        findings.extend(analyze_source(source, filepath))
    return ProjectAnalysis(findings=sorted(findings), n_files=n_files)
