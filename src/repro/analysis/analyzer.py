"""Parse modules once, run every rule, filter suppressions.

:func:`analyze_source` is the single-module entry point: one parse, one
:class:`ModuleContext` shared by every rule (with a lazily built parent map
so rules can walk *up* the tree — "is this ``wait()`` inside a ``while``
loop" questions), findings filtered through the per-line
``# repro: ignore[rule]`` table and returned sorted by location.

:func:`analyze_project` is the whole-tree entry point the CLI uses: it
runs every rule over each file under the given paths, tracks which
waivers actually suppressed something (reporting dead ones as
``unused-waiver``), and returns structured warnings for waivers naming
unknown rules.

A file that does not parse yields a single ``parse-error`` pseudo-finding
instead of crashing the run: an unparseable file in ``src`` must fail the
CI gate, not dodge it.
"""

from __future__ import annotations

import ast
import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, all_rules, rule_names
from repro.analysis.suppressions import is_suppressed, suppressed_rules

#: rule name reserved for files the parser rejects (not suppressible by a
#: registered rule since the suppression table itself needs a parseable
#: line, but a bare ignore waiver on the offending line still works).
PARSE_ERROR_RULE = "parse-error"

#: pseudo-rule for ignore waivers that suppress nothing on their line — a
#: refactor that moves the offending code leaves the waiver behind,
#: silently pre-waiving whatever lands there next.
UNUSED_WAIVER_RULE = "unused-waiver"


@dataclass
class ModuleContext:
    """One parsed module plus the shared lookups rules need."""

    path: str
    source: str
    tree: ast.Module
    _parents: "dict[ast.AST, ast.AST]" = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node

    def parent(self, node: ast.AST) -> "ast.AST | None":
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> "Iterator[ast.AST]":
        """Walk from ``node``'s parent up to the module root."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def functions(self) -> "Iterator[ast.FunctionDef | ast.AsyncFunctionDef]":
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def classes(self) -> "Iterator[ast.ClassDef]":
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


def walk_scope(node: ast.AST) -> "Iterator[ast.AST]":
    """Walk ``node``'s subtree without descending into nested scopes.

    A ``yield`` or lock acquisition inside a nested ``def``/``lambda``/
    ``class`` body executes in *that* scope, not the enclosing one, so
    scope-sensitive rules must not attribute it to the outer function.
    The root node itself is not yielded.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        yield current
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))


def analyze_source(
    source: str, path: str = "<string>", rules: "Sequence[Rule] | None" = None
) -> "list[Finding]":
    """Run ``rules`` (default: all) over one module's source."""
    if rules is None:
        rules = all_rules()
    table = suppressed_rules(source)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        finding = Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            rule=PARSE_ERROR_RULE,
            message=f"file does not parse: {exc.msg}",
        )
        if is_suppressed(table, finding.line, finding.rule):
            return []
        return [finding]
    ctx = ModuleContext(path=path, source=source, tree=tree)
    findings: "list[Finding]" = []
    for rule in rules:
        for finding in rule.check(ctx):
            if not is_suppressed(table, finding.line, finding.rule):
                findings.append(finding)
    return sorted(findings)


def analyze_file(path: str, rules: "Sequence[Rule] | None" = None) -> "list[Finding]":
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return analyze_source(source, path=path, rules=rules)


def iter_python_files(paths: Iterable[str]) -> "Iterator[str]":
    """Expand files and directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)
        else:
            yield path


@dataclass(frozen=True, order=True)
class WaiverWarning:
    """A ``# repro: ignore[...]`` comment naming a rule nobody registered.

    Not a finding (a renamed rule must not brick the gate) but no longer
    stderr-only either: the CLI embeds these in ``--format json`` output
    so CI artifacts capture them.
    """

    path: str
    line: int
    rule: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: warning: suppression names unknown "
            f"rule {self.rule!r}"
        )

    def to_dict(self) -> "dict[str, object]":
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "kind": "unknown-waiver",
        }


@dataclass
class ProjectAnalysis:
    """Everything one whole-tree analyzer run produced."""

    findings: "list[Finding]"
    n_files: int
    warnings: "list[WaiverWarning]"
    elapsed_seconds: float


def analyze_project(
    paths: Iterable[str],
    rules: "Sequence[Rule] | None" = None,
    check_waivers: bool = True,
) -> ProjectAnalysis:
    """Analyze every ``.py`` file under ``paths`` as one project.

    Every rule runs per file.  Suppressions are tracked: a waiver that
    suppressed nothing becomes an ``unused-waiver`` finding (unless
    ``check_waivers`` is off), and waivers naming unknown rules are
    returned as structured warnings.
    """
    started = time.perf_counter()
    if rules is None:
        rules = all_rules()

    tables: "dict[str, dict[int, frozenset[str] | None]]" = {}
    raw: "list[Finding]" = []
    n_files = 0
    for filepath in iter_python_files(paths):
        n_files += 1
        with open(filepath, encoding="utf-8") as handle:
            source = handle.read()
        tables[filepath] = suppressed_rules(source)
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            raw.append(
                Finding(
                    path=filepath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule=PARSE_ERROR_RULE,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        ctx = ModuleContext(path=filepath, source=source, tree=tree)
        for rule in rules:
            raw.extend(rule.check(ctx))

    # Suppression filtering, recording which waivers earned their keep.
    hits: "set[tuple[str, int, str]]" = set()  # (path, line, rule) that fired
    bare_hits: "set[tuple[str, int]]" = set()
    findings: "list[Finding]" = []
    for finding in raw:
        table = tables.get(finding.path, {})
        if is_suppressed(table, finding.line, finding.rule):
            hits.add((finding.path, finding.line, finding.rule))
            bare_hits.add((finding.path, finding.line))
        else:
            findings.append(finding)

    known = set(rule_names()) | {PARSE_ERROR_RULE, UNUSED_WAIVER_RULE}
    # Staleness is only provable for rules that actually ran this pass: under
    # --select, a waiver for an unselected rule may well be earning its keep.
    ran = {rule.name for rule in rules} | {PARSE_ERROR_RULE, UNUSED_WAIVER_RULE}
    full_catalog = set(rule_names()) <= ran
    warnings: "list[WaiverWarning]" = []
    for filepath, table in sorted(tables.items()):
        for lineno, entry in sorted(table.items()):
            if entry is None:
                # A bare ignore waives *any* rule, so it is provably stale
                # only when the whole catalog ran and nothing hit the line.
                if check_waivers and full_catalog and (filepath, lineno) not in bare_hits:
                    findings.append(
                        Finding(
                            path=filepath,
                            line=lineno,
                            col=1,
                            rule=UNUSED_WAIVER_RULE,
                            message=(
                                "bare '# repro: ignore' suppresses nothing "
                                "on this line; delete the stale waiver"
                            ),
                        )
                    )
                continue
            # Naming the pseudo-rule itself waives staleness for the whole
            # line — the escape hatch for deliberately pre-placed waivers.
            self_waived = UNUSED_WAIVER_RULE in entry
            for name in sorted(entry):
                if name not in known:
                    warnings.append(WaiverWarning(filepath, lineno, name))
                elif name == UNUSED_WAIVER_RULE or self_waived or name not in ran:
                    continue
                elif check_waivers and (filepath, lineno, name) not in hits:
                    findings.append(
                        Finding(
                            path=filepath,
                            line=lineno,
                            col=1,
                            rule=UNUSED_WAIVER_RULE,
                            message=(
                                f"waiver '# repro: ignore[{name}]' "
                                "suppresses nothing on this line; delete "
                                "the stale waiver"
                            ),
                        )
                    )

    return ProjectAnalysis(
        findings=sorted(findings),
        n_files=n_files,
        warnings=sorted(warnings),
        elapsed_seconds=time.perf_counter() - started,
    )
