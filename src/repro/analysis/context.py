"""What a rule reads and what it reports.

A rule sees one parsed module through a :class:`ModuleContext` (with a
parent map, so rules can walk *up* the tree — "is this ``wait()`` inside
a ``while`` loop" questions) and reports each violation as a
:class:`Finding`, printed in the ``path:line:col: rule message`` shape
editors and CI annotations both parse.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is by ``(path, line, col, rule)`` so reports are stable across
    runs and rule order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The one-line human form: ``path:line:col: rule message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class ModuleContext:
    """One parsed module plus the shared lookups rules need."""

    path: str
    tree: ast.Module
    _parents: "dict[ast.AST, ast.AST]" = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node

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
