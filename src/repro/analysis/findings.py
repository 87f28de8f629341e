"""The finding record every analysis rule emits.

A :class:`Finding` pins one invariant violation to a source location.  It is
deliberately flat and JSON-trivial: ``--format json`` serializes findings
as they are, and the human output (what CI prints) is one line per finding,
in the ``path:line:col: rule message`` shape editors and CI annotations
both parse.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is by ``(path, line, col, rule)`` so reports are stable across
    runs and rule registration order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> "dict[str, object]":
        return asdict(self)

    def render(self) -> str:
        """The one-line human form: ``path:line:col: rule message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
