"""Per-line ``# repro: ignore[rule] why`` waiver comments.

A finding is suppressed when the physical line it is reported on carries a
waiver naming its rule.  Waivers are per-line on purpose: a waiver should
sit next to the code it excuses, with the justification in the same
comment, the way the tree's ``# noqa`` comments already work.

Syntax (anywhere in the line, usually after code)::

    self._rng = np.random.default_rng()  # repro: ignore[np-random-legacy] plumbing
    paired()  # repro: ignore[rule-a, rule-b] why both are safe here

A waiver that names no rule (``# repro: ignore``, ``ignore[]``) or a rule
the analyzer does not know waives nothing; the analyzer reports it as an
``unused-waiver`` finding.
"""

from __future__ import annotations

import io
import re
import tokenize

_SUPPRESSION_RE = re.compile(r"#\s*repro:\s*ignore(?:\[(?P<rules>[^\]]*)\])?")


def _comment_tokens(source: str) -> "list[tuple[int, str]]":
    """``(lineno, text)`` for every real comment token in ``source``.

    Tokenizing (rather than regex-scanning raw lines) keeps waiver syntax
    quoted inside strings and docstrings — like the examples in this
    module's own docstring — from being treated as live waivers.  A file
    the tokenizer rejects falls back to a plain line scan so that
    ``# repro: ignore[parse-error]`` can still waive a ``parse-error``
    finding.
    """
    try:
        return [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [
            (lineno, line)
            for lineno, line in enumerate(source.splitlines(), start=1)
            if "#" in line
        ]


def suppressed_rules(source: str) -> "dict[int, frozenset[str]]":
    """Map each 1-based line carrying a waiver to the rule names it lists.

    A waiver that lists no name maps to the empty set: it waives nothing.
    """
    table: "dict[int, frozenset[str]]" = {}
    for lineno, text in _comment_tokens(source):
        match = _SUPPRESSION_RE.search(text)
        if match is not None:
            names = (match.group("rules") or "").split(",")
            table[lineno] = frozenset(name.strip() for name in names if name.strip())
    return table
