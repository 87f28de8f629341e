"""Every ``REPRO_*`` environment variable the library reads is documented.

A knob is a name string in ``src/`` (the env lookups use the literal, or a
module constant holding it); prose mentions inside docstrings are not
knobs.  The README is the one place a user looks for them, so the two sets
must match exactly: a new knob lands with its documentation, and a deleted
one takes its documentation with it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z0-9_]+")


def knobs_read_by_src() -> "set[str]":
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and KNOB.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def test_src_knobs_are_exactly_the_documented_ones():
    documented = set(KNOB.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    read = knobs_read_by_src()
    assert read, "no REPRO_* lookups found under src/"
    assert read - documented == set(), "knobs read under src/ but not in README.md"
    assert documented - read == set(), "knobs in README.md that src/ no longer reads"
