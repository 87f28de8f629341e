"""Baseline workflow: adopt new rules on a legacy tree without blocking.

A baseline file records the findings a tree is *known* to carry, keyed by
``(path, rule, message)`` fingerprint — deliberately not by line number,
so reflowing a file does not invalidate its baseline, while any change to
what the finding actually says does.  ``--baseline`` subtracts the
recorded multiset from a run's findings: only findings **not** in the
baseline fail the gate, so a new rule can land today and the existing
debt can be paid down finding by finding (each fix shrinks the file in
review).  ``--write-baseline`` regenerates the file; the round-trip
(write, then re-run against it) always exits clean.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable, Sequence

from repro.analysis.findings import Finding

_FORMAT_VERSION = 1


def fingerprint(finding: Finding) -> str:
    """Line-number-free identity of one finding."""
    return f"{_posix(finding.path)}|{finding.rule}|{finding.message}"


def _posix(path: str) -> str:
    return path.replace("\\", "/")


def render_baseline(findings: Iterable[Finding]) -> str:
    """Serialize findings into baseline JSON (sorted, diff-friendly)."""
    counts = Counter(fingerprint(finding) for finding in findings)
    payload = {
        "version": _FORMAT_VERSION,
        "entries": {key: counts[key] for key in sorted(counts)},
    }
    return json.dumps(payload, indent=2) + "\n"


def write_baseline(path: str, findings: Iterable[Finding]) -> int:
    """Write the baseline file; returns the number of distinct entries."""
    text = render_baseline(findings)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return len(json.loads(text)["entries"])


def load_baseline(path: str) -> "Counter[str]":
    """Load a baseline file into a fingerprint multiset.

    Raises ``ValueError`` on a malformed or future-versioned file — a
    silently ignored baseline would fail CI with every known finding.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported baseline format in {path!r} "
            f"(want version {_FORMAT_VERSION})"
        )
    entries = payload.get("entries")
    if not isinstance(entries, dict):
        raise ValueError(f"malformed baseline in {path!r}: no entries object")
    counts: "Counter[str]" = Counter()
    for key, value in entries.items():
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"malformed baseline count for {key!r} in {path!r}")
        counts[key] = value
    return counts


def apply_baseline(
    findings: Sequence[Finding], baseline: "Counter[str]"
) -> "tuple[list[Finding], int]":
    """``(new findings, n suppressed by baseline)``.

    Multiset subtraction in sorted order: if the tree carries three
    identical findings and the baseline records two, exactly one (the
    new one) survives.
    """
    remaining = Counter(baseline)
    fresh: "list[Finding]" = []
    suppressed = 0
    for finding in sorted(findings):
        key = fingerprint(finding)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            suppressed += 1
        else:
            fresh.append(finding)
    return fresh, suppressed


def unmatched_entries(
    findings: Iterable[Finding], baseline: "Counter[str]"
) -> "Counter[str]":
    """Baseline entries the findings leave unused: fingerprint -> shortfall."""
    return baseline - Counter(fingerprint(finding) for finding in findings)
