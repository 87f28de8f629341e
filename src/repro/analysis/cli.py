"""``python -m repro.analysis`` — the static analyzer's command line.

Exit codes follow the convention CI keys off:

- ``0`` — analyzed cleanly (or every finding is in the ``--baseline``);
- ``1`` — findings reported, a file failed to parse, or a ``--baseline``
  entry went stale;
- ``2`` — usage error (unknown rule in ``--select``, no such path,
  unreadable baseline).

``--format json`` emits a single object with the run summary, findings,
and structured waiver warnings.  ``--baseline FILE`` subtracts a
committed finding multiset so new rules can be adopted on a legacy tree
without blocking (generate with ``--write-baseline``; the round-trip
exits 0).  An entry that matched fewer findings than it records is stale
and fails the run, so a fixed finding cannot leave a waiver behind for
the next identical one; like ``unused-waiver``, this is only judged for
entries under an analyzed path whose rule ran (or no longer exists).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from repro.analysis.analyzer import PARSE_ERROR_RULE, UNUSED_WAIVER_RULE, analyze_project
from repro.analysis.baseline import (
    apply_baseline,
    load_baseline,
    unmatched_entries,
    write_baseline,
)
from repro.analysis.registry import Rule, all_rules, get_rule, rule_names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-invariant static analyzer for the repro tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only this rule (repeatable); default: all registered rules",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in FILE; only new findings fail",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record the current findings into FILE and exit 0",
    )
    parser.add_argument(
        "--no-check-waivers",
        action="store_true",
        help="do not report '# repro: ignore' comments that suppress nothing",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (name, summary, lineage) and exit",
    )
    return parser


def _list_rules(stream) -> None:
    for rule in all_rules():
        print(rule.name, file=stream)
        print(f"    {rule.summary}", file=stream)
        print(f"    lineage: {rule.lineage}", file=stream)


def _stale_entries(
    leftover: "dict[str, int]",
    paths: "Sequence[str]",
    rules: "Sequence[Rule]",
    check_waivers: bool,
) -> "list[str]":
    """The unmatched baseline entries this run could have matched.

    Scoped like the ``unused-waiver`` check: an entry counts only if its
    path lies under an analyzed path and its rule ran (or is no longer
    registered), so ``--select`` runs and path subsets stay clean.
    """
    # Fingerprint paths start with the analyzed path exactly as given.
    roots = [path.replace("\\", "/").rstrip("/") + "/" for path in paths]
    registered = set(rule_names())
    ran = {rule.name for rule in rules} | {PARSE_ERROR_RULE}
    if check_waivers and registered <= ran:
        ran.add(UNUSED_WAIVER_RULE)
    known = registered | {PARSE_ERROR_RULE, UNUSED_WAIVER_RULE}
    stale = []
    for key in sorted(leftover):
        path, rule, _message = key.split("|", 2)
        under = any((path + "/").startswith(root) for root in roots)
        if under and (rule in ran or rule not in known):
            stale.append(key)
    return stale


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules(sys.stdout)
        return 0

    if args.select:
        try:
            rules = [get_rule(name) for name in dict.fromkeys(args.select)]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    else:
        rules = all_rules()

    for path in args.paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2

    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2

    analysis = analyze_project(
        args.paths, rules=rules, check_waivers=not args.no_check_waivers
    )

    if args.write_baseline is not None:
        n_entries = write_baseline(args.write_baseline, analysis.findings)
        print(
            f"baseline: {n_entries} entr{'y' if n_entries == 1 else 'ies'} "
            f"({len(analysis.findings)} finding(s)) written to "
            f"{args.write_baseline}"
        )
        return 0

    findings = analysis.findings
    n_baselined = 0
    stale: "list[str]" = []
    if baseline is not None:
        findings, n_baselined = apply_baseline(findings, baseline)
        leftover = unmatched_entries(analysis.findings, baseline)
        stale = _stale_entries(
            leftover, args.paths, rules, check_waivers=not args.no_check_waivers
        )
        for key in stale:
            print(
                f"{args.baseline}: stale entry, {leftover[key]} of {baseline[key]} "
                f"unmatched (regenerate with --write-baseline): {key}",
                file=sys.stderr,
            )

    if args.format != "json":
        for warning in analysis.warnings:
            print(warning.render(), file=sys.stderr)

    if args.format == "json":
        report = {
            "files": analysis.n_files,
            "rules": [rule.name for rule in rules],
            "elapsed_seconds": round(analysis.elapsed_seconds, 6),
            "baselined": n_baselined,
            "findings": [finding.to_dict() for finding in findings],
            "warnings": [warning.to_dict() for warning in analysis.warnings],
        }
        print(json.dumps(report, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        noun = "file" if analysis.n_files == 1 else "files"
        suffix = f" ({n_baselined} baselined)" if n_baselined else ""
        if findings:
            print(f"{len(findings)} finding(s) in {analysis.n_files} {noun}{suffix}")
        elif stale:
            print(
                f"{len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'}: "
                f"{analysis.n_files} {noun}, {len(rules)} rule(s){suffix}"
            )
        else:
            print(f"clean: {analysis.n_files} {noun}, {len(rules)} rule(s){suffix}")

    return 1 if findings or stale else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
