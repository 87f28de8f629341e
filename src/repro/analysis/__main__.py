"""``python -m repro.analysis [paths]``: the static analyzer's command line.

Analyzes every ``.py`` file under ``paths`` (default ``src``; a path given
as a file is analyzed whatever its suffix) and prints one
``path:line:col: rule message`` line per finding, then a summary.  Exit
code 0 means clean, 1 findings (an unparseable or undecodable file and a
stale or unknown waiver included), 2 a usage error such as a missing path.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.analysis.analyzer import analyze_project
from repro.analysis.rules import RULES


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-invariant static analyzer for the repro tree.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    paths = parser.parse_args(argv).paths
    for path in paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
    analysis = analyze_project(paths)
    for finding in analysis.findings:
        print(finding.render())
    files = f"{analysis.n_files} file{'' if analysis.n_files == 1 else 's'}"
    if analysis.findings:
        print(f"{len(analysis.findings)} finding(s) in {files}")
        return 1
    print(f"clean: {files}, {len(RULES)} rules")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
