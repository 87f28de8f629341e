"""The merged tree must satisfy its own analyzer — the CI gate, as a test.

Self-hosting leg: the full project analysis (every rule plus stale-waiver
checking) runs over ``src/repro`` and must come back empty — every waiver
in the tree justified and earning its keep, every unknown name fixed.
"""

import pathlib

from repro.analysis import analyze_project

SRC = pathlib.Path(__file__).parents[2] / "src" / "repro"


def test_src_tree_is_clean():
    analysis = analyze_project([str(SRC)])
    assert analysis.n_files > 50, "analyzer saw suspiciously few files — wrong path?"
    rendered = "\n".join(finding.render() for finding in analysis.findings)
    assert not analysis.findings, f"analyzer findings on src:\n{rendered}"


def test_src_tree_has_no_unknown_waivers():
    analysis = analyze_project([str(SRC)])
    rendered = "\n".join(warning.render() for warning in analysis.warnings)
    assert not analysis.warnings, f"unknown waiver names in src:\n{rendered}"
