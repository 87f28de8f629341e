"""Waiver audit: a waiver that suppresses nothing is an ``unused-waiver``."""

import pathlib

import pytest

from repro.analysis import analyze_project, analyze_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

LEGACY_SEED = "import numpy as np\nnp.random.seed(7)"
NAMELESS_OR_UNKNOWN = ["# repro: ignore", "# repro: ignore[]", "# repro: ignore[no-such-rule]"]


def _rules(findings):
    return [(f.line, f.rule) for f in findings]


class TestUnusedWaiver:
    def test_bad_fixture_fires_exactly_unused_waiver(self):
        analysis = analyze_project([str(FIXTURES / "bad_unused_waiver.py.txt")])
        assert [f.rule for f in analysis.findings] == ["unused-waiver"] * 3
        messages = " ".join(f.message for f in analysis.findings)
        # All three shapes: a stale known rule, no rule, a misspelled rule.
        assert "ignore[lock-reentry]' suppresses nothing" in messages
        assert "names no rule" in messages
        assert "ignore[lock-rentry]' names an unknown rule" in messages

    def test_good_fixture_waiver_earns_its_keep(self):
        analysis = analyze_project([str(FIXTURES / "good_unused_waiver.py.txt")])
        assert analysis.findings == [], [f.render() for f in analysis.findings]

    @pytest.mark.parametrize("waiver", NAMELESS_OR_UNKNOWN, ids=["bare", "empty", "unknown"])
    def test_waiver_naming_no_known_rule_suppresses_nothing(self, waiver):
        findings = analyze_source(f"{LEGACY_SEED}  {waiver} why\n")
        assert _rules(findings) == [(2, "np-random-legacy"), (2, "unused-waiver")]

    @pytest.mark.parametrize("waiver", NAMELESS_OR_UNKNOWN, ids=["bare", "empty", "unknown"])
    def test_waiver_naming_no_known_rule_is_one_finding(self, waiver):
        assert _rules(analyze_source(f"x = 1  {waiver}\n")) == [(1, "unused-waiver")]

    def test_a_known_name_beside_an_unknown_one_still_suppresses(self):
        findings = analyze_source(f"{LEGACY_SEED}  # repro: ignore[np-random-legacy, typo]\n")
        assert _rules(findings) == [(2, "unused-waiver")]
        assert "ignore[typo]' names an unknown rule" in findings[0].message

    def test_suppressing_unused_waiver_on_its_own_line(self):
        # The stale waiver itself can be waived by naming the pseudo-rule:
        # the escape hatch for a deliberately pre-placed waiver (e.g.
        # generated code landing in a follow-up commit).
        source = "x = 1  # repro: ignore[lock-reentry, unused-waiver] pre-placed\n"
        assert analyze_source(source) == []

    def test_the_self_waiver_does_not_excuse_an_unknown_name(self):
        source = "x = 1  # repro: ignore[lock-rentry, unused-waiver] pre-placed\n"
        findings = analyze_source(source)
        assert _rules(findings) == [(1, "unused-waiver")]
        assert "lock-rentry" in findings[0].message

    def test_parse_error_is_waived_by_name(self):
        source = "def broken(:  # repro: ignore[parse-error] generated stub\n"
        assert analyze_source(source) == []
        findings = analyze_source("def broken(:  # repro: ignore\n")
        assert sorted(_rules(findings)) == [(1, "parse-error"), (1, "unused-waiver")]

    def test_stale_parse_error_waiver_on_a_parsing_file(self):
        source = "x = 1  # repro: ignore[parse-error]\n"
        assert _rules(analyze_source(source)) == [(1, "unused-waiver")]

    def test_project_and_source_report_the_same_findings(self, tmp_path):
        source = (FIXTURES / "bad_unused_waiver.py.txt").read_text(encoding="utf-8")
        target = tmp_path / "module.py"
        target.write_text(source, encoding="utf-8")
        analysis = analyze_project([str(tmp_path)])
        assert analysis.n_files == 1
        assert analysis.findings == analyze_source(source, path=str(target))
