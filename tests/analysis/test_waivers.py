"""Waiver bookkeeping: stale waivers are findings, unknown ones warnings."""

import pathlib

from repro.analysis import analyze_project
from repro.analysis.baseline import fingerprint

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestUnusedWaiver:
    def test_bad_fixture_fires_exactly_unused_waiver(self):
        analysis = analyze_project([str(FIXTURES / "bad_unused_waiver.py")])
        assert analysis.findings
        assert {f.rule for f in analysis.findings} == {"unused-waiver"}
        messages = " ".join(f.message for f in analysis.findings)
        # Both shapes are covered: a bracketed known rule and a bare ignore.
        assert "ignore[lock-reentry]" in messages
        assert "bare" in messages

    def test_good_fixture_waiver_earns_its_keep(self):
        analysis = analyze_project([str(FIXTURES / "good_unused_waiver.py")])
        assert analysis.findings == [], [f.render() for f in analysis.findings]
        assert analysis.warnings == []

    def test_fingerprints_survive_a_line_shift(self, tmp_path):
        # Stale-waiver entries sit in the baseline too, keyed without lines.
        source = (FIXTURES / "bad_unused_waiver.py").read_text(encoding="utf-8")
        target = tmp_path / "bad_unused_waiver.py"
        target.write_text(source, encoding="utf-8")
        before = analyze_project([str(target)]).findings
        target.write_text("# one more line\n" + source, encoding="utf-8")
        after = analyze_project([str(target)]).findings
        assert [f.line + 1 for f in before] == [f.line for f in after]
        assert sorted(map(fingerprint, after)) == sorted(map(fingerprint, before))

    def test_check_waivers_off_silences_the_pseudo_rule(self):
        analysis = analyze_project(
            [str(FIXTURES / "bad_unused_waiver.py")], check_waivers=False
        )
        assert analysis.findings == []

    def test_suppressing_unused_waiver_on_its_own_line(self, tmp_path):
        # Edge case: the stale waiver itself can be waived by naming the
        # pseudo-rule — the escape hatch for a deliberately pre-placed
        # waiver (e.g. generated code landing in a follow-up commit).
        target = tmp_path / "mod.py"
        target.write_text(
            "x = 1  # repro: ignore[lock-reentry, unused-waiver] pre-placed\n",
            encoding="utf-8",
        )
        analysis = analyze_project([str(target)])
        assert analysis.findings == [], [f.render() for f in analysis.findings]


class TestSelectInteraction:
    def test_waiver_for_unselected_rule_is_not_called_stale(self, tmp_path):
        from repro.analysis import get_rule

        target = tmp_path / "mod.py"
        target.write_text(
            "import numpy as np\n"
            "np.random.seed(7)  # repro: ignore[np-random-legacy] earning its keep\n",
            encoding="utf-8",
        )
        # Only lock-reentry runs: the np-random waiver cannot be proven
        # stale (its rule never looked), so no unused-waiver fires — and a
        # bare ignore is likewise off the hook under a partial catalog.
        analysis = analyze_project(
            [str(target)], rules=[get_rule("lock-reentry")]
        )
        assert analysis.findings == []


class TestUnknownWaiverWarnings:
    def test_unknown_name_is_structured_not_a_finding(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1  # repro: ignore[never-heard-of-it]\n", encoding="utf-8")
        analysis = analyze_project([str(target)])
        assert analysis.findings == []
        assert len(analysis.warnings) == 1
        warning = analysis.warnings[0]
        assert (warning.line, warning.rule) == (1, "never-heard-of-it")
        assert warning.to_dict()["kind"] == "unknown-waiver"
        assert "never-heard-of-it" in warning.render()
