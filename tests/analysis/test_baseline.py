"""Baseline workflow: fingerprinting, round-trip, multiset subtraction."""

import json
import pathlib

import pytest

from repro.analysis import analyze_project
from repro.analysis.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    render_baseline,
    unmatched_entries,
    write_baseline,
)
from repro.analysis.findings import Finding

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _finding(path="a.py", line=3, col=1, rule="r", message="m"):
    return Finding(path=path, line=line, col=col, rule=rule, message=message)


class TestFingerprint:
    def test_line_number_does_not_change_identity(self):
        assert fingerprint(_finding(line=3)) == fingerprint(_finding(line=99))

    def test_message_and_rule_do(self):
        base = fingerprint(_finding())
        assert fingerprint(_finding(rule="other")) != base
        assert fingerprint(_finding(message="other")) != base

    def test_windows_separators_normalize(self):
        assert fingerprint(_finding(path="pkg\\mod.py")) == fingerprint(
            _finding(path="pkg/mod.py")
        )


class TestRoundTrip:
    def test_write_then_apply_suppresses_everything(self, tmp_path):
        bad = FIXTURES / "bad_lock_reentry.py"
        findings = analyze_project([str(bad)]).findings
        assert findings
        target = tmp_path / "baseline.json"
        n_entries = write_baseline(str(target), findings)
        assert n_entries >= 1
        fresh, suppressed = apply_baseline(findings, load_baseline(str(target)))
        assert fresh == []
        assert suppressed == len(findings)

    def test_multiset_subtraction_keeps_the_extra_copy(self):
        from collections import Counter

        findings = [_finding(line=1), _finding(line=2), _finding(line=3)]
        payload = json.loads(render_baseline(findings[:2]))
        fresh, suppressed = apply_baseline(findings, Counter(payload["entries"]))
        assert suppressed == 2
        assert len(fresh) == 1

    def test_unmatched_entries_are_the_shortfall(self):
        from collections import Counter

        findings = [_finding(line=1), _finding(rule="other")]
        payload = json.loads(render_baseline(findings + [_finding(line=2)]))
        payload["entries"]["gone.py|r|m"] = 1
        leftover = unmatched_entries(findings, Counter(payload["entries"]))
        assert leftover == Counter({"a.py|r|m": 1, "gone.py|r|m": 1})

    def test_rendered_form_is_sorted_and_versioned(self):
        text = render_baseline([_finding(rule="z"), _finding(rule="a")])
        payload = json.loads(text)
        assert payload["version"] == 1
        keys = list(payload["entries"])
        assert keys == sorted(keys)
        assert text.endswith("\n")


class TestLoadErrors:
    def test_future_version_refused(self, tmp_path):
        target = tmp_path / "b.json"
        target.write_text('{"version": 99, "entries": {}}', encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported baseline"):
            load_baseline(str(target))

    def test_malformed_entries_refused(self, tmp_path):
        target = tmp_path / "b.json"
        target.write_text('{"version": 1, "entries": {"k": "lots"}}', encoding="utf-8")
        with pytest.raises(ValueError, match="malformed baseline"):
            load_baseline(str(target))
