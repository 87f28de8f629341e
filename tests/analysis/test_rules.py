"""Every rule proven on its committed bad/good fixture pair + suppression.

The contract per rule: the ``bad_*`` fixture fires it (and nothing else),
the ``good_*`` twin is fully clean, and appending ``# repro: ignore[rule]``
to each reported line silences the report.  The suppression leg reuses the
bad fixture verbatim so the three legs can never drift apart.  The
fixtures end in ``.py.txt`` so the tree walk of the clean-tree gate skips
them; these tests read them by explicit path.
"""

import pathlib
import re
import textwrap

import pytest

from repro.analysis import RULES, analyze_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
README = pathlib.Path(__file__).parents[2] / "README.md"

#: rule name -> fixture stem; fixtures live as bad_<stem>.py.txt / good_<stem>.py.txt.
RULE_FIXTURES = {
    "cache-store-readonly": "cache_store_readonly",
    "lock-across-blocking": "lock_across_blocking",
    "lock-reentry": "lock_reentry",
    "condition-wait-loop": "condition_wait_loop",
    "thread-lifecycle": "thread_lifecycle",
    "np-random-legacy": "np_random_legacy",
}


def _read(name):
    return (FIXTURES / f"{name}.py.txt").read_text(encoding="utf-8")


def readme_rule_table() -> "set[str]":
    """The rule names in the first column of README's rule table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## The analysis toolchain", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE))


class TestCatalog:
    def test_every_rule_has_a_fixture_pair(self):
        assert set(RULE_FIXTURES) == {rule.name for rule in RULES}
        for stem in RULE_FIXTURES.values():
            assert (FIXTURES / f"bad_{stem}.py.txt").exists()
            assert (FIXTURES / f"good_{stem}.py.txt").exists()

    def test_readme_table_lists_exactly_the_rules(self):
        documented = readme_rule_table()
        names = {rule.name for rule in RULES}
        assert names - documented == set(), "rules missing from README's rule table"
        assert documented - names == set(), "README's rule table names no such rule"

    def test_rule_names_are_unique(self):
        assert len({rule.name for rule in RULES}) == len(RULES)

    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
    def test_rule_carries_a_lineage(self, rule):
        assert rule.lineage.strip()


@pytest.mark.parametrize("rule_name", sorted(RULE_FIXTURES))
class TestFixturePairs:
    def test_bad_fixture_fires_exactly_this_rule(self, rule_name):
        source = _read(f"bad_{RULE_FIXTURES[rule_name]}")
        findings = analyze_source(source, path=f"bad_{rule_name}")
        assert findings, f"bad fixture for {rule_name} produced no findings"
        assert {f.rule for f in findings} == {rule_name}

    def test_good_fixture_is_clean(self, rule_name):
        source = _read(f"good_{RULE_FIXTURES[rule_name]}")
        assert analyze_source(source, path=f"good_{rule_name}") == []

    def test_suppression_comment_silences_each_finding(self, rule_name):
        source = _read(f"bad_{RULE_FIXTURES[rule_name]}")
        findings = analyze_source(source)
        lines = source.splitlines()
        for finding in findings:
            lines[finding.line - 1] += f"  # repro: ignore[{rule_name}] fixture"
        suppressed = analyze_source("\n".join(lines) + "\n")
        assert suppressed == []

    def test_unrelated_suppression_does_not_silence(self, rule_name):
        # The waiver names another rule, which has nothing to suppress on
        # these lines: the findings stay, and each waiver is reported stale.
        other = next(rule.name for rule in RULES if rule.name != rule_name)
        source = _read(f"bad_{RULE_FIXTURES[rule_name]}")
        findings = analyze_source(source)
        lines = source.splitlines()
        for finding in findings:
            lines[finding.line - 1] += f"  # repro: ignore[{other}]"
        still = analyze_source("\n".join(lines) + "\n")
        assert [f for f in still if f.rule == rule_name] == findings
        stale = [f for f in still if f.rule != rule_name]
        assert {f.rule for f in stale} == {"unused-waiver"}
        assert {f.line for f in stale} == {f.line for f in findings}

    def test_a_line_shift_moves_each_finding_by_one_line(self, rule_name):
        source = _read(f"bad_{RULE_FIXTURES[rule_name]}")
        findings = analyze_source(source)
        shifted = analyze_source("# one more line\n" + source)
        assert [(f.line + 1, f.rule, f.message) for f in findings] == [
            (f.line, f.rule, f.message) for f in shifted
        ]


class TestRuleEdgeCases:
    """Targeted cases the fixture pairs do not cover."""

    def test_lock_reentry_module_scope(self):
        source = textwrap.dedent(
            """
            import threading

            _graph_lock = threading.Lock()


            def lookup(key):
                with _graph_lock:
                    return key


            def update(key):
                with _graph_lock:
                    return lookup(key)
            """
        )
        findings = analyze_source(source)
        assert [f.rule for f in findings] == ["lock-reentry"]
        assert "lookup" in findings[0].message

    def test_lock_reentry_ignores_rlock(self):
        source = textwrap.dedent(
            """
            import threading


            class Operator:
                def __init__(self):
                    self._lock = threading.RLock()

                def matrix(self):
                    with self._lock:
                        return 1

                def damped(self):
                    with self._lock:
                        return self.matrix()
            """
        )
        assert analyze_source(source) == []

    def test_lock_across_blocking_flags_yield(self):
        source = textwrap.dedent(
            """
            import threading

            _lock = threading.Lock()


            def items(store):
                with _lock:
                    yield from store
            """
        )
        findings = analyze_source(source)
        assert [f.rule for f in findings] == ["lock-across-blocking"]
        assert "yieldfrom" in findings[0].message

    def test_lock_across_blocking_ignores_nested_scope(self):
        # The yield belongs to the nested generator, which runs after the
        # with block exits — the lock is NOT held across it.
        source = textwrap.dedent(
            """
            import threading

            _lock = threading.Lock()


            def snapshot(store):
                with _lock:
                    keys = list(store)

                def generate():
                    yield from keys

                return generate()
            """
        )
        assert analyze_source(source) == []

    def test_condition_wait_ignores_event_wait(self):
        source = textwrap.dedent(
            """
            import threading


            class Poller:
                def __init__(self):
                    self._halt = threading.Event()

                def poll_once(self):
                    return self._halt.wait(0.1)
            """
        )
        assert analyze_source(source) == []

    def test_np_random_legacy_tracks_import_alias(self):
        source = textwrap.dedent(
            """
            import numpy

            state = numpy.random.seed(0)
            """
        )
        findings = analyze_source(source)
        assert [f.rule for f in findings] == ["np-random-legacy"]

    def test_np_random_legacy_accepts_seeded_default_rng(self):
        source = textwrap.dedent(
            """
            import numpy as np

            rng = np.random.default_rng(1234)
            """
        )
        assert analyze_source(source) == []

    def test_parse_error_becomes_finding(self):
        findings = analyze_source("def broken(:\n", path="nope.py")
        assert [(f.line, f.rule) for f in findings] == [(1, "parse-error")]
