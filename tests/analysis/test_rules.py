"""Every rule proven on its committed bad/good fixture pair + suppression.

The contract per rule: the ``bad_*`` fixture fires it (and nothing else),
the ``good_*`` twin is fully clean, and appending ``# repro: ignore[rule]``
to each reported line silences the report.  The suppression leg reuses the
bad fixture verbatim so the three legs can never drift apart.
"""

import pathlib
import textwrap

import pytest

from repro.analysis import analyze_source, get_rule, rule_names
from repro.analysis.baseline import fingerprint

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: rule name -> fixture stem; fixtures live as bad_<stem>.py / good_<stem>.py.
RULE_FIXTURES = {
    "shm-view-readonly": "shm_view_readonly",
    "cache-store-readonly": "cache_store_readonly",
    "lock-across-blocking": "lock_across_blocking",
    "lock-reentry": "lock_reentry",
    "condition-wait-loop": "condition_wait_loop",
    "thread-lifecycle": "thread_lifecycle",
    "np-random-legacy": "np_random_legacy",
    "shm-lifecycle": "shm_lifecycle",
}


def _read(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestCatalog:
    def test_every_registered_rule_has_a_fixture_pair(self):
        assert set(RULE_FIXTURES) == set(rule_names())
        for stem in RULE_FIXTURES.values():
            assert (FIXTURES / f"bad_{stem}.py").exists()
            assert (FIXTURES / f"good_{stem}.py").exists()

    def test_rules_carry_summary_and_lineage(self):
        for name in rule_names():
            rule = get_rule(name)
            assert rule.summary
            assert rule.lineage


@pytest.mark.parametrize("rule_name", sorted(RULE_FIXTURES))
class TestFixturePairs:
    def test_bad_fixture_fires_exactly_this_rule(self, rule_name):
        source = _read(f"bad_{RULE_FIXTURES[rule_name]}.py")
        findings = analyze_source(source, path=f"bad_{rule_name}")
        assert findings, f"bad fixture for {rule_name} produced no findings"
        assert {f.rule for f in findings} == {rule_name}

    def test_good_fixture_is_clean(self, rule_name):
        source = _read(f"good_{RULE_FIXTURES[rule_name]}.py")
        assert analyze_source(source, path=f"good_{rule_name}") == []

    def test_suppression_comment_silences_each_finding(self, rule_name):
        source = _read(f"bad_{RULE_FIXTURES[rule_name]}.py")
        findings = analyze_source(source)
        lines = source.splitlines()
        for finding in findings:
            lines[finding.line - 1] += f"  # repro: ignore[{rule_name}] fixture"
        suppressed = analyze_source("\n".join(lines) + "\n")
        assert suppressed == []

    def test_unrelated_suppression_does_not_silence(self, rule_name):
        source = _read(f"bad_{RULE_FIXTURES[rule_name]}.py")
        findings = analyze_source(source)
        lines = source.splitlines()
        for finding in findings:
            lines[finding.line - 1] += "  # repro: ignore[some-other-rule]"
        still = analyze_source("\n".join(lines) + "\n")
        assert {f.rule for f in still} == {rule_name}

    def test_fingerprints_survive_a_line_shift(self, rule_name):
        # A baseline key is path|rule|message: a message quoting a line
        # number would go stale whenever a line is inserted above it.
        source = _read(f"bad_{RULE_FIXTURES[rule_name]}.py")
        path = f"bad_{rule_name}.py"
        findings = analyze_source(source, path=path)
        shifted = analyze_source("# one more line\n" + source, path=path)
        assert [f.line + 1 for f in findings] == [f.line for f in shifted]
        assert sorted(map(fingerprint, shifted)) == sorted(map(fingerprint, findings))


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
        findings = analyze_source(source, rules=[get_rule("lock-reentry")])
        assert len(findings) == 1
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
        assert analyze_source(source, rules=[get_rule("lock-reentry")]) == []

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
        findings = analyze_source(source, rules=[get_rule("lock-across-blocking")])
        assert len(findings) == 1
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
        assert analyze_source(source, rules=[get_rule("lock-across-blocking")]) == []

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
        assert analyze_source(source, rules=[get_rule("condition-wait-loop")]) == []

    def test_np_random_legacy_tracks_import_alias(self):
        source = textwrap.dedent(
            """
            import numpy

            state = numpy.random.seed(0)
            """
        )
        findings = analyze_source(source, rules=[get_rule("np-random-legacy")])
        assert len(findings) == 1

    def test_np_random_legacy_accepts_seeded_default_rng(self):
        source = textwrap.dedent(
            """
            import numpy as np

            rng = np.random.default_rng(1234)
            """
        )
        assert analyze_source(source, rules=[get_rule("np-random-legacy")]) == []

    def test_shm_lifecycle_attach_needs_close_only(self):
        source = textwrap.dedent(
            """
            from multiprocessing import shared_memory


            def peek(name):
                segment = shared_memory.SharedMemory(name=name)
                payload = bytes(segment.buf)
                segment.close()
                return payload
            """
        )
        assert analyze_source(source, rules=[get_rule("shm-lifecycle")]) == []

    def test_parse_error_becomes_finding(self):
        findings = analyze_source("def broken(:\n", path="nope.py")
        assert len(findings) == 1
        assert findings[0].rule == "parse-error"
