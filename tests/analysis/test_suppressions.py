"""Waiver-comment parsing: comments count, strings don't."""

import textwrap

from repro.analysis.suppressions import suppressed_rules


class TestParsing:
    def test_bracketed_names_are_listed(self):
        table = suppressed_rules("x = 1  # repro: ignore[rule-a, rule-b]\n")
        assert table == {1: frozenset({"rule-a", "rule-b"})}

    def test_bare_ignore_lists_no_rule(self):
        assert suppressed_rules("x = 1  # repro: ignore\n") == {1: frozenset()}

    def test_empty_brackets_list_no_rule(self):
        assert suppressed_rules("x = 1  # repro: ignore[]\n") == {1: frozenset()}

    def test_trailing_justification_text_is_fine(self):
        table = suppressed_rules("x = f()  # repro: ignore[rule-a] sanctioned\n")
        assert table == {1: frozenset({"rule-a"})}

    def test_unsuppressed_lines_are_absent(self):
        assert suppressed_rules("x = 1\ny = 2  # plain comment\n") == {}


class TestStringImmunity:
    def test_docstring_examples_are_not_live_suppressions(self):
        source = textwrap.dedent(
            '''
            def helper():
                """Write waivers as ``x  # repro: ignore[rule-a]``."""
                return 1
            '''
        )
        assert suppressed_rules(source) == {}

    def test_string_literal_is_not_a_suppression(self):
        source = 'message = "# repro: ignore[rule-a]"\n'
        assert suppressed_rules(source) == {}

    def test_unparseable_source_falls_back_to_line_scan(self):
        # A waiver on a broken line must still be able to waive the
        # parse-error finding.
        source = "def broken(:  # repro: ignore[parse-error]\n"
        assert suppressed_rules(source) == {1: frozenset({"parse-error"})}
