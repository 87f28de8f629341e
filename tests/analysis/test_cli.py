"""``python -m repro.analysis [paths]``: exit codes and report lines."""

import pathlib
import subprocess
import sys

import pytest

from repro.analysis import RULES
from repro.analysis.__main__ import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
RULE_NAMES = sorted(rule.name for rule in RULES)


def _stem(rule_name):
    return rule_name.replace("-", "_")


class TestExitCodes:
    @pytest.mark.parametrize("rule_name", RULE_NAMES + ["unused-waiver"])
    def test_bad_fixture_exits_one_with_only_its_rule(self, rule_name, capsys):
        code = main([str(FIXTURES / f"bad_{_stem(rule_name)}.py.txt")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        findings, summary = lines[:-1], lines[-1]
        assert findings
        assert {line.split(" ", 2)[1] for line in findings} == {rule_name}
        assert summary == f"{len(findings)} finding(s) in 1 file"

    @pytest.mark.parametrize("rule_name", RULE_NAMES + ["unused-waiver"])
    def test_good_fixture_exits_zero(self, rule_name, capsys):
        code = main([str(FIXTURES / f"good_{_stem(rule_name)}.py.txt")])
        assert code == 0
        assert capsys.readouterr().out == f"clean: 1 file, {len(RULES)} rules\n"

    def test_missing_path_exits_two(self, capsys):
        code = main(["definitely/not/a/path"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no such path" in err

    @pytest.mark.parametrize(
        "option",
        [
            "--baseline",
            "--write-baseline",
            "--format",
            "--select",
            "--list-rules",
            "--no-check-waivers",
        ],
    )
    def test_options_are_refused_as_usage_errors(self, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([option, str(FIXTURES / "good_lock_reentry.py.txt")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_directory_walk_skips_the_fixtures(self, capsys):
        assert main([str(FIXTURES)]) == 0
        assert capsys.readouterr().out == f"clean: 0 files, {len(RULES)} rules\n"


class TestOutput:
    def test_text_findings_are_path_line_col(self, capsys):
        main([str(FIXTURES / "bad_np_random_legacy.py.txt")])
        lines = capsys.readouterr().out.splitlines()
        finding_lines = [line for line in lines if "np-random-legacy" in line]
        assert len(finding_lines) == 2
        for line in finding_lines:
            path, lineno, col, _rest = line.split(":", 3)
            assert path.endswith("bad_np_random_legacy.py.txt")
            assert lineno.isdigit() and col.isdigit()

    def test_waiver_naming_no_rule_fails_the_run(self, tmp_path, capsys):
        target = tmp_path / "module.py"
        target.write_text("x = 1  # repro: ignore[not-a-rule]\n", encoding="utf-8")
        code = main([str(target)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"{target}:1:1: unused-waiver" in captured.out
        assert "not-a-rule" in captured.out
        assert captured.err == ""


class TestDecoding:
    """Files are decoded as Python decodes them; an undecodable one is a finding."""

    def test_coding_cookie_is_honoured(self, tmp_path, capsys):
        target = tmp_path / "latin.py"
        target.write_bytes("# -*- coding: latin-1 -*-\nNAME = 'é'\n".encode("latin-1"))
        compile(target.read_bytes(), str(target), "exec")  # Python accepts the file
        assert main([str(target)]) == 0
        assert capsys.readouterr().out == f"clean: 1 file, {len(RULES)} rules\n"

    @pytest.mark.parametrize(
        "source",
        [b"NAME = '\xff'\n", b"# one\n# two\nNAME = '\xff'\n"],
        ids=["first-line", "third-line"],
    )
    def test_undecodable_file_is_one_parse_error(self, tmp_path, capsys, source):
        (tmp_path / "bad.py").write_bytes(source)
        (tmp_path / "other.py").write_text("x = 1  # repro: ignore[no-rule]\n", encoding="utf-8")
        code = main([str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line.split(" ", 2)[:2] for line in lines[:-1]] == [
            [f"{tmp_path / 'bad.py'}:1:1:", "parse-error"],
            [f"{tmp_path / 'other.py'}:1:1:", "unused-waiver"],
        ]
        assert "does not decode" in lines[0]
        assert lines[-1] == "2 finding(s) in 2 files"


class TestModuleEntryPoint:
    @pytest.mark.parametrize(
        "target, expected",
        [("good_np_random_legacy.py.txt", 0), ("bad_np_random_legacy.py.txt", 1)],
    )
    def test_python_dash_m_exit_codes(self, target, expected):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(FIXTURES / target)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == expected, result.stderr
