"""The ``python -m repro.analysis`` command line: exit codes and formats."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _fixture(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestExitCodes:
    def test_clean_path_exits_zero(self, capsys):
        code = main([str(FIXTURES / "good_lock_reentry.py")])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out

    def test_findings_exit_one(self, capsys):
        code = main([str(FIXTURES / "bad_lock_reentry.py")])
        out = capsys.readouterr().out
        assert code == 1
        assert "lock-reentry" in out

    def test_unknown_select_exits_two(self, capsys):
        code = main(["--select", "no-such-rule", str(FIXTURES)])
        err = capsys.readouterr().err
        assert code == 2
        assert "no-such-rule" in err

    def test_missing_path_exits_two(self, capsys):
        code = main(["definitely/not/a/path"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no such path" in err


class TestOutput:
    def test_json_report_shape(self, capsys):
        code = main(["--format", "json", str(FIXTURES / "bad_np_random_legacy.py")])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["files"] == 1
        assert "np-random-legacy" in report["rules"]
        assert all(
            set(finding) == {"path", "line", "col", "rule", "message"}
            for finding in report["findings"]
        )
        assert {f["rule"] for f in report["findings"]} == {"np-random-legacy"}

    def test_text_findings_are_path_line_col(self, capsys):
        main([str(FIXTURES / "bad_np_random_legacy.py")])
        lines = capsys.readouterr().out.splitlines()
        finding_lines = [line for line in lines if "np-random-legacy" in line]
        assert finding_lines
        for line in finding_lines:
            path, lineno, col, _rest = line.split(":", 3)
            assert path.endswith("bad_np_random_legacy.py")
            assert lineno.isdigit() and col.isdigit()

    def test_list_rules_prints_catalog(self, capsys):
        code = main(["--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lock-reentry" in out
        assert "lineage:" in out

    def test_repeated_select_reports_each_finding_once(self, capsys):
        target = str(FIXTURES / "bad_np_random_legacy.py")
        main(["--select", "np-random-legacy", target])
        once = capsys.readouterr().out
        main(["--select", "np-random-legacy", "--select", "np-random-legacy", target])
        assert capsys.readouterr().out == once
        assert once.count("np-random-legacy") == 2

    def test_repeated_select_records_single_counts(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        target = str(FIXTURES / "bad_np_random_legacy.py")
        argv = ["--select", "np-random-legacy", "--select", "np-random-legacy"]
        assert main(argv + ["--write-baseline", str(baseline), target]) == 0
        entries = json.loads(baseline.read_text(encoding="utf-8"))["entries"]
        assert list(entries.values()) == [1, 1]

    def test_select_runs_only_that_rule(self, capsys):
        # The bad thread fixture fires thread-lifecycle; selecting an
        # unrelated rule must report it clean.
        code = main(["--select", "np-random-legacy", str(FIXTURES / "bad_thread_lifecycle.py")])
        assert code == 0

    def test_unknown_suppression_name_warns(self, tmp_path, capsys):
        target = tmp_path / "module.py"
        target.write_text("x = 1  # repro: ignore[not-a-rule]\n", encoding="utf-8")
        code = main([str(target)])
        captured = capsys.readouterr()
        assert code == 0
        assert "unknown rule 'not-a-rule'" in captured.err


class TestProjectWorkflows:
    def test_json_report_carries_warnings_and_elapsed(self, tmp_path, capsys):
        target = tmp_path / "module.py"
        target.write_text("x = 1  # repro: ignore[not-a-rule]\n", encoding="utf-8")
        code = main(["--format", "json", str(target)])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 0
        assert report["warnings"] == [
            {"path": str(target), "line": 1, "rule": "not-a-rule", "kind": "unknown-waiver"}
        ]
        assert report["elapsed_seconds"] >= 0
        # Structured output means no stderr duplication is needed, but the
        # warning must never be silently dropped from the artifact.
        assert "not-a-rule" not in captured.err

    def test_baseline_round_trip_exits_zero(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        bad = str(FIXTURES / "bad_lock_reentry.py")
        assert main(["--write-baseline", str(baseline), bad]) == 0
        code = main(["--baseline", str(baseline), bad])
        out = capsys.readouterr().out
        assert code == 0
        assert "baselined" in out

    def test_new_finding_escapes_the_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        good = str(FIXTURES / "good_lock_reentry.py")
        bad = str(FIXTURES / "bad_lock_reentry.py")
        assert main(["--write-baseline", str(baseline), good]) == 0
        assert main(["--baseline", str(baseline), bad]) == 1

    def test_unreadable_baseline_exits_two(self, tmp_path, capsys):
        baseline = tmp_path / "nope.json"
        baseline.write_text("{", encoding="utf-8")
        code = main(["--baseline", str(baseline), str(FIXTURES)])
        assert code == 2
        assert "cannot load baseline" in capsys.readouterr().err

    def test_stale_waiver_fires_and_opt_out_works(self, capsys):
        bad = str(FIXTURES / "bad_unused_waiver.py")
        assert main([bad]) == 1
        assert "unused-waiver" in capsys.readouterr().out
        assert main(["--no-check-waivers", bad]) == 0


class TestStaleBaseline:
    """A baseline entry that no longer matches its finding fails the run."""

    def _baselined_module(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text(_fixture("bad_lock_reentry.py"), encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert main(["--write-baseline", str(baseline), str(module)]) == 0
        return module, baseline

    def test_fixed_finding_leaves_a_stale_entry(self, tmp_path, capsys):
        module, baseline = self._baselined_module(tmp_path)
        (entry,) = json.loads(baseline.read_text(encoding="utf-8"))["entries"]
        module.write_text(_fixture("good_lock_reentry.py"), encoding="utf-8")
        capsys.readouterr()
        code = main(["--baseline", str(baseline), str(module)])
        captured = capsys.readouterr()
        assert code == 1
        assert entry in captured.err
        assert "stale" in captured.err
        assert "clean" not in captured.out

    def test_partly_matched_entry_reports_its_shortfall(self, tmp_path, capsys):
        module, baseline = self._baselined_module(tmp_path)
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        (entry,) = payload["entries"]
        payload["entries"][entry] = 2
        baseline.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = main(["--baseline", str(baseline), str(module)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"1 of 2 unmatched (regenerate with --write-baseline): {entry}" in captured.err
        assert "1 stale baseline entry" in captured.out

    def test_stale_entry_fails_a_json_run(self, tmp_path, capsys):
        module, baseline = self._baselined_module(tmp_path)
        (entry,) = json.loads(baseline.read_text(encoding="utf-8"))["entries"]
        module.write_text(_fixture("good_lock_reentry.py"), encoding="utf-8")
        capsys.readouterr()
        code = main(["--format", "json", "--baseline", str(baseline), str(module)])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 1
        assert (report["findings"], report["baselined"]) == ([], 0)
        assert entry in captured.err

    def test_unused_waiver_entry_is_judged_only_with_the_audit(self, tmp_path, capsys):
        module = tmp_path / "module.py"
        module.write_text(_fixture("bad_unused_waiver.py"), encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert main(["--write-baseline", str(baseline), str(module)]) == 0
        module.write_text("x = 1\n", encoding="utf-8")
        capsys.readouterr()
        # Without the waiver audit nothing could have matched the entries.
        assert main(["--no-check-waivers", "--baseline", str(baseline), str(module)]) == 0
        assert main(["--baseline", str(baseline), str(module)]) == 1
        assert capsys.readouterr().err.count("|unused-waiver|") == 2

    def test_deleted_file_under_an_analyzed_path_is_stale(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        module, baseline = self._baselined_module(tree)
        module.unlink()
        (tree / "other.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["--baseline", str(baseline), str(tree)]) == 1
        assert "module.py|lock-reentry" in capsys.readouterr().err

    def test_unselected_rule_is_not_judged(self, tmp_path, capsys):
        module, baseline = self._baselined_module(tmp_path)
        module.write_text(_fixture("good_lock_reentry.py"), encoding="utf-8")
        code = main(["--select", "np-random-legacy", "--baseline", str(baseline), str(module)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_unanalyzed_path_is_not_judged(self, tmp_path, capsys):
        _module, baseline = self._baselined_module(tmp_path)
        other = tmp_path / "other.py"
        other.write_text("x = 1\n", encoding="utf-8")
        assert main(["--baseline", str(baseline), str(other)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_rule_no_longer_registered_is_stale(self, tmp_path, capsys):
        module = tmp_path / "module.py"
        module.write_text("x = 1\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        entry = f"{module}|retired-rule|some message"
        baseline.write_text(
            json.dumps({"version": 1, "entries": {entry: 1}}), encoding="utf-8"
        )
        code = main(["--select", "np-random-legacy", "--baseline", str(baseline), str(module)])
        assert code == 1
        assert entry in capsys.readouterr().err


class TestModuleEntryPoint:
    @pytest.mark.parametrize(
        "target, expected",
        [("good_shm_lifecycle.py", 0), ("bad_shm_lifecycle.py", 1)],
    )
    def test_python_dash_m_exit_codes(self, target, expected):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(FIXTURES / target)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == expected, result.stderr
