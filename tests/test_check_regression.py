"""Tests for the CI perf-regression gate (benchmarks/check_regression.py).

The load-bearing case is the red path: a seeded slowdown in the current
metrics must exit non-zero and name the offending metric — that is what
makes the CI step a gate rather than a report.
"""

import json

import pytest

from benchmarks import check_regression as cr


def _payload() -> dict:
    """A minimal ci_smoke-shaped payload covering every gated metric."""
    return {
        "batch_engine": {"column_parity_max_abs": 5e-13, "batch_speedup": 6.0},
        "serving": {
            "topk_parity": True,
            "cache_hit_rate": 0.59,
            "median_speedup": 40.0,
            "microbatch_speedup": 7.5,
            "warm_median_ms": 0.05,
            "cold_median_ms": 2.0,
        },
        "gateway": {
            "lru_hit_rate": 0.396,
            "gdsf_hit_rate": 0.474,
            "shed_rate": 0.39,
            "max_queue_depth": 8,
            "inline_hits": 231,
            "n_local_certified": 32,
            "n_local_escalated": 1,
            "cold_tenant_first_touch_prefetch": 0.357,
            "miss_p99_speedup": 1.5,
            "lane_p99_ms": 19.0,
            "miss_p99_ms_batcher": 32.0,
            "miss_p99_ms_local": 21.0,
        },
        "obs": {
            "cache_hits": 424,
            "n_local_certified": 23,
            "disabled_overhead_pct": 0.4,
            "enabled_overhead_pct": 20.0,
        },
        "twosbound": {"rounds": 80, "seen_f": 3000, "seen_t": 2500, "seen_r": 1900},
        "datasets": {"bibnet_2200_s": 0.45},
    }


@pytest.fixture()
def paths(tmp_path):
    current = tmp_path / "ci_smoke.json"
    baseline = tmp_path / "ci_smoke_baseline.json"
    payload = _payload()
    current.write_text(json.dumps(payload))
    baseline.write_text(json.dumps(cr.build_baseline(payload)))
    return current, baseline


def _run(current, baseline, *extra):
    return cr.main(
        ["--current", str(current), "--baseline", str(baseline), *extra]
    )


class TestGreenPath:
    def test_identical_metrics_pass(self, paths, capsys):
        current, baseline = paths
        assert _run(current, baseline) == 0
        assert "gated metrics in band" in capsys.readouterr().out

    def test_noise_within_band_passes(self, paths):
        current, baseline = paths
        payload = _payload()
        payload["gateway"]["miss_p99_speedup"] *= 0.8  # inside the 50% band
        payload["gateway"]["gdsf_hit_rate"] += 0.01  # inside the 0.02 band
        current.write_text(json.dumps(payload))
        assert _run(current, baseline) == 0

    def test_report_only_metrics_never_gate(self, paths):
        current, baseline = paths
        payload = _payload()
        payload["gateway"]["lane_p99_ms"] *= 100.0  # info-only timing
        payload["datasets"]["bibnet_2200_s"] *= 100.0  # info-only timing
        current.write_text(json.dumps(payload))
        assert _run(current, baseline) == 0


class TestSeededRegressionTurnsRed:
    def test_speedup_collapse_fails(self, paths, capsys):
        current, baseline = paths
        payload = _payload()
        payload["gateway"]["miss_p99_speedup"] = 0.6  # seeded slowdown
        current.write_text(json.dumps(payload))
        assert _run(current, baseline) == 1
        assert "gateway.miss_p99_speedup" in capsys.readouterr().err

    def test_parity_residual_growth_fails(self, paths, capsys):
        current, baseline = paths
        payload = _payload()
        payload["batch_engine"]["column_parity_max_abs"] = 1e-6
        current.write_text(json.dumps(payload))
        assert _run(current, baseline) == 1
        assert "column_parity_max_abs" in capsys.readouterr().err

    def test_escalation_rate_regression_fails(self, paths, capsys):
        current, baseline = paths
        payload = _payload()
        payload["gateway"]["n_local_certified"] = 20
        payload["gateway"]["n_local_escalated"] = 13
        current.write_text(json.dumps(payload))
        assert _run(current, baseline) == 1
        err = capsys.readouterr().err
        assert "n_local_certified" in err and "n_local_escalated" in err

    def test_single_local_outcome_flip_fails(self, paths, capsys):
        # The local outcomes repeat exactly (the budget counts sweeps), so
        # one query flipping between certified and escalated is a change.
        current, baseline = paths
        payload = _payload()
        payload["gateway"]["n_local_certified"] -= 1
        payload["gateway"]["n_local_escalated"] += 1
        payload["obs"]["n_local_certified"] -= 1
        current.write_text(json.dumps(payload))
        assert _run(current, baseline) == 1
        err = capsys.readouterr().err
        assert "gateway.n_local_certified" in err
        assert "gateway.n_local_escalated" in err
        assert "obs.n_local_certified" in err

    def test_equality_band_fails_in_both_directions(self, paths, capsys):
        current, baseline = paths
        payload = _payload()
        payload["gateway"]["gdsf_hit_rate"] += 0.1  # "improvement" = stale baseline
        current.write_text(json.dumps(payload))
        assert _run(current, baseline) == 1
        assert "gdsf_hit_rate" in capsys.readouterr().err

    def test_missing_metric_fails(self, paths, capsys):
        current, baseline = paths
        payload = _payload()
        del payload["gateway"]["miss_p99_speedup"]
        current.write_text(json.dumps(payload))
        assert _run(current, baseline) == 1
        assert "missing from current" in capsys.readouterr().err

    def test_metric_absent_from_baseline_demands_update(self, paths, capsys):
        current, baseline = paths
        recorded = json.loads(baseline.read_text())
        del recorded["metrics"]["gateway.miss_p99_speedup"]
        baseline.write_text(json.dumps(recorded))
        assert _run(current, baseline) == 1
        assert "--update-baseline" in capsys.readouterr().err


class TestBaselineLifecycle:
    def test_update_baseline_round_trips(self, tmp_path):
        current = tmp_path / "ci_smoke.json"
        baseline = tmp_path / "baseline.json"
        current.write_text(json.dumps(_payload()))
        assert _run(current, baseline, "--update-baseline") == 0
        recorded = json.loads(baseline.read_text())
        assert recorded["metrics"]["gateway.n_local_certified"] == 32
        assert _run(current, baseline) == 0

    def test_missing_files_exit_2(self, tmp_path):
        ghost = tmp_path / "nope.json"
        real = tmp_path / "ci_smoke.json"
        real.write_text(json.dumps(_payload()))
        assert _run(ghost, ghost) == 2
        assert _run(real, ghost) == 2

    def test_committed_baseline_matches_gated_checks(self):
        # The repo's own baseline must cover every gated metric — a gated
        # check without a recorded value fails CI with an update hint.
        recorded = json.loads(cr.BASELINE_PATH.read_text())["metrics"]
        for check in cr.CHECKS:
            if check.gate:
                assert check.path in recorded, check.path


class TestCompareUnit:
    def test_violation_modes(self):
        assert cr._violation(cr.Check("x", "equal", atol=0.1), 1.0, 1.05) is None
        assert cr._violation(cr.Check("x", "equal", atol=0.1), 1.0, 1.2) is not None
        assert cr._violation(cr.Check("x", "min", tol=0.5), 2.0, 1.1) is None
        assert cr._violation(cr.Check("x", "min", tol=0.5), 2.0, 0.9) is not None
        assert cr._violation(cr.Check("x", "max", tol=0.5), 2.0, 2.9) is None
        assert cr._violation(cr.Check("x", "max", tol=0.5), 2.0, 3.1) is not None

    def test_resolve_raises_on_missing_path(self):
        with pytest.raises(KeyError):
            cr.resolve({"a": {"b": 1}}, "a.c")
        assert cr.resolve({"a": {"b": 1}}, "a.b") == 1
