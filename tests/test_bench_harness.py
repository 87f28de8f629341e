"""Tests for the benchmark harness helpers and late additions."""

import importlib
import pathlib

import numpy as np
import pytest

from benchmarks.common import SCALES, bench_scale, report

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
#: every bench module: the figure benches, the ablation and the crossover script.
BENCH_MODULES = sorted(path.stem for path in BENCH_DIR.glob("bench_*.py")) + ["workers_crossover"]


@pytest.mark.parametrize("module", BENCH_MODULES)
def test_bench_module_imports(module):
    importlib.import_module(f"benchmarks.{module}")


class TestBenchScale:
    def test_default_is_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale().name == "small"

    def test_env_selects_paper(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert bench_scale().name == "paper"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
        with pytest.raises(ValueError, match="REPRO_BENCH_SCALE"):
            bench_scale()

    def test_paper_scale_is_strictly_larger(self):
        small, paper = SCALES["small"], SCALES["paper"]
        assert paper.eval_papers > small.eval_papers
        assert paper.test_queries > small.test_queries
        assert paper.full_papers > small.full_papers
        assert paper.snapshot_papers > small.snapshot_papers


class TestReport:
    def test_writes_and_prints(self, tmp_path, monkeypatch, capsys):
        import benchmarks.common as common

        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        report("unit_test_table", "hello\nworld")
        assert (tmp_path / "unit_test_table.txt").read_text() == "hello\nworld\n"
        assert "hello" in capsys.readouterr().out


class TestDegreeRequestKinds:
    def test_kind_validation(self):
        from repro.distributed import DegreeRequest

        with pytest.raises(ValueError, match="kind"):
            DegreeRequest(gp_id=0, nodes=np.array([1]), kind="sideways")

    def test_in_degree_served(self, toy_graph):
        from repro.distributed import DegreeRequest, SimulatedCluster

        cluster = SimulatedCluster(toy_graph, n_gps=2)
        gp = cluster.processors[0]
        nodes = np.array([0, 2])
        resp = gp.serve_degrees(DegreeRequest(gp_id=0, nodes=nodes, kind="in"))
        expected = [toy_graph.in_edges(int(v))[0].size for v in nodes]
        assert resp.degrees.tolist() == expected


class TestTunableCaches:
    def test_tcommute_plus_cache_shared_across_with_beta(self, toy_graph):
        from repro.baselines import TCommutePlusMeasure

        base = TCommutePlusMeasure(exact=True)
        base.scores(toy_graph, 0)
        clone = base.with_beta(0.9)
        assert clone._cache is base._cache
        assert len(base._cache) == 1

    def test_objsqrtinv_plus_cache_hit_gives_same_scores(self, toy_graph):
        from repro.baselines import ObjSqrtInvPlusMeasure

        m = ObjSqrtInvPlusMeasure(beta=0.4)
        first = m.scores(toy_graph, 0)
        second = m.scores(toy_graph, 0)
        assert np.allclose(first, second)
        assert len(m._cache) == 1

    def test_extreme_betas_return_copies(self, toy_graph):
        from repro.baselines import ObjSqrtInvPlusMeasure

        m = ObjSqrtInvPlusMeasure(beta=0.0)
        scores = m.scores(toy_graph, 0)
        scores[0] = 123.0
        again = m.scores(toy_graph, 0)
        assert again[0] != 123.0  # cache must not be corrupted
