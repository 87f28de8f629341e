"""Tests for the benchmark harness helpers and late additions."""

import importlib
import json
import pathlib
import threading

import numpy as np
import pytest

from benchmarks.common import SCALES, bench_scale, report
from perfbench import trace as perfbench_trace
from repro.engine import batch as engine_batch
from repro.gateway import RankGateway
from repro.ops import TransitionOperator
from repro.serving import ColumnCache
from repro.topk import local as topk_local
from repro.topk import twosbound as topk_twosbound

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"
#: every bench module: the figure benches, the ablation and the crossover script.
BENCH_MODULES = sorted(path.stem for path in BENCH_DIR.glob("bench_*.py")) + ["workers_crossover"]
#: every module the performance ledger charges a layer to.
LEDGER = json.loads((ROOT / "perfbench" / "ledger.json").read_text(encoding="utf-8"))
LEDGER_MODULES = [module for layer in LEDGER["layers"] for module in layer["modules"]]


@pytest.mark.parametrize("module", BENCH_MODULES)
def test_bench_module_imports(module):
    importlib.import_module(f"benchmarks.{module}")


class TestLedgerPins:
    """The names in ``src/`` that the ledger (``perfbench/``) reads.

    Renaming any of them breaks the benchmark, not a test under ``src/``'s
    own suites, so each is pinned here.
    """

    @pytest.mark.parametrize("module", LEDGER_MODULES)
    def test_every_ledger_module_imports(self, module):
        importlib.import_module(module)

    def test_deadline_flushes_run_on_the_thread_the_tracer_keys_on(self, toy_graph, monkeypatch):
        gateway = RankGateway(toy_graph, max_delay=0.005).start()
        get_many, threads = gateway.cache.get_many, []

        def recording(*args, **kwargs):
            threads.append(threading.current_thread().name)
            return get_many(*args, **kwargs)

        monkeypatch.setattr(gateway.cache, "get_many", recording)
        gateway.submit(3).result(timeout=5.0)  # a miss: queued for the deadline
        gateway.close()
        assert threads and set(threads) == {perfbench_trace.DEADLINE_THREAD}

    def test_a_claimed_flush_is_traced_inside_its_submit(self, toy_graph):
        # At the default linger a started lane's lone miss is solved inside
        # submit, so the tracer counts it as one flush of one request, as it
        # does a resident hit's.
        gateway = RankGateway(toy_graph).start()
        tracer = perfbench_trace.Tracer()
        with tracer:
            tracer.begin_request(0)
            gateway.submit(3).result(timeout=5.0)
        gateway.close()
        assert tracer.flushes == [(threading.current_thread().name, 1)]

    def test_the_gateway_keeps_its_max_delay(self, toy_graph):
        # The zipf-gateway workload reads it as the timer it charges.
        gateway = RankGateway(toy_graph, max_delay=0.02)
        assert gateway.max_delay == 0.02
        gateway.close()

    def test_the_default_max_delay_is_zero(self, toy_graph):
        # zipf-gateway builds its gateway with the default linger and
        # charges it to every request as uncalibrated timer time.
        gateway = RankGateway(toy_graph)
        assert gateway.max_delay == 0.0
        gateway.close()

    def test_tracer_uninstall_restores_every_wrapped_callable(self):
        wrapped = [
            (RankGateway, "submit"),
            (ColumnCache, "get_many"),
            (engine_batch, "power_iteration_batch"),
            (TransitionOperator, "matmat"),
            (topk_local, "local_topk"),
            (topk_twosbound, "twosbound_topk"),
        ]
        originals = [getattr(owner, name) for owner, name in wrapped]
        tracer = perfbench_trace.Tracer().install()
        try:
            installed = [getattr(owner, name) for owner, name in wrapped]
        finally:
            tracer.uninstall()
        assert not any(now is was for now, was in zip(installed, originals))
        restored = [getattr(owner, name) for owner, name in wrapped]
        assert all(now is was for now, was in zip(restored, originals))

    def test_a_local_result_carries_the_counts_the_tracer_sums(self, small_bibnet, monkeypatch):
        # cold-topk-local's local.* counts sum these fields over every call,
        # and local.work reads as sweeps on both sides, escalations included.
        graph = small_bibnet.graph
        isolated = np.flatnonzero((graph.out_degrees == 0) & (graph.in_degrees == 0))
        sweep, kinds = topk_local.ColumnPush._sweep, []

        def counting(state):
            kinds.append(state.kind)
            sweep(state)

        monkeypatch.setattr(topk_local.ColumnPush, "_sweep", counting)
        paper = int(small_bibnet.paper_nodes[0])
        for query, outcome in ((paper, "certified"), (int(isolated[0]), "escalated")):
            kinds.clear()
            result = topk_local.local_topk(graph, query, 10, 0.25)
            counts = {key: getattr(result, key) for key in perfbench_trace._LOCAL_FIELDS}
            assert counts[outcome] is True and result.rounds >= 1
            assert counts["work"] == len(kinds) and set(kinds) == {"f", "t"}


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
