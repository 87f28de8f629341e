"""Tests for the experiment runner."""

from typing import ClassVar

import numpy as np
import pytest

from repro.baselines import (
    FRankMeasure,
    ProximityMeasure,
    RoundTripRankMeasure,
    RoundTripRankPlusMeasure,
    TRankMeasure,
)
from repro.core import frank_vector, roundtriprank, roundtriprank_plus, trank_vector
from repro.core.frank import DEFAULT_ALPHA
from repro.eval import (
    FTCache,
    compare_measures,
    evaluate_measure,
    evaluate_measures,
    make_author_task,
    make_venue_task,
    run_task_suite,
    tune_beta,
)
from repro.eval.metrics import ranking_from_scores
from repro.eval.tasks import QueryCase, RankingTask
from repro.serving import ColumnCache


class OracleMeasure(ProximityMeasure):
    """Scores 1.0 exactly on a case's ground truth (perfect ranking)."""

    name: ClassVar[str] = "Oracle"

    def __init__(self, task):
        self._truth = {case.query: case.ground_truth for case in task.cases}

    def scores(self, graph, query):
        scores = np.zeros(graph.n_nodes)
        for node in self._truth[query]:
            scores[node] = 1.0
        return scores


class TestEvaluateMeasure:
    def test_oracle_scores_perfect_ndcg(self, small_bibnet):
        task = make_author_task(small_bibnet, 6, seed=1)
        result = evaluate_measure(OracleMeasure(task), task, (5, 10))
        assert result.mean_ndcg(5) == pytest.approx(1.0)
        assert result.mean_ndcg(10) == pytest.approx(1.0)

    def test_result_shape(self, small_bibnet):
        task = make_venue_task(small_bibnet, 4, seed=1)
        result = evaluate_measure(FRankMeasure(), task, (5,))
        assert result.ndcg.shape == (4, 1)
        assert 0.0 <= result.mean_ndcg(5) <= 1.0

    def test_invalid_k_values(self, small_bibnet):
        task = make_venue_task(small_bibnet, 2, seed=1)
        with pytest.raises(ValueError):
            evaluate_measure(FRankMeasure(), task, ())
        with pytest.raises(ValueError):
            evaluate_measure(FRankMeasure(), task, (0,))


class TestFTCache:
    def test_shared_ft_gives_same_results(self, small_bibnet):
        task = make_venue_task(small_bibnet, 4, seed=2)
        cached = evaluate_measure(FRankMeasure(), task, (5,), ft_cache=FTCache())
        uncached = evaluate_measure(FRankMeasure(), task, (5,))
        assert np.allclose(cached.ndcg, uncached.ndcg)

    def test_cache_computes_once(self, small_bibnet):
        task = make_venue_task(small_bibnet, 2, seed=2)
        cache = FTCache()
        _, (f1,), (t1,) = cache.get(task.cases[0], DEFAULT_ALPHA)
        _, (f2,), (t2,) = cache.get(task.cases[0], DEFAULT_ALPHA)
        assert f1 is f2 and t1 is t2
        cache.clear()
        _, (f3,), _ = cache.get(task.cases[0], DEFAULT_ALPHA)
        assert f3 is not f1

    def test_cache_info_counters(self, small_bibnet):
        task = make_venue_task(small_bibnet, 3, seed=2)
        cache = FTCache()
        assert cache.cache_info().misses == 0
        cache.warm(task.cases, DEFAULT_ALPHA)
        warm_misses = cache.cache_info().misses
        assert warm_misses > 0
        cache.get(task.cases[0], DEFAULT_ALPHA)
        info = cache.cache_info()
        assert info.misses == warm_misses  # warm covered it: pure hits now
        assert info.hits >= 2  # one f and one t column

    def test_returned_pairs_are_read_only(self, small_bibnet):
        # Regression: composed multi-node pairs used to be writable and
        # shared across hits — one caller mutating its (f, t) silently
        # corrupted every later evaluation of the same case.  Every case
        # now gets the cache's own per-node columns.
        task = make_venue_task(small_bibnet, 2, seed=2)
        cache = FTCache()
        case = task.cases[0]
        _, (f_single,), (t_single,) = cache.get(case, DEFAULT_ALPHA)
        for arr in (f_single, t_single):
            with pytest.raises(ValueError):
                arr[0] = 1e9
        other = 0 if int(case.query) != 0 else 1
        multi = QueryCase(
            graph=case.graph,
            query={int(case.query): 1.0, other: 2.0},
            ground_truth=case.ground_truth,
            excluded=case.excluded,
            candidate_mask=case.candidate_mask,
        )
        weights, f_multi, t_multi = cache.get(multi, DEFAULT_ALPHA)
        assert len(weights) == len(f_multi) == len(t_multi) == 2
        snapshot = f_multi[0].copy()
        for arr in f_multi + t_multi:
            with pytest.raises(ValueError):
                arr[:] = 0.0
        _, again, _ = cache.get(multi, DEFAULT_ALPHA)
        assert again[0] is f_multi[0]
        assert np.array_equal(again[0], snapshot)

    def test_bounded_across_graphs(self, small_bibnet):
        # The paper's edge-removal tasks give every case its own graph; the
        # cache must stay within its byte budget instead of pinning them all.
        task = make_venue_task(small_bibnet, 6, seed=2)
        n_bytes = small_bibnet.graph.n_nodes * 8
        cache = FTCache(cache=ColumnCache(max_bytes=4 * n_bytes))
        for case in task.cases:
            cache.get(case, DEFAULT_ALPHA)
            info = cache.cache_info()
            assert info.current_bytes <= info.max_bytes
        assert cache.cache_info().evictions > 0


def one_per_combination(alpha):
    """One measure per (f, t) combination, at ``alpha``."""
    return [
        FRankMeasure(alpha=alpha),
        TRankMeasure(alpha=alpha),
        RoundTripRankMeasure(alpha=alpha),
        RoundTripRankPlusMeasure(beta=0.3, alpha=alpha),
    ]


AT_ALPHA_06 = one_per_combination(0.6)
#: Below and above the default alpha.
AWAY_FROM_DEFAULT = [m for alpha in (0.1, 0.6, 0.9) for m in one_per_combination(alpha)]


class TestSharedColumnsReadTheMeasureAlpha:
    """The shared (f, t) path scores each measure at its own alpha."""

    @pytest.fixture(scope="class")
    def task(self, small_bibnet):
        return make_venue_task(small_bibnet, 8, seed=3)

    @pytest.mark.parametrize("measure", AWAY_FROM_DEFAULT, ids=lambda m: f"{m.name}@{m.alpha}")
    def test_shared_columns_give_the_direct_scores(self, task, measure):
        cache = FTCache()
        cache.warm(task.cases, DEFAULT_ALPHA)  # columns at another alpha stay apart
        for case in task.cases:
            shared = measure.scores_from_ft(*cache.get(case, measure.alpha))
            direct = measure.scores(case.graph, case.query)
            assert np.abs(shared - direct).max() <= 1e-10

    def test_two_alphas_are_held_side_by_side(self, task):
        case = task.cases[0]
        cache = FTCache()
        _, (f_default,), (t_default,) = cache.get(case, DEFAULT_ALPHA)
        _, (f_other,), (t_other,) = cache.get(case, 0.6)
        assert np.allclose(f_other, frank_vector(case.graph, case.query, alpha=0.6), atol=1e-10)
        assert np.allclose(t_other, trank_vector(case.graph, case.query, alpha=0.6), atol=1e-10)
        assert not np.allclose(f_other, f_default)
        _, (f_again,), (t_again,) = cache.get(case, DEFAULT_ALPHA)
        assert f_again is f_default and t_again is t_default
        info = cache.cache_info()
        assert (info.misses, info.hits) == (4, 2)

    def test_evaluate_measure_and_evaluate_measures(self, task):
        direct = {m.name: evaluate_measure(m, task, (5, 10)).ndcg for m in AT_ALPHA_06}
        cache = FTCache()
        for measure in AT_ALPHA_06:
            shared = evaluate_measure(measure, task, (5, 10), ft_cache=cache)
            assert np.array_equal(shared.ndcg, direct[measure.name]), measure.name
        for name, result in evaluate_measures(AT_ALPHA_06, task, (5, 10)).items():
            assert np.array_equal(result.ndcg, direct[name]), name

    def test_tune_beta(self, task):
        measure = RoundTripRankPlusMeasure(alpha=0.6)
        betas = (0.0, 0.3, 0.7, 1.0)
        _, curve = tune_beta(measure, task, betas, k=5)
        for beta in betas:
            direct = evaluate_measure(measure.with_beta(beta), task, (5,))
            assert curve[beta] == direct.mean_ndcg(5), beta

    def test_run_task_suite(self, task, small_bibnet):
        other = make_author_task(small_bibnet, 4, seed=3)
        suite = run_task_suite(AT_ALPHA_06, [task, other], (5,))
        for measure in AT_ALPHA_06:
            for t in (task, other):
                direct = evaluate_measure(measure, t, (5,)).ndcg
                assert np.array_equal(suite.results[measure.name][t.name].ndcg, direct)


class TestRemovedArguments:
    """The shared columns' settings live on their ``ColumnCache`` alone."""

    @pytest.mark.parametrize("name", ["alpha", "max_bytes"])
    def test_ft_cache_takes_only_a_cache(self, name):
        with pytest.raises(TypeError, match=name):
            FTCache(**{name: 1})

    @pytest.mark.parametrize(
        "call",
        [
            lambda **kw: evaluate_measures([FRankMeasure()], None, **kw),
            lambda **kw: tune_beta(RoundTripRankPlusMeasure(), None, **kw),
            lambda **kw: run_task_suite([FRankMeasure()], [], **kw),
        ],
        ids=["evaluate_measures", "tune_beta", "run_task_suite"],
    )
    def test_suite_functions_take_no_alpha(self, call):
        with pytest.raises(TypeError, match="alpha"):
            call(alpha=1)


class TestEvaluateMeasures:
    def test_multiple_measures(self, small_bibnet):
        task = make_venue_task(small_bibnet, 3, seed=3)
        results = evaluate_measures([FRankMeasure(), TRankMeasure()], task, (5,))
        assert set(results) == {"F-Rank/PPR", "T-Rank"}


class TestTuneBeta:
    def test_returns_curve_over_grid(self, small_bibnet):
        dev = make_venue_task(small_bibnet, 5, seed=4)
        best, curve = tune_beta(
            RoundTripRankPlusMeasure(), dev, betas=(0.0, 0.5, 1.0), k=5
        )
        assert set(curve) == {0.0, 0.5, 1.0}
        assert best in curve
        assert curve[best] == max(curve.values())

    def test_rejects_non_measure(self, small_bibnet):
        dev = make_venue_task(small_bibnet, 2, seed=4)

        class NotAMeasure:
            def with_beta(self, b):
                return self

        with pytest.raises(TypeError):
            tune_beta(NotAMeasure(), dev)


class TestSuite:
    def test_format_table(self, small_bibnet):
        tasks = [make_venue_task(small_bibnet, 3, seed=5)]
        suite = run_task_suite([FRankMeasure(), TRankMeasure()], tasks, (5,))
        table = suite.format_table()
        assert "F-Rank/PPR" in table
        assert "Task 2 (Venue)" in table
        assert "Avg @ 5" in table

    def test_average_ndcg(self, small_bibnet):
        t1 = make_venue_task(small_bibnet, 3, seed=6, name="A")
        t2 = make_author_task(small_bibnet, 3, seed=6, name="B")
        suite = run_task_suite([FRankMeasure()], [t1, t2], (5,))
        avg = suite.average_ndcg("F-Rank/PPR", 5)
        a = suite.results["F-Rank/PPR"]["A"].mean_ndcg(5)
        b = suite.results["F-Rank/PPR"]["B"].mean_ndcg(5)
        assert avg == pytest.approx((a + b) / 2)


class TestCompareMeasures:
    def test_identical_measures_not_significant(self, small_bibnet):
        task = make_venue_task(small_bibnet, 5, seed=7)
        r1 = evaluate_measure(FRankMeasure(), task, (5,))
        r2 = evaluate_measure(FRankMeasure(), task, (5,))
        t = compare_measures(r1, r2, 5)
        assert t.p_value == 1.0


class TestMultiNodeCases:
    """The runner ranks a multi-node case as ``repro.core`` does."""

    @pytest.mark.parametrize(
        "measure, core",
        [
            (RoundTripRankMeasure(), roundtriprank),
            (RoundTripRankPlusMeasure(beta=0.3), lambda g, q: roundtriprank_plus(g, q, 0.3)),
        ],
        ids=["roundtriprank", "roundtriprank_plus"],
    )
    def test_two_node_case_ranks_like_core(self, small_bibnet, measure, core):
        # Case i's ground truth is core's top-i set, so NDCG@i is exactly 1
        # iff the runner's top i is that set; over i = 1..10 that pins the
        # order of the whole top 10.
        graph = small_bibnet.graph
        query = {203: 1.0, 206: 2.0}
        excluded = frozenset(query)
        mask = np.ones(graph.n_nodes, dtype=bool)
        expected = ranking_from_scores(
            core(graph, query), exclude=excluded, candidate_mask=mask, limit=10
        )
        cases = [
            QueryCase(query, frozenset(expected[:i]), graph, excluded, mask)
            for i in range(1, 11)
        ]
        result = evaluate_measure(
            measure, RankingTask("two nodes", "any", cases), range(1, 11), ft_cache=FTCache()
        )
        assert np.diag(result.ndcg).tolist() == [1.0] * 10
