"""Tests for the certified local top-k solver (repro.topk.local).

The exactness contract under test: whatever the outcome flag says —
``certified`` (bounds proved the set and ranking) or ``escalated`` (the
exact solver took over) — the returned top-k indices equal the full-solve
oracle's, and certified results carry sound lower/upper score bounds.
"""

import numpy as np
import pytest

from repro.core import combine_beta, frank_vector, normalize_query, trank_vector
from repro.engine.batch import MEASURES
from repro.graph import graph_from_edges
from repro.serving.topk import topk_select
from repro.topk import ColumnPush, local_topk, naive_topk
from repro.topk import local as local_module
from repro.topk.local import inmass_vector

ALPHA = 0.25


def oracle_scores(graph, query, measure, beta=0.5, alpha=ALPHA):
    """Unnormalized reference scores from the per-vector core solvers."""
    nodes, weights = normalize_query(graph, query)
    scores = np.zeros(graph.n_nodes)
    for node, weight in zip(nodes.tolist(), weights.tolist()):
        f = frank_vector(graph, node, alpha)
        t = trank_vector(graph, node, alpha)
        if measure == "frank":
            scores += weight * f
        elif measure == "trank":
            scores += weight * t
        elif measure == "roundtriprank":
            scores += weight * f * t
        else:
            scores += weight * combine_beta(f, t, beta)
    return scores


def assert_matches_oracle(graph, query, k, measure="roundtriprank", **kwargs):
    """Run local_topk and check indices + certified-bound soundness."""
    result = local_topk(
        graph, query, k, ALPHA, measure=measure, normalize=False, **kwargs
    )
    truth = oracle_scores(graph, query, measure, beta=kwargs.get("beta", 0.5))
    expected, expected_vals = topk_select(
        truth,
        k,
        exclude=kwargs.get("exclude"),
        candidate_mask=kwargs.get("candidate_mask"),
    )
    assert result.indices.tolist() == expected.tolist(), (
        f"top-{k} mismatch ({'certified' if result.certified else 'escalated'})"
    )
    assert result.certified != result.escalated
    if result.certified:
        # scores are lower estimates; truth sits within [scores, scores+bound]
        assert np.all(result.scores <= expected_vals + 1e-12)
        assert np.all(expected_vals <= result.scores + result.bound + 1e-12)
    return result


class TestOracleParity:
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("query", [0, 4, 9])
    def test_toy_graph_all_measures(self, toy_graph, query, measure):
        assert_matches_oracle(toy_graph, query, 3, measure=measure)

    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_bibnet_roundtriprank(self, small_bibnet, k):
        for query in small_bibnet.paper_nodes[:4].tolist():
            assert_matches_oracle(small_bibnet.graph, query, k)

    def test_bibnet_certifies_some_query(self, small_bibnet):
        outcomes = [
            assert_matches_oracle(small_bibnet.graph, q, 10).certified
            for q in small_bibnet.paper_nodes[:8].tolist()
        ]
        assert any(outcomes), "no query certified — the fast path never fires"

    def test_multi_node_weighted_query(self, small_bibnet):
        a, b = (int(v) for v in small_bibnet.paper_nodes[:2])
        assert_matches_oracle(small_bibnet.graph, {a: 1.0, b: 3.0}, 5)

    def test_exclude_and_candidate_mask(self, small_bibnet):
        graph = small_bibnet.graph
        query = int(small_bibnet.paper_nodes[0])
        mask = np.zeros(graph.n_nodes, dtype=bool)
        mask[small_bibnet.paper_nodes] = True
        assert_matches_oracle(
            graph, query, 5, exclude={query}, candidate_mask=mask
        )

    @pytest.mark.parametrize("measure", ["roundtriprank_plus"])
    def test_plus_beta_parity(self, small_bibnet, measure):
        query = int(small_bibnet.paper_nodes[1])
        assert_matches_oracle(
            small_bibnet.graph, query, 5, measure=measure, beta=0.3
        )


@pytest.fixture()
def no_push_budget(monkeypatch):
    """Force every query to escalate: zero sweeps before the exact solve."""
    monkeypatch.setattr(local_module, "MAX_SWEEPS", 0)


class TestEscalation:
    def test_zero_budget_is_bit_identical_to_batch_path(self, small_bibnet, no_push_budget):
        from repro.engine.batch import roundtriprank_batch

        graph = small_bibnet.graph
        query = int(small_bibnet.paper_nodes[0])
        result = local_topk(graph, query, 10, ALPHA)
        assert result.escalated
        assert result.work == 0
        expected_idx, expected_val = topk_select(
            roundtriprank_batch(graph, [query], ALPHA)[:, 0], 10
        )
        assert np.array_equal(result.indices, expected_idx)
        assert np.array_equal(result.scores, expected_val)

    def test_exact_method_power_parity(self, small_bibnet, no_push_budget):
        from repro.engine.batch import frank_batch, roundtriprank_batch, trank_batch

        graph = small_bibnet.graph
        query = int(small_bibnet.paper_nodes[2])

        def power_columns(kind, node_list):
            fn = frank_batch if kind == "f" else trank_batch
            return fn(graph, node_list, ALPHA, method="power")

        result = local_topk(graph, query, 5, ALPHA, solve_columns=power_columns)
        assert result.escalated
        expected_idx, expected_val = topk_select(
            roundtriprank_batch(graph, [query], ALPHA, method="power")[:, 0], 5
        )
        assert np.array_equal(result.indices, expected_idx)
        assert np.array_equal(result.scores, expected_val)

    def test_solve_columns_hook_drives_escalation(self, toy_graph, no_push_budget):
        from repro.engine.batch import frank_batch, trank_batch

        calls = []

        def hook(kind, node_list):
            calls.append(kind)
            fn = frank_batch if kind == "f" else trank_batch
            return fn(toy_graph, node_list, ALPHA)

        result = local_topk(toy_graph, 0, 3, ALPHA, solve_columns=hook)
        assert result.escalated
        assert sorted(set(calls)) == ["f", "t"]


class TestMarginLimitedEscalation:
    def test_waits_until_the_bounds_resolve_the_gap(self, bibnet_2200):
        # After round 1 paper 4157's binding estimate gap is ~2e-10, inside
        # ESCALATE_GAP, while its score bounds are still ~3e-3 wide: the gap
        # is not resolved yet, and the next round certifies it.
        graph = bibnet_2200.graph
        result = local_topk(graph, 4157, 10, ALPHA)
        assert result.certified
        assert result.indices.tolist() == naive_topk(graph, 4157, 10, ALPHA).nodes


class TestColumnProbe:
    def test_exact_columns_certify_without_work(self, small_bibnet):
        graph = small_bibnet.graph
        query = int(small_bibnet.paper_nodes[0])
        columns = {
            "f": frank_vector(graph, query, ALPHA),
            "t": trank_vector(graph, query, ALPHA),
        }

        result = local_topk(
            graph, query, 10, ALPHA,
            normalize=False,
            column_probe=lambda kind, node: columns[kind],
        )
        assert result.certified
        assert result.work == 0
        truth = oracle_scores(graph, query, "roundtriprank")
        expected, _ = topk_select(truth, 10)
        assert result.indices.tolist() == expected.tolist()

    def test_probe_miss_falls_back_to_push(self, toy_graph):
        result = local_topk(
            toy_graph, 0, 3, ALPHA, column_probe=lambda kind, node: None
        )
        assert result.certified or result.escalated


class TestValidation:
    def test_bad_measure(self, toy_graph):
        with pytest.raises(ValueError, match="measure"):
            local_topk(toy_graph, 0, 3, measure="pagerank")

    def test_bad_k(self, toy_graph):
        with pytest.raises(ValueError, match="k must be"):
            local_topk(toy_graph, 0, 0)

    def test_bad_alpha(self, toy_graph):
        with pytest.raises(ValueError):
            local_topk(toy_graph, 0, 3, alpha=1.0)

    @pytest.mark.parametrize(
        ("kwargs", "error"),
        [
            ({"k": 2.5}, TypeError),
            ({"tol": float("nan")}, ValueError),
            ({"tol": -1.0}, ValueError),
            ({"max_iter": 0}, ValueError),
            ({"max_iter": 2.5}, TypeError),
        ],
    )
    def test_bad_arguments_are_rejected_before_any_sweep(
        self, toy_graph, monkeypatch, kwargs, error
    ):
        # Query 4 certifies, so tol and max_iter (read only on escalation)
        # used to pass unchecked, and k = 2.5 reached np.argpartition.
        assert local_topk(toy_graph, 4, 3).certified

        def no_sweep(*args):
            raise AssertionError("swept before validating")

        monkeypatch.setattr(local_module, "matvec_accumulate", no_sweep)
        args = {"k": 3, **kwargs}
        with pytest.raises(error, match=next(iter(kwargs))):
            local_topk(toy_graph, 4, args.pop("k"), **args)


class TestPushState:
    def test_f_push_brackets_true_column(self, toy_graph):
        node = 4
        truth = frank_vector(toy_graph, node, ALPHA)
        push = ColumnPush(toy_graph, node, ALPHA, "f")
        push.advance(1e-4, 10**9)
        assert np.all(push.estimate <= truth + 1e-12)
        assert np.all(truth <= push.estimate + push.error() + 1e-12)

    def test_t_push_brackets_true_column(self, toy_graph):
        node = 4
        truth = trank_vector(toy_graph, node, ALPHA)
        push = ColumnPush(toy_graph, node, ALPHA, "t")
        push.advance(1e-4, 10**9)
        assert np.all(push.estimate <= truth + 1e-12)
        assert np.all(truth <= push.estimate + push.error() + 1e-12)

    def test_advance_is_resumable_and_monotone(self, small_bibnet):
        graph = small_bibnet.graph
        node = int(small_bibnet.paper_nodes[0])
        push = ColumnPush(graph, node, ALPHA, "t")
        push.advance(1.0, 64)
        drive_coarse, work_coarse = push.drive(), push.work
        push.advance(1e-6, 10**9)
        assert push.drive() <= drive_coarse
        assert push.work >= work_coarse
        truth = trank_vector(graph, node, ALPHA)
        assert np.all(truth <= push.estimate + push.error() + 1e-12)

    def test_point_is_clamped_where_the_iterate_dips_below_zero(self):
        # On this directed graph the F-Rank Chebyshev iterate of node 12
        # dips to -2.8e-3 at sweeps 9-10; unclamped, combine_beta would
        # turn it into NaN.
        arcs = [
            (8, 8, 5.58),
            (6, 3, 0.44),
            (12, 6, 3.04),
            (11, 7, 4.48),
            (6, 9, 3.84),
            (4, 12, 3.19),
            (7, 0, 0.15),
            (2, 0, 5.26),
            (4, 3, 0.59),
            (0, 5, 0.19),
            (11, 9, 3.60),
            (1, 11, 6.69),
            (8, 2, 4.27),
            (7, 6, 0.51),
            (5, 5, 8.62),
            (9, 1, 2.85),
        ]
        g = graph_from_edges(13, arcs)
        f = ColumnPush(g, 12, ALPHA, "f")
        t = ColumnPush(g, 12, ALPHA, "t")
        for _ in range(12):
            f.advance(0.0, f.work + 1)
            t.advance(0.0, t.work + 1)
            assert np.all(f.point() >= 0.0)
            assert np.all(f.point() <= f.estimate + f.error())
            assert np.isfinite(combine_beta(f.point(), t.point(), 0.5)).all()

    def test_kind_validation(self, toy_graph):
        with pytest.raises(ValueError, match="kind"):
            ColumnPush(toy_graph, 0, ALPHA, "x")


#: A directed 8-cycle with the chord 0 -> 4: its transition matrix has
#: complex eigenvalues, so Chebyshev weights for the real interval
#: [-(1 - alpha), 1 - alpha] make the F-Rank iteration diverge.
CYCLE = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)]
CYCLE_ALPHA = 0.15


def dense_column(graph, node, alpha, transpose):
    p = graph.transition.toarray()
    operator = p.T if transpose else p
    resolvent = np.eye(graph.n_nodes) - (1.0 - alpha) * operator
    return alpha * np.linalg.solve(resolvent, np.eye(graph.n_nodes)[:, node])


class TestPlainSweepFallback:
    def test_chebyshev_alone_diverges_on_the_cycle(self):
        # The premise: the engine's weights, with no fallback, blow up here.
        from itertools import chain

        from repro.engine.batch import chebyshev_weights

        g = graph_from_edges(8, CYCLE)
        damped = (1.0 - CYCLE_ALPHA) * g.transition.toarray().T
        base = np.eye(8)[:, 1] * CYCLE_ALPHA
        x = x_prev = np.zeros(8)
        weights = chain((1.0,), chebyshev_weights(1.0 - CYCLE_ALPHA))
        for _ in range(30):
            omega = next(weights)
            x, x_prev = omega * (base + damped @ x) + (1.0 - omega) * x_prev, x
        assert np.abs(base + damped @ x - x).max() > 1.0

    @pytest.mark.parametrize("node", range(8))
    def test_every_sweep_brackets_the_dense_column_and_converges(self, node):
        g = graph_from_edges(8, CYCLE)
        exact = dense_column(g, node, CYCLE_ALPHA, transpose=True)
        state = ColumnPush(g, node, CYCLE_ALPHA, "f")
        while state.drive() > 1e-12 and not state.drained and state.work < 400:
            state.advance(0.0, state.work + 1)
            assert np.all(state.estimate <= exact + 1e-12)
            assert np.all(exact <= state.estimate + state.error() + 1e-12)
        # Plain sweeps converge at rate 1 - alpha: about 160 of them.
        assert state.drive() <= 1e-12

    @pytest.mark.parametrize("measure", MEASURES)
    def test_local_topk_certifies_exact_or_escalates_bit_identical(self, measure):
        from repro.engine.batch import (
            frank_batch,
            roundtriprank_batch,
            roundtriprank_plus_batch,
            trank_batch,
        )

        g = graph_from_edges(8, CYCLE)
        for node in range(8):
            f = dense_column(g, node, CYCLE_ALPHA, transpose=True)
            t = dense_column(g, node, CYCLE_ALPHA, transpose=False)
            f, t = np.maximum(f, 0.0), np.maximum(t, 0.0)
            dense = {
                "frank": f,
                "trank": t,
                "roundtriprank": f * t,
                "roundtriprank_plus": combine_beta(f, t, 0.5),
            }[measure]
            for k in (1, 2, 3):
                result = local_topk(g, node, k, CYCLE_ALPHA, measure=measure, normalize=False)
                if result.certified:
                    expected, values = topk_select(dense, k)
                    assert result.indices.tolist() == expected.tolist()
                    assert np.all(result.scores <= values + 1e-12)
                    assert np.all(values <= result.scores + result.bound + 1e-12)
                    continue
                if measure == "roundtriprank":
                    scores = roundtriprank_batch(g, [node], CYCLE_ALPHA, normalize=False)
                elif measure == "roundtriprank_plus":
                    scores = roundtriprank_plus_batch(g, [node], 0.5, CYCLE_ALPHA)
                else:
                    solve = frank_batch if measure == "frank" else trank_batch
                    scores = solve(g, [node], CYCLE_ALPHA)
                idx, val = topk_select(scores[:, 0], k)
                assert np.array_equal(result.indices, idx)
                assert np.array_equal(result.scores, val)


class TestInmassVector:
    def test_cached_shared_and_readonly(self, toy_graph):
        a = inmass_vector(toy_graph, ALPHA)
        b = inmass_vector(toy_graph, ALPHA)
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0

    def test_dominates_column_row_sums(self, toy_graph):
        # c(v) = sum_u f_u(v): check against the explicitly-summed columns.
        total = np.zeros(toy_graph.n_nodes)
        for u in range(toy_graph.n_nodes):
            total += frank_vector(toy_graph, u, ALPHA)
        assert np.all(inmass_vector(toy_graph, ALPHA) >= total - 1e-9)
