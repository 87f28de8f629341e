"""Parity tests: the batch engine must match the single-query paths exactly."""

import re
import warnings

import numpy as np
import pytest

from repro.core import (
    ConvergenceWarning,
    frank_vector,
    power_iteration,
    roundtriprank,
    roundtriprank_plus,
    trank_vector,
)
from repro.engine import (
    frank_batch,
    power_iteration_batch,
    roundtriprank_batch,
    roundtriprank_plus_batch,
    stack_teleports,
    trank_batch,
)
from repro.engine.batch import MEASURES, normalize_columns
from repro.graph import graph_from_edges
from repro.ops import TransitionOperator

#: A mix of every query flavor: single node, node list, weighted mapping.
MIXED_QUERIES = [0, [0, 1], {2: 3.0, 5: 1.0}, 7, [3, 3, 4]]

#: A 4-node digraph whose transition matrix has a column summing to 2
#: (node 0 is the only successor of 2 and of 3), so T-Rank's L1 residual
#: can grow across a power-iteration sweep; Chebyshev makes no progress
#: on its cycle 0 -> 1 -> 2 -> 0.
COLUMN_SUM_TWO_ARCS = [(0, 1, 6.5), (0, 3, 0.125), (3, 0, 0.125), (1, 2), (2, 0)]


class TestStackTeleports:
    def test_columns_are_teleport_vectors(self, toy_graph):
        s = stack_teleports(toy_graph, MIXED_QUERIES)
        assert s.shape == (toy_graph.n_nodes, len(MIXED_QUERIES))
        assert np.allclose(s.sum(axis=0), 1.0)
        assert s[0, 0] == 1.0
        assert s[2, 2] == pytest.approx(0.75)

    def test_empty_batch_rejected(self, toy_graph):
        with pytest.raises(ValueError, match="empty"):
            stack_teleports(toy_graph, [])

    def test_invalid_query_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            stack_teleports(toy_graph, [toy_graph.n_nodes])


class TestPowerIterationBatch:
    def test_power_single_column_matches_1d_solver_exactly(self, toy_graph):
        s = stack_teleports(toy_graph, [3])
        op = toy_graph.transition.T.tocsr()
        batched = power_iteration_batch(op, s, 0.25, method="power")
        single = power_iteration(op, s[:, 0], 0.25)
        assert np.array_equal(batched[:, 0], single)

    def test_auto_single_column_matches_1d_solver(self, toy_graph):
        s = stack_teleports(toy_graph, [3])
        op = toy_graph.transition.T.tocsr()
        batched = power_iteration_batch(op, s, 0.25, method="auto")
        single = power_iteration(op, s[:, 0], 0.25)
        assert np.abs(batched[:, 0] - single).max() < 1e-10

    @pytest.mark.parametrize("method", ["auto", "power"])
    def test_columns_converge_independently(self, toy_graph, method):
        # Mixing very different teleports must not cross-contaminate columns.
        s = stack_teleports(toy_graph, [0, 11])
        op = toy_graph.transition.T.tocsr()
        batched = power_iteration_batch(op, s, 0.25, method=method)
        for j in (0, 1):
            single = power_iteration(op, s[:, j], 0.25)
            assert np.abs(batched[:, j] - single).max() < 1e-10

    def test_unknown_method_rejected(self, toy_graph):
        s = stack_teleports(toy_graph, [0])
        with pytest.raises(ValueError, match="method"):
            power_iteration_batch(toy_graph.transition, s, 0.25, method="lanczos")

    def test_auto_falls_back_on_directed_cycle(self):
        # A directed cycle has strongly complex spectrum — Chebyshev
        # diverges, the guard trips, and the power fallback must still
        # deliver tol-accurate columns without warnings.
        n = 101
        cyc = graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        auto = frank_batch(cyc, [0, 50], method="auto")
        power = frank_batch(cyc, [0, 50], method="power")
        assert np.abs(auto - power).max() < 1e-10

    def test_warns_when_columns_do_not_converge(self, toy_graph):
        s = stack_teleports(toy_graph, [0, 1])
        op = toy_graph.transition.T.tocsr()
        with pytest.warns(ConvergenceWarning, match="did not converge"):
            power_iteration_batch(op, s, 0.25, max_iter=2)

    def test_auto_verifies_where_the_step_rule_stops_short(self):
        # T-Rank's operator P has a column summing to 2 here, so the L1
        # residual can grow across a sweep: the masked power iteration stops
        # on a step of 8.3e-13 and hands back an iterate whose residual
        # verifies at 1.02e-12.  The solver must sweep on within its budget
        # rather than report non-convergence after 410 of 1000 sweeps.
        g = graph_from_edges(4, COLUMN_SUM_TWO_ARCS)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            auto = trank_batch(g, [0], 0.15)
            power = trank_batch(g, [0], 0.15, method="power")
        assert np.abs(auto - power).max() <= 1e-12 / 0.15

    def test_auto_restarts_columns_whose_corrections_diverge(self):
        # On strongly directed digraphs at alpha 0.05 the first float32
        # phase can stall far from the fixed point, and each correction
        # then multiplies the residual (3.2e3 -> 1.2e8 -> 4.8e12 on the 15th
        # graph below).  The fallback must restart those columns from
        # alpha * s rather than sweep on from the diverged iterate, which
        # spent all 1,000 sweeps and warned on 10 of these 300 solves.
        rng = np.random.default_rng(0)
        alpha = 0.05
        for _ in range(150):
            n = int(rng.integers(1, 13))
            arcs = [
                (int(rng.integers(n)), int(rng.integers(n)), float(rng.uniform(0.1, 10)))
                for _ in range(int(rng.integers(0, 3 * n + 1)))
            ]
            queries = [int(v) for v in rng.integers(0, n, size=int(rng.integers(1, 5)))]
            g = graph_from_edges(n, arcs)
            for batch, transpose in ((frank_batch, True), (trank_batch, False)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", ConvergenceWarning)
                    auto = batch(g, queries, alpha)
                p = g.transition.toarray()
                resolvent = np.eye(n) - (1 - alpha) * (p.T if transpose else p)
                exact = alpha * np.linalg.solve(resolvent, np.eye(n)[:, queries])
                assert np.abs(auto - exact).max() <= 1e-12 / alpha

    @pytest.mark.parametrize("method", ["auto", "power"])
    def test_warning_reports_the_sweeps_run(self, monkeypatch, method):
        products = []
        matmat = TransitionOperator.matmat

        def counting_matmat(self, *args, **kwargs):
            products.append(1)
            return matmat(self, *args, **kwargs)

        monkeypatch.setattr(TransitionOperator, "matmat", counting_matmat)
        g = graph_from_edges(4, COLUMN_SUM_TWO_ARCS)
        with pytest.warns(ConvergenceWarning) as caught:
            trank_batch(g, [0], 0.15, max_iter=150, method=method)
        message = str(caught[0].message)
        assert f"did not converge in {len(products)} sweeps (max_iter=150;" in message

    def test_rejects_1d_teleports(self, toy_graph):
        op = toy_graph.transition
        with pytest.raises(ValueError, match="2-D"):
            power_iteration_batch(op, np.ones(toy_graph.n_nodes), 0.25)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1])
    def test_alpha_validation(self, toy_graph, alpha):
        s = stack_teleports(toy_graph, [0])
        with pytest.raises(ValueError):
            power_iteration_batch(toy_graph.transition, s, alpha)

    @pytest.mark.parametrize("method", ["power", "auto"])
    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tol_rejected(self, toy_graph, method, tol):
        # Unchecked, "power" returned a one-sweep iterate and "auto" raised
        # an unrelated error from inside the Chebyshev phase.
        s = stack_teleports(toy_graph, [0])
        with pytest.raises(ValueError, match="tol must be finite"):
            power_iteration_batch(toy_graph.transition, s, 0.25, tol=tol, method=method)
        with pytest.raises(ValueError, match="tol must be finite"):
            frank_batch(toy_graph, [0], tol=tol, method=method)

    @pytest.mark.parametrize("method", ["power", "auto"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_teleports_rejected(self, toy_graph, method, bad):
        # Unchecked, a NaN column came back at once as "converged" with no
        # ConvergenceWarning, and an inf one as NaN with only numpy warnings.
        s = stack_teleports(toy_graph, [0, 1])
        s[3, 1] = bad
        with pytest.raises(ValueError, match="teleports must be finite"):
            power_iteration_batch(toy_graph.transition, s, 0.25, method=method)

    @pytest.mark.parametrize("method", ["power", "auto"])
    def test_zero_width_block_solves_to_an_empty_block(self, toy_graph, method, monkeypatch):
        # Unchecked, "auto" took the max of an empty residual and raised.
        def no_sweeps(*args, **kwargs):
            raise AssertionError("a zero-width solve must not sweep")

        top = toy_graph.transition.T.tocsr()
        monkeypatch.setattr(TransitionOperator, "matmat", no_sweeps)
        x = power_iteration_batch(top, np.zeros((toy_graph.n_nodes, 0)), 0.25, method=method)
        assert x.shape == (toy_graph.n_nodes, 0)
        assert x.dtype == np.float64


class TestBatchParityToy:
    def test_frank_batch_matches_single(self, toy_graph):
        batched = frank_batch(toy_graph, MIXED_QUERIES)
        for j, q in enumerate(MIXED_QUERIES):
            assert np.abs(batched[:, j] - frank_vector(toy_graph, q)).max() < 1e-10

    def test_trank_batch_matches_single(self, toy_graph):
        batched = trank_batch(toy_graph, MIXED_QUERIES)
        for j, q in enumerate(MIXED_QUERIES):
            assert np.abs(batched[:, j] - trank_vector(toy_graph, q)).max() < 1e-10

    @pytest.mark.parametrize("normalize", [True, False])
    def test_roundtriprank_batch_matches_single(self, toy_graph, normalize):
        batched = roundtriprank_batch(toy_graph, MIXED_QUERIES, normalize=normalize)
        for j, q in enumerate(MIXED_QUERIES):
            single = roundtriprank(toy_graph, q, normalize=normalize)
            assert np.abs(batched[:, j] - single).max() < 1e-10

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    def test_roundtriprank_plus_batch_matches_single(self, toy_graph, beta):
        batched = roundtriprank_plus_batch(toy_graph, MIXED_QUERIES, beta=beta)
        for j, q in enumerate(MIXED_QUERIES):
            single = roundtriprank_plus(toy_graph, q, beta=beta)
            assert np.abs(batched[:, j] - single).max() < 1e-10


class TestBatchParityBibnet:
    def test_all_measures_match_single_query(self, small_bibnet):
        graph = small_bibnet.graph
        rng = np.random.default_rng(23)
        singles = [int(q) for q in rng.choice(graph.n_nodes, size=6, replace=False)]
        queries = singles + [singles[:3], {singles[0]: 2.0, singles[4]: 1.0}]
        f_cols = frank_batch(graph, queries)
        t_cols = trank_batch(graph, queries)
        r_cols = roundtriprank_batch(graph, queries)
        for j, q in enumerate(queries):
            assert np.abs(f_cols[:, j] - frank_vector(graph, q)).max() < 1e-10
            assert np.abs(t_cols[:, j] - trank_vector(graph, q)).max() < 1e-10
            assert np.abs(r_cols[:, j] - roundtriprank(graph, q)).max() < 1e-10

    def test_batch_columns_are_distributions(self, small_bibnet):
        graph = small_bibnet.graph
        f_cols = frank_batch(graph, [0, 1, 2, 3])
        assert np.allclose(f_cols.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(f_cols >= 0)

    def test_duplicate_queries_share_columns(self, small_bibnet):
        graph = small_bibnet.graph
        r_cols = roundtriprank_batch(graph, [5, 5, 5])
        assert np.abs(r_cols[:, 0] - r_cols[:, 1]).max() == 0.0
        assert np.abs(r_cols[:, 0] - r_cols[:, 2]).max() == 0.0


class TestBatchWidthIndependence:
    """A column's bits must not depend on which columns share its stack."""

    @pytest.mark.parametrize(("n", "q"), [(1000, 2), (4099, 7), (30000, 32)])
    def test_normalize_columns_matches_lone_column(self, n, q):
        stack = np.random.default_rng(n + q).random((n, q))
        together = normalize_columns(stack, "test")
        for j in range(q):
            alone = normalize_columns(stack[:, [j]], "test")[:, 0]
            assert np.array_equal(together[:, j], alone), f"column {j} of {q}"

    def test_roundtriprank_batch_column_independent_of_batch(self, small_bibnet):
        graph = small_bibnet.graph
        nodes = [int(v) for v in small_bibnet.paper_nodes[:8]]
        together = roundtriprank_batch(graph, nodes, method="power")
        for j, node in enumerate(nodes):
            alone = roundtriprank_batch(graph, [node], method="power")[:, 0]
            assert np.array_equal(together[:, j], alone), f"query {node}"


class TestBatchValidation:
    def test_empty_roundtrip_batch_rejected(self, toy_graph):
        with pytest.raises(ValueError, match="empty"):
            roundtriprank_batch(toy_graph, [])

    def test_empty_plus_batch_rejected(self, toy_graph):
        with pytest.raises(ValueError, match="empty"):
            roundtriprank_plus_batch(toy_graph, [])

    def test_bad_beta_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            roundtriprank_plus_batch(toy_graph, [0], beta=1.5)


class TestMeasureTable:
    """One table says which measures exist and which columns each reads."""

    @pytest.mark.parametrize("entry", ["ask", "gateway", "local_topk"])
    def test_unknown_measure_rejected_alike(self, toy_graph, entry):
        from repro.gateway import RankGateway
        from repro.topk import local_topk

        calls = {
            "ask": lambda: RankGateway(toy_graph).ask(0, measure="ppr"),
            "gateway": lambda: RankGateway(toy_graph).submit(0, measure="ppr"),
            "local_topk": lambda: local_topk(toy_graph, 0, 3, measure="ppr"),
        }
        with pytest.raises(ValueError, match=re.escape(f"measure must be one of {MEASURES}")):
            calls[entry]()
