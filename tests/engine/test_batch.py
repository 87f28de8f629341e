"""Parity tests: the batch engine must match the single-query paths exactly."""

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

#: A mix of every query flavor: single node, node list, weighted mapping.
MIXED_QUERIES = [0, [0, 1], {2: 3.0, 5: 1.0}, 7, [3, 3, 4]]


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
        from repro.graph import graph_from_edges

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

    def test_warning_opt_out(self, toy_graph, recwarn):
        s = stack_teleports(toy_graph, [0])
        op = toy_graph.transition.T.tocsr()
        power_iteration_batch(op, s, 0.25, max_iter=2, warn_on_nonconvergence=False)
        assert not any(isinstance(w.message, ConvergenceWarning) for w in recwarn.list)

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
