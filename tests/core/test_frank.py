"""Tests for F-Rank / Personalized PageRank (Eq. 5, Prop. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    estimate_frank_mc,
    frank_constant_length,
    frank_vector,
    power_iteration,
)
from repro.core.queries import teleport_vector
from repro.graph import graph_from_edges
from tests.conftest import brute_force_frank, random_digraph_strategy


class TestFRankVector:
    def test_sums_to_one(self, toy_graph):
        f = frank_vector(toy_graph, 0)
        assert f.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(f >= 0)

    def test_query_has_largest_score_on_symmetric_graph(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        f = frank_vector(toy_graph, q)
        assert f.argmax() == q

    def test_two_node_exact_value(self):
        # 0 <-> 1 symmetric: f(0, 0) solves f = a + (1-a)^2 f
        g = graph_from_edges(2, [(0, 1)], directed=False)
        alpha = 0.25
        f = frank_vector(g, 0, alpha)
        expected_self = alpha / (1.0 - (1.0 - alpha) ** 2)
        assert f[0] == pytest.approx(expected_self, abs=1e-10)
        assert f[1] == pytest.approx(1.0 - expected_self, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(random_digraph_strategy(max_nodes=8))
    def test_matches_brute_force_series(self, g):
        alpha = 0.3
        f = frank_vector(g, 0, alpha)
        oracle = brute_force_frank(g, 0, alpha)
        assert np.allclose(f, oracle, atol=1e-8)

    def test_multi_node_linearity(self, toy_graph):
        a = toy_graph.node_by_label("t1")
        b = toy_graph.node_by_label("t2")
        combined = frank_vector(toy_graph, [a, b])
        separate = 0.5 * frank_vector(toy_graph, a) + 0.5 * frank_vector(toy_graph, b)
        assert np.allclose(combined, separate, atol=1e-9)

    def test_weighted_multi_node(self, toy_graph):
        a = toy_graph.node_by_label("t1")
        b = toy_graph.node_by_label("t2")
        combined = frank_vector(toy_graph, {a: 3.0, b: 1.0})
        separate = 0.75 * frank_vector(toy_graph, a) + 0.25 * frank_vector(toy_graph, b)
        assert np.allclose(combined, separate, atol=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_validation(self, toy_graph, alpha):
        with pytest.raises(ValueError):
            frank_vector(toy_graph, 0, alpha)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tol_rejected(self, toy_graph, tol):
        # Unchecked, NaN ran all max_iter sweeps without a warning and inf
        # returned the one-sweep iterate.
        s = teleport_vector(toy_graph, 0)
        with pytest.raises(ValueError, match="tol must be finite"):
            power_iteration(toy_graph.transition.T.tocsr(), s, 0.25, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite"):
            frank_vector(toy_graph, 0, tol=tol)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_teleport_rejected(self, toy_graph, bad):
        # Unchecked, NaN ran all max_iter sweeps and returned NaN without a
        # warning, and inf returned NaN with only numpy warnings.
        s = teleport_vector(toy_graph, 0)
        s[3] = bad
        with pytest.raises(ValueError, match="teleport must be finite"):
            power_iteration(toy_graph.transition.T.tocsr(), s, 0.25)


class TestConvergenceWarning:
    def test_warns_when_max_iter_exhausted(self, toy_graph):
        from repro.core import ConvergenceWarning

        with pytest.warns(ConvergenceWarning, match="did not converge"):
            frank_vector(toy_graph, 0, max_iter=1)

    def test_no_warning_on_normal_convergence(self, toy_graph, recwarn):
        from repro.core import ConvergenceWarning

        frank_vector(toy_graph, 0)
        assert not any(isinstance(w.message, ConvergenceWarning) for w in recwarn.list)


class TestFRankConstantLength:
    def test_length_zero_is_query_indicator(self, toy_graph):
        dist = frank_constant_length(toy_graph, 2, 0)
        assert dist[2] == 1.0
        assert dist.sum() == pytest.approx(1.0)

    def test_length_one_is_transition_row(self, toy_graph):
        dist = frank_constant_length(toy_graph, 0, 1)
        neighbors, probs = toy_graph.out_edges(0)
        assert np.allclose(dist[neighbors], probs)

    def test_matches_matrix_power(self, toy_graph):
        q = 0
        length = 3
        p = toy_graph.transition.toarray()
        expected = np.linalg.matrix_power(p.T, length)[:, q]
        assert np.allclose(frank_constant_length(toy_graph, q, length), expected)

    def test_negative_length_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            frank_constant_length(toy_graph, 0, -1)


class TestProposition1:
    """Monte Carlo trips with geometric length reproduce PPR (Prop. 1)."""

    def test_mc_agrees_with_iterative(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        exact = frank_vector(toy_graph, q, 0.25)
        mc = estimate_frank_mc(toy_graph, q, 0.25, n_samples=20000, seed=7)
        # mass agrees within Monte Carlo noise on every node
        assert np.abs(mc - exact).max() < 0.02
