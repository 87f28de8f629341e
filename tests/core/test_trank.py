"""Tests for T-Rank (Eq. 8)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    estimate_trank_mc,
    trank_constant_length,
    trank_vector,
)
from repro.graph import graph_from_edges
from tests.conftest import brute_force_trank, random_digraph_strategy


class TestTRankVector:
    def test_values_are_probabilities(self, toy_graph):
        t = trank_vector(toy_graph, 0)
        assert np.all(t >= 0) and np.all(t <= 1.0 + 1e-12)

    def test_self_value_at_least_alpha(self, toy_graph):
        # the L' = 0 trip (probability alpha) already ends at the query
        for alpha in (0.1, 0.25, 0.5):
            t = trank_vector(toy_graph, 3, alpha)
            assert t[3] >= alpha - 1e-12

    def test_two_node_exact_value(self):
        g = graph_from_edges(2, [(0, 1)], directed=False)
        alpha = 0.25
        t = trank_vector(g, 0, alpha)
        # from node 1: reach 0 at odd lengths; t(0,1) = sum over k>=0 of
        # alpha*(1-alpha)^(2k+1) = alpha(1-alpha)/(1-(1-alpha)^2)
        expected = alpha * (1 - alpha) / (1.0 - (1.0 - alpha) ** 2)
        assert t[1] == pytest.approx(expected, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(random_digraph_strategy(max_nodes=8))
    def test_matches_brute_force_series(self, g):
        alpha = 0.3
        t = trank_vector(g, 0, alpha)
        oracle = brute_force_trank(g, 0, alpha)
        assert np.allclose(t, oracle, atol=1e-8)

    def test_unreachable_source_scores_zero(self):
        # 1 -> 0 only: node 0 cannot reach node 1 (self-loop convention
        # keeps the walk at 0 forever).
        g = graph_from_edges(2, [(1, 0)])
        t = trank_vector(g, 1)
        assert t[0] == 0.0

    def test_multi_node_linearity(self, toy_graph):
        a = toy_graph.node_by_label("t1")
        b = toy_graph.node_by_label("t2")
        combined = trank_vector(toy_graph, [a, b])
        separate = 0.5 * trank_vector(toy_graph, a) + 0.5 * trank_vector(toy_graph, b)
        assert np.allclose(combined, separate, atol=1e-9)


class TestTRankConstantLength:
    def test_length_zero(self, toy_graph):
        x = trank_constant_length(toy_graph, 5, 0)
        assert x[5] == 1.0
        assert x.sum() == 1.0

    def test_matches_matrix_power(self, toy_graph):
        q, length = 0, 3
        p = toy_graph.transition.toarray()
        expected = np.linalg.matrix_power(p, length)[:, q]
        assert np.allclose(trank_constant_length(toy_graph, q, length), expected)

    def test_negative_length_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            trank_constant_length(toy_graph, 0, -1)


class TestTRankMonteCarlo:
    def test_mc_agrees_with_iterative(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        exact = trank_vector(toy_graph, q, 0.25)
        sources = np.arange(toy_graph.n_nodes)
        mc = estimate_trank_mc(
            toy_graph, q, sources=sources, alpha=0.25, n_samples=3000, seed=11
        )
        assert np.abs(mc - exact).max() < 0.04
