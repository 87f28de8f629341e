"""Tests for the naive exact top-K oracle."""

import numpy as np
import pytest

from repro.core import frank_vector, trank_vector
from repro.topk import naive_topk


class TestNaiveTopK:
    def test_scores_are_ft_product(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        result = naive_topk(toy_graph, q, 5)
        f = frank_vector(toy_graph, q)
        t = trank_vector(toy_graph, q)
        assert np.allclose(result.scores, f * t, atol=1e-12)

    def test_ranking_order(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        result = naive_topk(toy_graph, q, toy_graph.n_nodes)
        scores = result.scores[result.nodes]
        assert np.all(np.diff(scores) <= 1e-15)

    def test_tie_break_by_node_id(self):
        from repro.graph import graph_from_edges

        # symmetric star: all leaves tie
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)], directed=False)
        result = naive_topk(g, 0, 4)
        assert result.nodes == [0, 1, 2, 3]

    def test_mask_and_exclude(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        mask = toy_graph.type_mask("paper")
        result = naive_topk(toy_graph, q, 3, candidate_mask=mask, exclude={q})
        for node in result.nodes:
            assert mask[node]
        assert q not in result.nodes

    def test_k_validation(self, toy_graph):
        with pytest.raises(ValueError):
            naive_topk(toy_graph, 0, 0)

    @pytest.mark.parametrize(
        ("kwargs", "error"),
        [
            ({"k": 2.5}, TypeError),
            ({"tol": float("nan")}, ValueError),
            ({"tol": -1.0}, ValueError),
            ({"tol": 0.0}, ValueError),
        ],
    )
    def test_bad_arguments_are_rejected_before_any_sweep(self, toy_graph, kwargs, error):
        # k = 2.5 used to reach np.argpartition after both full solves.
        args = {"k": 3, **kwargs}
        with pytest.raises(error, match=next(iter(kwargs))):
            naive_topk(toy_graph, 0, args.pop("k"), **args)

    def test_ranking_method(self, toy_graph):
        result = naive_topk(toy_graph, 0, 3)
        assert result.ranking() == result.nodes
        assert result.ranking() is not result.nodes  # defensive copy

    def test_multi_node_query_matches_roundtriprank_linearity(self, toy_graph):
        from repro.core import roundtriprank

        a = toy_graph.node_by_label("t1")
        b = toy_graph.node_by_label("t2")
        result = naive_topk(toy_graph, [a, b], toy_graph.n_nodes)
        expected = roundtriprank(toy_graph, [a, b], normalize=False)
        assert np.allclose(result.scores, expected, atol=1e-12)
