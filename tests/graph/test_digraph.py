"""Tests for the core DiGraph storage."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from repro.graph import DiGraph, graph_from_edges
from tests.conftest import random_digraph_strategy


class TestConstruction:
    def test_basic_shape(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert g.n_nodes == 3
        assert g.n_edges == 2

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DiGraph(sp.csr_matrix((2, 3)))

    def test_rejects_negative_weights(self):
        w = sp.csr_matrix(np.array([[0.0, -1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="non-negative"):
            DiGraph(w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        w = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, bad], [1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            DiGraph(w)

    def test_rejects_label_length_mismatch(self):
        w = sp.csr_matrix((2, 2))
        with pytest.raises(ValueError, match="labels"):
            DiGraph(w, labels=["a"])

    def test_rejects_bad_node_types_shape(self):
        w = sp.csr_matrix((2, 2))
        with pytest.raises(ValueError, match="node_types"):
            DiGraph(w, node_types=[0, 1, 2])

    def test_zero_weights_eliminated(self):
        w = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        w[0, 1] = 0  # creates explicit zero
        g = DiGraph(w)
        assert g.n_edges == 0


class TestAdjacency:
    def test_out_and_in_neighbors(self):
        g = graph_from_edges(4, [(0, 1), (0, 2), (3, 0)])
        assert g.out_neighbors(0).tolist() == [1, 2]
        assert g.in_neighbors(0).tolist() == [3]

    def test_degrees(self):
        g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert g.out_degrees.tolist() == [2, 1, 0]
        assert g.in_degrees.tolist() == [0, 1, 2]

    def test_has_edge_and_weight(self):
        g = graph_from_edges(3, [(0, 1, 2.5)])
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert g.edge_weight(0, 1) == 2.5
        assert g.edge_weight(1, 0) == 0.0

    def test_out_edges_probs_normalized(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (0, 2, 3.0)])
        neighbors, probs = g.out_edges(0)
        assert neighbors.tolist() == [1, 2]
        assert probs.tolist() == [0.25, 0.75]

    def test_in_edges_probs_are_source_out_probs(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (0, 2, 3.0), (2, 0, 1.0), (1, 0, 1.0)])
        neighbors, probs = g.in_edges(2)
        assert neighbors.tolist() == [0]
        assert probs.tolist() == [0.75]

    def test_dangling_node_gets_self_loop_in_transition(self):
        g = graph_from_edges(2, [(0, 1)])
        neighbors, probs = g.out_edges(1)
        assert neighbors.tolist() == [1]
        assert probs.tolist() == [1.0]


class TestTransition:
    @settings(max_examples=30, deadline=None)
    @given(random_digraph_strategy())
    def test_rows_sum_to_one(self, g):
        row_sums = np.asarray(g.transition.sum(axis=1)).ravel()
        assert np.allclose(row_sums, 1.0)

    @settings(max_examples=20, deadline=None)
    @given(random_digraph_strategy())
    def test_in_edges_consistent_with_out_edges(self, g):
        for v in range(g.n_nodes):
            in_n, in_p = g.in_edges(v)
            for u, p in zip(in_n.tolist(), in_p.tolist()):
                out_n, out_p = g.out_edges(u)
                pos = out_n.tolist().index(v)
                assert out_p[pos] == pytest.approx(p)


class TestLabelsAndTypes:
    def test_label_roundtrip(self):
        g = graph_from_edges(2, [(0, 1)], labels=["alpha", "beta"])
        assert g.label_of(0) == "alpha"
        assert g.node_by_label("beta") == 1
        with pytest.raises(KeyError):
            g.node_by_label("gamma")

    def test_unlabeled_fallback(self):
        g = graph_from_edges(2, [(0, 1)])
        assert g.label_of(1) == "1"
        with pytest.raises(KeyError):
            g.node_by_label("x")

    def test_types(self, toy_graph):
        assert toy_graph.type_code("venue") == 2
        venues = toy_graph.nodes_of_type("venue")
        assert len(venues) == 3
        mask = toy_graph.type_mask("paper")
        assert mask.sum() == 7
        with pytest.raises(KeyError):
            toy_graph.type_code("banana")


class TestDerivedGraphs:
    def test_reverse(self):
        g = graph_from_edges(3, [(0, 1, 2.0)])
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert not r.has_edge(0, 1)
        assert r.edge_weight(1, 0) == 2.0

    def test_reverse_preserves_metadata(self, toy_graph):
        r = toy_graph.reverse()
        assert r.labels == toy_graph.labels
        assert r.type_names == toy_graph.type_names

    def test_with_removed_edges(self):
        g = graph_from_edges(3, [(0, 1), (1, 0), (1, 2)])
        g2 = g.with_removed_edges([(0, 1), (1, 0)])
        assert not g2.has_edge(0, 1)
        assert not g2.has_edge(1, 0)
        assert g2.has_edge(1, 2)
        # original untouched
        assert g.has_edge(0, 1)

    def test_with_removed_edges_renormalizes(self):
        g = graph_from_edges(3, [(0, 1), (0, 2)])
        g2 = g.with_removed_edges([(0, 1)])
        neighbors, probs = g2.out_edges(0)
        assert neighbors.tolist() == [2]
        assert probs.tolist() == [1.0]

    def test_with_removed_edges_ignores_missing(self):
        g = graph_from_edges(2, [(0, 1)])
        g2 = g.with_removed_edges([(1, 0)])  # absent arc
        assert g2.n_edges == 1

    def test_subgraph(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)], labels=list("abcd"))
        sub, ids = g.subgraph([1, 2])
        assert ids.tolist() == [1, 2]
        assert sub.n_nodes == 2
        assert sub.has_edge(0, 1)  # 1 -> 2 in original
        assert sub.labels == ["b", "c"]

    def test_subgraph_out_of_range(self):
        g = graph_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.subgraph([0, 5])


class TestAccounting:
    def test_memory_bytes_model(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert g.memory_bytes == 3 * DiGraph.NODE_BYTES + 2 * DiGraph.ARC_BYTES
