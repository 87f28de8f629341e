"""Tests for the graph-access layer."""

import numpy as np
import pytest

from repro.graph import DiGraph, graph_from_edges
from repro.topk import (
    SCHEMES,
    GraphAccess,
    InstrumentedGraphAccess,
    LocalGraphAccess,
    twosbound_topk,
)


class TestLocalAccess:
    def test_matches_digraph(self, toy_graph):
        access = LocalGraphAccess(toy_graph)
        assert access.n_nodes == toy_graph.n_nodes
        for v in range(toy_graph.n_nodes):
            n1, p1 = access.out_edges(v)
            n2, p2 = toy_graph.out_edges(v)
            assert np.array_equal(n1, n2) and np.array_equal(p1, p2)
            m1, q1 = access.in_edges(v)
            m2, q2 = toy_graph.in_edges(v)
            assert np.array_equal(m1, m2) and np.array_equal(q1, q2)
            assert access.out_degree(v) == len(toy_graph.out_neighbors(v))

    def test_bulk_degrees(self, toy_graph):
        access = LocalGraphAccess(toy_graph)
        nodes = np.array([0, 3, 5])
        assert np.array_equal(
            access.out_degrees(nodes), toy_graph.out_degrees[nodes]
        )

    def test_self_loop_detection(self):
        clean = LocalGraphAccess(graph_from_edges(2, [(0, 1), (1, 0)]))
        assert not clean.has_self_loops
        dangling = LocalGraphAccess(graph_from_edges(2, [(0, 1)]))
        assert dangling.has_self_loops  # dangling convention adds one
        explicit = LocalGraphAccess(graph_from_edges(2, [(0, 0), (0, 1), (1, 0)]))
        assert explicit.has_self_loops

    def test_prefetch_noop(self, toy_graph):
        access = LocalGraphAccess(toy_graph)
        access.prefetch(np.array([0, 1]))  # must not raise


class TestInstrumentedAccess:
    def test_accounting_grows_with_fetches(self, toy_graph):
        access = InstrumentedGraphAccess(LocalGraphAccess(toy_graph))
        assert access.active_node_count == 0
        access.out_edges(0)
        first = access.active_node_count
        assert first >= 1
        access.out_edges(0)  # repeat: no growth
        assert access.active_node_count == first
        access.in_edges(3)
        assert access.active_node_count >= first

    def test_arc_count(self, toy_graph):
        access = InstrumentedGraphAccess(LocalGraphAccess(toy_graph))
        neighbors, _ = access.out_edges(0)
        assert access.active_arc_count == neighbors.size

    def test_bytes_model(self, toy_graph):
        access = InstrumentedGraphAccess(LocalGraphAccess(toy_graph))
        access.out_edges(0)
        expected = (
            access.active_node_count * DiGraph.NODE_BYTES
            + access.active_arc_count * DiGraph.ARC_BYTES
        )
        assert access.active_set_bytes == expected

    def test_passthrough_values(self, toy_graph):
        inner = LocalGraphAccess(toy_graph)
        access = InstrumentedGraphAccess(inner)
        assert access.n_nodes == inner.n_nodes
        assert access.has_self_loops == inner.has_self_loops
        assert access.out_degree(0) == inner.out_degree(0)
        n1, _ = access.out_edges(2)
        n2, _ = inner.out_edges(2)
        assert np.array_equal(n1, n2)


class PerNodeAccess(GraphAccess):
    """Only the abstract per-node reads: every bulk method is the default."""

    def __init__(self, graph: DiGraph) -> None:
        self._local = LocalGraphAccess(graph)

    @property
    def n_nodes(self) -> int:
        return self._local.n_nodes

    def out_edges(self, node):
        return self._local.out_edges(node)

    def in_edges(self, node):
        return self._local.in_edges(node)

    def out_degree(self, node):
        return self._local.out_degree(node)

    @property
    def has_self_loops(self) -> bool:
        return self._local.has_self_loops


class TestBulkRows:
    # node 3 has no in-edges; node 4 is dangling (self-loop in P)
    GRAPH_EDGES = [(0, 1), (0, 2, 3.0), (1, 2), (1, 4), (2, 0), (3, 0), (3, 2)]

    @pytest.mark.parametrize("nodes", [[], [3], [4], [4, 4, 0], [2, 0, 2], [0, 1, 2, 3, 4]])
    def test_local_gather_equals_per_node_default(self, nodes):
        g = graph_from_edges(5, self.GRAPH_EDGES)
        local, per_node = LocalGraphAccess(g), PerNodeAccess(g)
        nodes = np.asarray(nodes, dtype=np.int64)
        for got, want in (
            (local.out_rows(nodes), per_node.out_rows(nodes)),
            (local.in_rows(nodes), per_node.in_rows(nodes)),
        ):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        counts, neighbors, probs = local.out_rows(nodes)
        assert counts.sum() == neighbors.size == probs.size

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_twosbound_identical_through_default_bulk_path(self, small_bibnet, scheme):
        g = small_bibnet.graph
        for q in small_bibnet.paper_nodes[:4].tolist() + small_bibnet.author_nodes[:2].tolist():
            fast = twosbound_topk(g, q, 10, epsilon=0.005, scheme=scheme)
            slow = twosbound_topk(PerNodeAccess(g), q, 10, epsilon=0.005, scheme=scheme)
            assert slow.nodes == fast.nodes
            assert np.array_equal(slow.lower, fast.lower)
            assert np.array_equal(slow.upper, fast.upper)
            assert (slow.rounds, slow.seen_f, slow.seen_t, slow.seen_r) == (
                fast.rounds,
                fast.seen_f,
                fast.seen_t,
                fast.seen_r,
            )
