"""Tests for the t-side bound machinery (border nodes + Eq. 22)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import trank_vector
from repro.topk import LocalGraphAccess, TBoundSide
from tests.conftest import random_digraph_strategy


def run_side(graph, query, alpha=0.25, rounds=40, **kwargs):
    side = TBoundSide(LocalGraphAccess(graph), query, alpha, m=2, **kwargs)
    for _ in range(rounds):
        side.expand()
        side.refine()
        if side.exhausted:
            break
    return side


class TestInitialState:
    def test_matches_paper(self, toy_graph):
        side = TBoundSide(LocalGraphAccess(toy_graph), 0, 0.25)
        assert side.seen_nodes().tolist() == [0]
        assert side.lower[0] == pytest.approx(0.25)
        assert side.upper[0] == 1.0
        # q has unseen in-neighbors, so Eq. 22 initially gives (1-alpha)
        assert side.unseen_upper == pytest.approx(0.75)


class TestBoundSoundness:
    @settings(max_examples=20, deadline=None)
    @given(random_digraph_strategy(max_nodes=8))
    def test_bounds_sandwich_exact_trank(self, g):
        alpha = 0.25
        exact = trank_vector(g, 0, alpha)
        side = run_side(g, 0, alpha, rounds=25)
        seen = side.seen_nodes()
        assert np.all(side.lower[seen] <= exact[seen] + 1e-9)
        assert np.all(side.upper[seen] >= exact[seen] - 1e-9)
        if (~side.seen).any():
            assert exact[~side.seen].max() <= side.unseen_upper + 1e-9

    def test_unseen_bound_never_below_true_max(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        exact = trank_vector(toy_graph, q, 0.25)
        side = TBoundSide(LocalGraphAccess(toy_graph), q, 0.25, m=1)
        for _ in range(30):
            side.expand()
            side.refine()
            unseen = ~side.seen
            if unseen.any():
                assert exact[unseen].max() <= side.unseen_upper + 1e-9
            if side.exhausted:
                break


class TestBorderSemantics:
    def test_border_nodes_have_unseen_in_neighbor(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        side = TBoundSide(LocalGraphAccess(toy_graph), q, 0.25, m=1)
        side.expand()
        for u in side.border:
            in_n, _ = LocalGraphAccess(toy_graph).in_edges(u)
            assert np.count_nonzero(~side.seen[in_n]) > 0

    @settings(max_examples=30, deadline=None)
    @given(random_digraph_strategy(max_nodes=10))
    def test_in_counts_match_one_at_a_time_adds(self, g):
        # Adding nodes one at a time leaves every seen, unexpanded node with
        # its in-degree minus the arcs it receives from other St members (a
        # self-loop never counts); batch adds must leave the same counts.
        p = g.transition.tocsc()
        side = TBoundSide(LocalGraphAccess(g), 0, 0.25, m=2, heavy_degree=None)
        expanded: set[int] = set()
        while True:
            for v in np.flatnonzero(side.seen).tolist():
                sources = p.indices[p.indptr[v] : p.indptr[v + 1]]
                closed = np.count_nonzero(side.seen[sources] & (sources != v))
                want = 0 if v in expanded else max(sources.size - closed, 0)
                assert side._unseen_in_count[v] == want
            if side.exhausted:
                break
            expanded.update(side.expand())

    def test_closure_means_exhausted_and_zero_unseen(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        side = run_side(toy_graph, q, rounds=100)
        assert side.exhausted
        assert side.unseen_upper == 0.0
        # toy graph is connected: the in-closure is the whole graph
        assert side.seen.all()

    def test_expansion_on_exhausted_is_noop(self, toy_graph):
        side = run_side(toy_graph, 0, rounds=100)
        assert side.expand() == []


class TestConvergence:
    def test_exhaustion_gives_exact_values(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        side = run_side(toy_graph, q, rounds=200)
        side.finalize()
        exact = trank_vector(toy_graph, q, 0.25)
        seen = side.seen_nodes()
        assert np.allclose(side.lower[seen], exact[seen], atol=1e-8)
        assert np.allclose(side.upper[seen], exact[seen], atol=1e-8)

    def test_single_sweep_scheme_still_sound(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        exact = trank_vector(toy_graph, q, 0.25)
        side = run_side(toy_graph, q, rounds=10, refine="single")
        seen = side.seen_nodes()
        assert np.all(side.lower[seen] <= exact[seen] + 1e-9)
        assert np.all(side.upper[seen] >= exact[seen] - 1e-9)


class TestValidation:
    def test_bad_refine(self, toy_graph):
        with pytest.raises(ValueError):
            TBoundSide(LocalGraphAccess(toy_graph), 0, 0.25, refine="x")

    def test_bad_m(self, toy_graph):
        with pytest.raises(ValueError):
            TBoundSide(LocalGraphAccess(toy_graph), 0, 0.25, m=0)

    def test_bad_query(self, toy_graph):
        with pytest.raises(ValueError):
            TBoundSide(LocalGraphAccess(toy_graph), 99, 0.25)
