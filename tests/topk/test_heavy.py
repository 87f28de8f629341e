"""Tests for the heavy-node (hub laziness) machinery of 2SBound.

The laziness must never change results — only when bounds tighten.  These
tests force extreme thresholds so every code path (lazy entry, promotion,
finalize lifting) runs even on small graphs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.graph import graph_from_edges
from repro.topk import LocalGraphAccess, TBoundSide, naive_topk, twosbound_topk
from tests.conftest import connected_undirected_strategy


def rankings_equivalent(result, exact, k):
    s = exact.scores
    got = [s[v] for v in result.nodes]
    want = [s[v] for v in exact.nodes]
    if len(got) < k:
        if any(w > 1e-12 for w in want[len(got):]):
            return False
        want = want[: len(got)]
    return np.allclose(sorted(got), sorted(want), atol=1e-9)


class TestHeavyCorrectness:
    @settings(max_examples=20, deadline=None)
    @given(connected_undirected_strategy(max_nodes=9))
    def test_everything_heavy_still_exact(self, g):
        """heavy_degree=1 marks almost every node heavy; results unchanged."""
        exact = naive_topk(g, 0, 3)
        result = twosbound_topk(
            g, 0, 3, epsilon=1e-9, heavy_degree=1, max_rounds=5000
        )
        assert rankings_equivalent(result, exact, 3)

    @settings(max_examples=15, deadline=None)
    @given(connected_undirected_strategy(max_nodes=9))
    @example(graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)], directed=False))
    def test_threshold_does_not_change_topk(self, g):
        """Both runs meet Eq. 13-14, which order exact ties either way: on
        the pinned graph nodes 1 and 2 tie and the runs return [0, 1, 2] and
        [0, 2, 1].  So compare the exact scores position by position; a swap
        of nodes that differ by more than epsilon still fails."""
        epsilon = 1e-9
        base = twosbound_topk(g, 0, 3, epsilon=epsilon, heavy_degree=None, max_rounds=5000)
        lazy = twosbound_topk(g, 0, 3, epsilon=epsilon, heavy_degree=2, max_rounds=5000)
        exact = naive_topk(g, 0, 3).scores
        assert len(base.nodes) == len(lazy.nodes)
        assert np.allclose(exact[base.nodes], exact[lazy.nodes], rtol=0.0, atol=epsilon)

    def test_hub_star_graph(self):
        """A star hub with the query on a leaf: the hub must still appear
        in the ranking despite being heavy."""
        edges = [(0, i) for i in range(1, 12)]
        g = graph_from_edges(12, edges, directed=False)
        exact = naive_topk(g, 1, 5)
        result = twosbound_topk(g, 1, 5, epsilon=1e-9, heavy_degree=3, max_rounds=5000)
        assert rankings_equivalent(result, exact, 5)
        assert 0 in result.nodes  # the hub ranks (it is on every round trip)

    def test_validation(self, toy_graph):
        with pytest.raises(ValueError):
            twosbound_topk(toy_graph, 0, 3, heavy_degree=0)


class TestPromotion:
    def build_star(self):
        """Hub 0 with leaves 1..9; query at leaf 1; low threshold."""
        g = graph_from_edges(10, [(0, i) for i in range(1, 10)], directed=False)
        return g

    def test_heavy_node_enters_lazily(self):
        g = self.build_star()
        side = TBoundSide(LocalGraphAccess(g), 1, 0.25, m=1, heavy_degree=3)
        side.expand()  # absorbs in-neighbors of the query: the hub
        assert side.seen[0]
        assert side._is_heavy[0]

    def test_bottleneck_promotion(self):
        g = self.build_star()
        side = TBoundSide(LocalGraphAccess(g), 1, 0.25, m=1, heavy_degree=3)
        side.expand()
        side.refine()
        # The hub is the only remaining border node with the max upper;
        # the next expansion must promote it rather than absorb 9 leaves.
        assert 0 in side.border
        processed = side.expand()
        assert processed == [0]
        assert not side._is_heavy[0]
        # promotion alone does not absorb the hub's in-neighbors
        assert int(side.seen.sum()) == 2  # still only {query, hub}

    def test_expansion_after_promotion_if_still_bottleneck(self):
        g = self.build_star()
        side = TBoundSide(LocalGraphAccess(g), 1, 0.25, m=1, heavy_degree=3)
        for _ in range(12):
            side.expand()
            side.refine()
            if side.exhausted:
                break
        assert side.exhausted  # eventually the whole in-closure is absorbed
        assert side.seen.all()

    def test_finalize_lifts_laziness(self):
        from repro.core import trank_vector

        g = self.build_star()
        side = TBoundSide(LocalGraphAccess(g), 1, 0.25, m=1, heavy_degree=3)
        for _ in range(20):
            side.expand()
            side.refine()
            if side.exhausted:
                break
        side.finalize()
        exact = trank_vector(g, 1, 0.25)
        seen = side.seen_nodes()
        assert np.allclose(side.lower[seen], exact[seen], atol=1e-8)
        assert np.allclose(side.upper[seen], exact[seen], atol=1e-8)


class TestHeavySoundness:
    @settings(max_examples=15, deadline=None)
    @given(connected_undirected_strategy(max_nodes=8))
    def test_bounds_remain_sound_under_laziness(self, g):
        from repro.core import trank_vector

        exact = trank_vector(g, 0, 0.25)
        side = TBoundSide(LocalGraphAccess(g), 0, 0.25, m=2, heavy_degree=2)
        for _ in range(20):
            side.expand()
            side.refine()
            seen = side.seen_nodes()
            assert np.all(side.lower[seen] <= exact[seen] + 1e-9)
            assert np.all(side.upper[seen] >= exact[seen] - 1e-9)
            if (~side.seen).any():
                assert exact[~side.seen].max() <= side.unseen_upper + 1e-9
            if side.exhausted:
                break
