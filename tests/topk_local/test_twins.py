"""Twin ties in certified local top-k (repro.topk.local).

Two nodes are twins when their out-rows and their in-rows of ``P`` are
identical.  Swapping them maps ``P`` onto itself, so for a query that
contains neither they score exactly alike under every local measure, and
every row-wise solve computes the same bits for both: the exact ranking
orders them by id, and ``local_topk`` certifies such a tie instead of
escalating it.  Ties between nodes that are not twins still escalate.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.engine.batch import MEASURES
from repro.graph import graph_from_edges
from repro.serving.topk import topk_select
from repro.topk import local_topk, naive_topk
from repro.topk import local as local_module
from repro.topk.local import _certify, _query_twins, twin_classes
from tests.engine.test_dense_oracle import batch_topk, dense_twins, oracle_cases
from tests.topk_local.test_local_topk import oracle_scores

ALPHA = 0.25
BETA = 0.5


def hub_graph(leaf_edges=(), leaf_weights=(2.0, 2.0, 2.0, 2.0), dangling_leaves=False):
    """Hub 0 wired both ways to leaves 1..4, plus a tail 0 -> 5 <-> 6 -> 0.

    Leaf ``i`` hangs on the hub with weight ``leaf_weights[i - 1]``;
    ``dangling_leaves`` drops the leaves' arcs back to the hub, and
    ``leaf_edges`` adds arcs of its own.  The tail scores unlike any leaf.
    """
    edges = [(0, 5, 1.0), (5, 6, 1.0), (6, 0, 1.0), (6, 5, 1.0)]
    for leaf, weight in enumerate(leaf_weights, start=1):
        edges.append((0, leaf, weight))
        if not dangling_leaves:
            edges.append((leaf, 0, weight))
    return graph_from_edges(7, edges + list(leaf_edges))


def exact_topk(graph, query, k, measure):
    """The exact top-k from the single-query power solves, ties by id."""
    return topk_select(oracle_scores(graph, query, measure, beta=BETA), k)[0].tolist()


class TestTwinClasses:
    def test_identical_leaves_are_twins(self):
        assert twin_classes(hub_graph()).tolist() == [-1, 1, 1, 1, 1, -1, -1]

    def test_differing_weights_are_not_twins(self):
        g = hub_graph(leaf_weights=(2.0, 3.0, 2.0, 2.0))
        assert twin_classes(g).tolist() == [-1, 1, -1, 1, 1, -1, -1]

    def test_an_edge_between_the_pair_parts_it(self):
        # 1 -> 2 adds to 1's out-row and to 2's in-row; 3 and 4 stay twins.
        g = hub_graph(leaf_edges=[(1, 2, 2.0)])
        assert twin_classes(g).tolist() == [-1, -1, -1, 3, 3, -1, -1]

    def test_self_loops_part_leaves(self):
        # Each loop sits on the diagonal, at a column of its own.
        g = hub_graph(leaf_edges=[(1, 1, 1.0), (2, 2, 1.0)])
        assert twin_classes(g).tolist() == [-1, -1, -1, 3, 3, -1, -1]

    def test_dangling_leaves_are_not_twins(self):
        # The hub feeds them alike, but P gives each dangling leaf a
        # self-loop of its own, in its own row and column.
        g = hub_graph(dangling_leaves=True)
        assert twin_classes(g).tolist() == [-1] * 7

    def test_cached_shared_and_readonly(self):
        g = hub_graph()
        a = twin_classes(g)
        assert twin_classes(g) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0

    def test_colliding_hashes_are_compared_exactly(self, monkeypatch):
        # Hash rows by length alone: all four leaves collide, and only the
        # exact compare tells leaf 2 (weight 3) from its neighbours.
        monkeypatch.setattr(
            local_module, "_row_hashes", lambda indptr, indices, data: np.diff(indptr)
        )
        g = hub_graph(leaf_weights=(2.0, 3.0, 2.0, 2.0))
        assert twin_classes(g).tolist() == [-1, 1, -1, 1, 1, -1, -1]

    @settings(max_examples=60, deadline=None)
    @given(case=oracle_cases())
    def test_matches_the_dense_rows_and_columns(self, case):
        graph, _, _ = case
        assert twin_classes(graph).tolist() == dense_twins(graph).tolist()

    def test_bibnet_2200_author_twins(self, bibnet_2200):
        labels = twin_classes(bibnet_2200.graph)
        assert labels[384] == labels[794] == 384


class TestQueryTwins:
    def test_a_query_node_leaves_its_class(self):
        g = hub_graph()
        assert _query_twins(g, np.array([2])).tolist() == [-1, 1, -1, 1, 1, -1, -1]
        # The cached map itself is untouched.
        assert twin_classes(g).tolist() == [-1, 1, 1, 1, 1, -1, -1]

    def test_every_node_of_a_multi_node_query_leaves_it(self):
        g = hub_graph()
        assert _query_twins(g, np.array([1, 3])).tolist() == [-1, -1, 1, -1, 1, -1, -1]

    def test_queries_without_twins_share_the_cached_map(self):
        g = hub_graph()
        assert _query_twins(g, np.array([0, 5])) is twin_classes(g)


class TestCertifyRule:
    """``_certify`` on hand-made bounds: nodes 1 and 3 tie, node 0 leads."""

    lower = np.array([0.9, 0.5, 0.1, 0.5, 0.0])
    upper = lower + 0.01
    point = lower + 0.005
    twins = np.array([-1, 1, -1, 1, -1])
    apart = np.full(5, -1)

    def certify(self, order, twins, upper=None):
        order = np.array(order)
        upper = self.upper if upper is None else upper
        return _certify(upper, self.point, order, self.lower[order], None, None, twins)

    def test_an_ascending_twin_pair_needs_no_margin(self):
        assert self.certify([0, 1, 3], self.twins) == (True, 0.0)
        assert self.certify([0, 1, 3], self.apart) == (False, 0.0)

    def test_a_descending_twin_pair_is_no_certificate(self):
        assert self.certify([0, 3, 1], self.twins)[0] is False

    def test_the_last_nodes_higher_twin_is_no_rival(self):
        assert self.certify([0, 1], self.twins) == (True, 0.0)
        assert self.certify([0, 1], self.apart) == (False, 0.0)

    def test_the_last_nodes_lower_twin_still_is(self):
        assert self.certify([0, 3], self.twins) == (False, 0.0)

    def test_the_gap_signal_skips_the_dropped_twin(self):
        # Node 2 now overlaps node 1: the gap the next round aims at is to
        # node 2, not the zero gap to node 1's twin.
        upper = self.upper.copy()
        upper[2] = 0.52
        certified, needed = self.certify([0, 1], self.twins, upper)
        assert not certified
        assert needed == pytest.approx(self.point[1] - self.point[2])


class TestTwinTiesCertify:
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_hub_query_certifies_its_tied_leaves(self, measure, k):
        g = hub_graph()
        result = local_topk(g, 0, k, ALPHA, measure=measure, beta=BETA, normalize=False)
        assert result.certified
        assert result.indices.tolist() == exact_topk(g, 0, k, measure)

    @pytest.mark.parametrize("query", [1, {1: 1.0, 3: 2.0}, {2: 1.0, 5: 1.0}])
    def test_query_leaves_keep_their_siblings_tied(self, query):
        g = hub_graph()
        for k in (2, 3, 4):
            result = local_topk(g, query, k, ALPHA, normalize=False)
            assert result.certified, (query, k)
            assert result.indices.tolist() == exact_topk(g, query, k, "roundtriprank")
            assert result.indices.tolist() == naive_topk(g, query, k, ALPHA).nodes

    @pytest.mark.parametrize(
        "exclude, keep",
        [({1}, None), ({2}, None), ({0}, None), (None, [0, 2, 3, 4, 5, 6]), ({3}, [0, 1, 3, 4])],
    )
    def test_exclude_and_candidate_mask(self, exclude, keep):
        g = hub_graph()
        mask = None
        if keep is not None:
            mask = np.zeros(g.n_nodes, dtype=bool)
            mask[keep] = True
        for k in (1, 2, 3):
            result = local_topk(
                g, 0, k, ALPHA, normalize=False, exclude=exclude, candidate_mask=mask
            )
            expected = naive_topk(g, 0, k, ALPHA, candidate_mask=mask, exclude=exclude).nodes
            assert result.certified, (exclude, keep, k)
            assert result.indices.tolist() == expected

    @pytest.mark.parametrize(
        "graph",
        [
            hub_graph(leaf_edges=[(leaf, leaf, 1.0) for leaf in (1, 2, 3, 4)]),
            hub_graph(dangling_leaves=True),
        ],
        ids=["self-loops", "dangling"],
    )
    def test_ties_between_non_twins_still_escalate(self, graph):
        # The leaves tie exactly, but their rows differ on the diagonal.
        assert np.all(twin_classes(graph) == -1)
        result = local_topk(graph, 0, 3, ALPHA, normalize=False)
        assert result.escalated
        idx, val = batch_topk(graph, 0, 3, ALPHA, "roundtriprank")
        assert np.array_equal(result.indices, idx)
        assert np.array_equal(result.scores, val)


class TestBibNetTwins:
    """The two kinds of twin tie on BibNet-2200's ledger pool."""

    @pytest.mark.parametrize(
        "query, pair",
        [(2675, None), (3110, (384, 794))],
        ids=["term-twins", "author-twins"],
    )
    def test_twin_tie_certifies_with_the_exact_answer(self, bibnet_2200, query, pair):
        graph = bibnet_2200.graph
        result = local_topk(graph, query, 10, ALPHA)
        assert result.certified
        assert result.indices.tolist() == naive_topk(graph, query, 10, ALPHA).nodes
        labels = twin_classes(graph)
        claimed = result.indices
        tied = labels[claimed[:-1]] == labels[claimed[1:]]
        assert np.any(tied & (labels[claimed[:-1]] >= 0))
        if pair is not None:
            assert set(pair) <= set(claimed.tolist())
