"""End-to-end tests for 2SBound (Algorithm 1) against the naive oracle."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph import graph_from_edges
from repro.serving import topk_select
from repro.topk import SCHEMES, local_topk, naive_topk, twosbound_topk
from tests.conftest import connected_undirected_strategy, random_digraph_strategy


def rankings_equivalent(result, exact, k):
    """Same nodes, or same score multiset (short results OK on zero tails)."""
    s = exact.scores
    got = [s[v] for v in result.nodes]
    want = [s[v] for v in exact.nodes]
    if len(got) < k:
        if any(w > 1e-12 for w in want[len(got):]):
            return False
        want = want[: len(got)]
    return np.allclose(sorted(got), sorted(want), atol=1e-9)


class TestExactness:
    @settings(max_examples=25, deadline=None)
    @given(connected_undirected_strategy(max_nodes=9))
    def test_matches_naive_on_connected_graphs(self, g):
        exact = naive_topk(g, 0, 3)
        result = twosbound_topk(g, 0, 3, epsilon=1e-9, max_rounds=3000)
        assert result.converged
        assert rankings_equivalent(result, exact, 3)

    @settings(max_examples=20, deadline=None)
    @given(random_digraph_strategy(max_nodes=8))
    def test_matches_naive_on_arbitrary_digraphs(self, g):
        exact = naive_topk(g, 0, 4)
        result = twosbound_topk(g, 0, 4, epsilon=1e-9, max_rounds=3000)
        assert rankings_equivalent(result, exact, 4)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_schemes_exact_on_toy(self, toy_graph, scheme):
        q = toy_graph.node_by_label("t1")
        exact = naive_topk(toy_graph, q, 5)
        result = twosbound_topk(
            toy_graph, q, 5, epsilon=1e-12, scheme=scheme, max_rounds=3000
        )
        assert result.nodes == exact.nodes
        assert result.scheme == scheme

    def test_bounds_contain_exact_scores(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        exact = naive_topk(toy_graph, q, 5)
        result = twosbound_topk(toy_graph, q, 5, epsilon=1e-12, max_rounds=3000)
        for node, lo, hi in zip(result.nodes, result.lower, result.upper):
            assert lo - 1e-12 <= exact.scores[node] <= hi + 1e-12


class TestEpsilonSemantics:
    @settings(max_examples=15, deadline=None)
    @given(connected_undirected_strategy(max_nodes=9))
    def test_epsilon_guarantee(self, g):
        """No node whose score beats the K-th by more than epsilon is missed."""
        k, epsilon = 3, 0.01
        exact = naive_topk(g, 0, g.n_nodes)
        result = twosbound_topk(g, 0, k, epsilon=epsilon, max_rounds=3000)
        if len(result.nodes) < k:
            return  # zero-tail case: nothing scoring > epsilon was missed
        returned = set(result.nodes)
        kth_score = min(exact.scores[v] for v in result.nodes)
        for v in range(g.n_nodes):
            if v not in returned:
                assert exact.scores[v] <= kth_score + epsilon + 1e-12

    def test_larger_epsilon_never_slower(self, small_bibnet):
        q = int(small_bibnet.paper_nodes[0])
        tight = twosbound_topk(small_bibnet.graph, q, 10, epsilon=0.001)
        loose = twosbound_topk(small_bibnet.graph, q, 10, epsilon=0.05)
        assert loose.rounds <= tight.rounds


class TestFilters:
    def test_candidate_mask(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        mask = toy_graph.type_mask("venue")
        result = twosbound_topk(
            toy_graph, q, 3, epsilon=1e-12, candidate_mask=mask, max_rounds=3000
        )
        exact = naive_topk(toy_graph, q, 3, candidate_mask=mask)
        assert result.nodes == exact.nodes
        labels = [toy_graph.label_of(v) for v in result.nodes]
        assert labels[0] == "v2"  # the balanced venue wins (Fig. 2 intuition)

    @pytest.mark.parametrize("entry", ["topk_select", "naive_topk", "local_topk", "twosbound"])
    @pytest.mark.parametrize("length", ["1", "n-1", "n+1"])
    def test_candidate_mask_of_wrong_length_is_rejected(self, small_bibnet, entry, length):
        g = small_bibnet.graph
        n = g.n_nodes
        size = {"1": 1, "n-1": n - 1, "n+1": n + 1}[length]
        mask = np.ones(size, dtype=bool)
        run = {
            "topk_select": lambda: topk_select(np.ones(n), 3, candidate_mask=mask),
            "naive_topk": lambda: naive_topk(g, 47, 3, candidate_mask=mask),
            "local_topk": lambda: local_topk(g, 47, 3, candidate_mask=mask),
            "twosbound": lambda: twosbound_topk(g, 47, 3, candidate_mask=mask),
        }[entry]
        with pytest.raises(ValueError, match=rf"candidate_mask.*\({n},\).*\({size},\)"):
            run()

    @pytest.mark.parametrize("entry", ["topk_select", "naive_topk", "local_topk", "twosbound"])
    @pytest.mark.parametrize("bad", ["negative", "n", "non-integer"])
    def test_exclude_of_invalid_id_is_rejected(self, small_bibnet, entry, bad):
        g = small_bibnet.graph
        n = g.n_nodes
        # -(n - 203) would wrap around to node 203 under numpy indexing.
        node = {"negative": 203 - n, "n": n, "non-integer": 2.5}[bad]
        exclude = {node}
        run = {
            "topk_select": lambda: topk_select(np.ones(n), 3, exclude=exclude),
            "naive_topk": lambda: naive_topk(g, 47, 3, exclude=exclude),
            "local_topk": lambda: local_topk(g, 47, 3, exclude=exclude),
            "twosbound": lambda: twosbound_topk(g, 47, 3, exclude=exclude),
        }[entry]
        with pytest.raises(ValueError, match=rf"exclude.*\[0, {n - 1}\].*{node}"):
            run()

    def test_exclude_query(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        result = twosbound_topk(
            toy_graph, q, 3, epsilon=1e-12, exclude={q}, max_rounds=3000
        )
        assert q not in result.nodes


class TestDegenerateCases:
    def test_isolated_query_returns_self_only(self):
        g = graph_from_edges(3, [(1, 2), (2, 1)])  # node 0 isolated
        result = twosbound_topk(g, 0, 3, epsilon=0.0, max_rounds=100)
        assert result.nodes == [0]
        assert result.converged

    def test_k_larger_than_graph(self, toy_graph):
        result = twosbound_topk(toy_graph, 0, 500, epsilon=1e-9, max_rounds=5000)
        exact = naive_topk(toy_graph, 0, 500)
        assert len(result.nodes) <= 500
        # every positive-score node is returned
        positive = {v for v in range(toy_graph.n_nodes) if exact.scores[v] > 1e-12}
        assert positive <= set(result.nodes)

    def test_max_rounds_reached_flags_not_converged(self, small_bibnet):
        q = int(small_bibnet.paper_nodes[0])
        result = twosbound_topk(small_bibnet.graph, q, 10, epsilon=0.0, max_rounds=1)
        assert not result.converged

    @pytest.mark.parametrize("max_rounds", [0, -1])
    def test_max_rounds_below_one_is_rejected(self, toy_graph, max_rounds):
        with pytest.raises(ValueError, match="max_rounds"):
            twosbound_topk(toy_graph, 0, 1, max_rounds=max_rounds)

    @pytest.mark.parametrize(
        ("kwargs", "error"),
        [
            ({"k": 0}, ValueError),
            ({"k": 2.5}, TypeError),
            ({"max_rounds": 2.5}, TypeError),
        ],
    )
    def test_bad_counts_are_rejected_before_any_round(self, toy_graph, kwargs, error):
        # k = 2.5 used to reach np.argpartition inside the first round.
        args = {"k": 3, **kwargs}
        name = next(iter(kwargs))
        with pytest.raises(error, match=name):
            twosbound_topk(toy_graph, 0, args.pop("k"), epsilon=0.0, **args)

    def test_validation(self, toy_graph):
        with pytest.raises(ValueError):
            twosbound_topk(toy_graph, 0, 0)
        with pytest.raises(ValueError):
            twosbound_topk(toy_graph, 0, 1, epsilon=-0.1)
        with pytest.raises(ValueError):
            twosbound_topk(toy_graph, 0, 1, epsilon=float("nan"))
        with pytest.raises(ValueError):
            twosbound_topk(toy_graph, 0, 1, scheme="fancy")
        with pytest.raises(ValueError):
            twosbound_topk(toy_graph, 99, 1)


class TestDiagnostics:
    def test_result_fields(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        result = twosbound_topk(toy_graph, q, 5, epsilon=0.01)
        assert result.rounds >= 1
        assert result.seen_f >= 1
        assert result.seen_t >= 1
        assert result.seen_r >= 1
        assert len(result.lower) == len(result.nodes)
        assert result.ranking() == result.nodes
