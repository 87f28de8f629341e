"""End-to-end tests for the simulated AP/GP cluster."""

import numpy as np
import pytest

from repro.distributed import SimulatedCluster
from repro.topk import twosbound_topk


class TestClusterQueries:
    def test_results_identical_to_local(self, small_bibnet):
        g = small_bibnet.graph
        cluster = SimulatedCluster(g, n_gps=4)
        rng = np.random.default_rng(1)
        for q in rng.choice(g.n_nodes, 6, replace=False):
            q = int(q)
            local = twosbound_topk(g, q, 10, epsilon=0.01)
            remote, stats = cluster.query(q, 10, epsilon=0.01)
            assert remote.nodes == local.nodes
            assert np.array_equal(remote.lower, local.lower)
            assert np.array_equal(remote.upper, local.upper)
            assert (remote.rounds, remote.seen_f, remote.seen_t, remote.seen_r) == (
                local.rounds,
                local.seen_f,
                local.seen_t,
                local.seen_r,
            )
            assert stats.active_set_bytes > 0
            assert stats.messages > 0

    def test_gp_count_does_not_change_results(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        results = []
        for n_gps in (1, 2, 5):
            cluster = SimulatedCluster(toy_graph, n_gps=n_gps)
            res, _ = cluster.query(q, 5, epsilon=1e-9)
            results.append(res.nodes)
        assert results[0] == results[1] == results[2]

    def test_active_set_smaller_than_graph(self, small_bibnet):
        g = small_bibnet.graph
        cluster = SimulatedCluster(g, n_gps=2)
        q = int(small_bibnet.paper_nodes[3])
        _, stats = cluster.query(q, 10, epsilon=0.02)
        assert stats.active_set_bytes < g.memory_bytes

    def test_stats_attached_to_result(self, toy_graph):
        cluster = SimulatedCluster(toy_graph, n_gps=2)
        res, stats = cluster.query(0, 5, epsilon=0.01)
        assert res.stats["active_set_bytes"] == stats.active_set_bytes
        assert res.stats["messages"] == stats.messages
        assert res.stats["network_bytes"] == stats.network_bytes

    def test_validation(self, toy_graph):
        with pytest.raises(ValueError):
            SimulatedCluster(toy_graph, n_gps=0)
