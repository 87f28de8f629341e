"""Tests for the ``workers=`` routing report (repro.parallel.rows)."""

import numpy as np

from repro.engine import frank_batch, trank_batch
from repro.gateway import RankGateway
from repro.parallel import PARALLEL_MIN_QUERIES
from repro.parallel.rows import RouteReport, active_route, record_route


class TestRouteReport:
    def test_record_and_read_back(self):
        report = RouteReport(routed=False, shards=0, reason="test reason")
        record_route(report)
        assert active_route() == report

    def test_column_sharded_batch_is_recorded(self, toy_graph):
        queries = list(range(PARALLEL_MIN_QUERIES))
        frank_batch(toy_graph, queries, method="power", workers=2)
        assert active_route() == RouteReport(routed=True, shards=2, reason=None)

    def test_workers_one_records_the_sequential_path(self, toy_graph):
        frank_batch(toy_graph, [0, 1], workers=1)
        route = active_route()
        assert not route.routed
        assert "workers=1" in route.reason


class TestSmallBatchRouting:
    def test_small_auto_batch_stays_sequential_with_reason(self, small_bibnet):
        g = small_bibnet.graph
        queries = [0, 5]
        expected = frank_batch(g, queries)  # method="auto", sequential
        got = frank_batch(g, queries, workers=2)
        assert np.array_equal(got, expected)
        route = active_route()
        assert not route.routed
        assert "crossover" in route.reason

    def test_small_power_batch_stays_sequential_with_reason(self, small_bibnet):
        g = small_bibnet.graph
        queries = [1, 2]
        expected = trank_batch(g, queries, method="power")
        assert np.array_equal(trank_batch(g, queries, method="power", workers=2), expected)
        route = active_route()
        assert route.shards == 0
        assert "batch of 2" in route.reason


class TestGatewayPlumbing:
    def test_gateway_workers_reach_the_cache(self, small_bibnet):
        gateway = RankGateway(small_bibnet.graph, workers=3)
        assert gateway.cache.workers == 3

    def test_gateway_default_is_sequential(self, small_bibnet):
        assert RankGateway(small_bibnet.graph).cache.workers is None
