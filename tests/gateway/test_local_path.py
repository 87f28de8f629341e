"""Tests for the gateway's certified local-push cache-miss fast path.

Covers the wiring contract of ``RankGateway(local_topk=True)``: parity with
the batcher path, cache non-poisoning on certified results, cache warming
on escalation, eligibility gating (k, cache dtype), shedding, and the
observability counters.
"""

import numpy as np
import pytest

from repro.gateway import AdmissionConfig, RankGateway, Shed
from repro.serving import ColumnCache
from repro.topk import local_topk

ALPHA = 0.25
K = 10


@pytest.fixture(scope="module")
def outcome_nodes(small_bibnet):
    """(certified_node, escalated_node) under the gateway's default solve.

    Which queries certify is deterministic for a fixed graph (the sweep
    budget is counted in sweeps), so scanning once per module is stable.
    Every paper query certifies, twin ties included; the escalation comes
    from a query of another type, whose binding tie is not between twins.
    """
    graph = small_bibnet.graph
    certified = escalated = None
    for node in range(graph.n_nodes):
        result = local_topk(graph, node, K, ALPHA)
        if certified is None and result.certified and node in small_bibnet.paper_nodes:
            certified = node
        if escalated is None and result.escalated:
            escalated = node
        if certified is not None and escalated is not None:
            return certified, escalated
    pytest.fail(f"graph lacks both outcomes (certified={certified}, escalated={escalated})")


def _local_gateway(graph, **kwargs):
    return RankGateway(graph, cache=ColumnCache(alpha=ALPHA), local_topk=True, **kwargs)


class TestFastPathParity:
    def test_topk_matches_batcher_path(self, small_bibnet):
        graph = small_bibnet.graph
        local_gw = _local_gateway(graph)
        batch_gw = RankGateway(graph, cache=ColumnCache(alpha=ALPHA))
        for node in small_bibnet.paper_nodes[:6].tolist():
            future = local_gw.submit(int(node), k=K)
            assert not isinstance(future, Shed)
            assert future.done(), "fast-path futures resolve inline"
            local_idx, _ = future.result()
            batch_idx, _ = batch_gw.ask(int(node), k=K)
            assert np.array_equal(local_idx, batch_idx)
        snap = local_gw.snapshot()
        assert snap.n_local_certified + snap.n_local_escalated == 6
        local_gw.close()
        batch_gw.close()

    def test_multi_node_query(self, small_bibnet):
        graph = small_bibnet.graph
        a, b = (int(v) for v in small_bibnet.paper_nodes[:2])
        query = {a: 1.0, b: 2.0}
        local_gw = _local_gateway(graph)
        batch_gw = RankGateway(graph, cache=ColumnCache(alpha=ALPHA))
        local_idx, _ = local_gw.submit(query, k=5).result()
        batch_idx, _ = batch_gw.ask(query, k=5)
        assert np.array_equal(local_idx, batch_idx)
        local_gw.close()
        batch_gw.close()


class TestCacheInteraction:
    def test_certified_result_never_writes_cache(self, small_bibnet, outcome_nodes):
        certified_node, _ = outcome_nodes
        gateway = _local_gateway(small_bibnet.graph)
        gateway.submit(certified_node, k=K).result()
        snap = gateway.snapshot()
        assert snap.n_local_certified == 1 and snap.n_local_escalated == 0
        for kind in ("f", "t"):
            assert not gateway.cache.contains(
                small_bibnet.graph, kind, certified_node, ALPHA
            ), "a certified (partial-push) result must not populate the cache"
        gateway.close()

    def test_escalation_warms_cache_with_full_columns(self, small_bibnet, outcome_nodes):
        _, escalated_node = outcome_nodes
        graph = small_bibnet.graph
        gateway = _local_gateway(graph)
        local_idx, local_val = gateway.submit(escalated_node, k=K).result()
        snap = gateway.snapshot()
        assert snap.n_local_escalated == 1
        for kind in ("f", "t"):
            assert gateway.cache.contains(graph, kind, escalated_node, ALPHA)
        # The warmed columns are the batcher's own: replaying the query
        # through the batcher path on the same cache is a pure hit and
        # bit-identical.
        batch_gw = RankGateway(graph, cache=gateway.cache)
        batch_idx, batch_val = batch_gw.ask(escalated_node, k=K)
        assert np.array_equal(local_idx, batch_idx)
        assert np.array_equal(local_val, batch_val)
        gateway.close()
        batch_gw.close()

    def test_cached_columns_join_as_exact_states(self, small_bibnet, outcome_nodes):
        certified_node, _ = outcome_nodes
        graph = small_bibnet.graph
        gateway = _local_gateway(graph)
        gateway.cache.get_many(graph, "f", [certified_node], ALPHA)
        gateway.cache.get_many(graph, "t", [certified_node], ALPHA)
        idx, _ = gateway.submit(certified_node, k=K).result()
        assert gateway.snapshot().n_local_certified == 1
        batch_gw = RankGateway(graph, cache=ColumnCache(alpha=ALPHA))
        batch_idx, _ = batch_gw.ask(certified_node, k=K)
        assert np.array_equal(idx, batch_idx)
        gateway.close()
        batch_gw.close()


class TestEligibilityGating:
    def test_full_vector_requests_use_the_batcher(self, toy_graph):
        gateway = _local_gateway(toy_graph)
        scores = gateway.ask(0)  # no k: full vector
        assert scores.shape == (toy_graph.n_nodes,)
        snap = gateway.snapshot()
        assert snap.n_local_certified + snap.n_local_escalated == 0
        gateway.close()

    def test_lossy_cache_dtype_uses_the_batcher(self, toy_graph):
        gateway = RankGateway(
            toy_graph,
            cache=ColumnCache(alpha=ALPHA, dtype=np.float32),
            local_topk=True,
        )
        idx, _ = gateway.ask(0, k=3)
        assert idx.shape == (3,)
        snap = gateway.snapshot()
        assert snap.n_local_certified + snap.n_local_escalated == 0
        gateway.close()

    def test_flag_off_by_default(self, toy_graph):
        gateway = RankGateway(toy_graph, cache=ColumnCache(alpha=ALPHA))
        future = gateway.submit(0, k=3)
        assert not future.done()  # queued, not inline
        gateway.flush_all()
        future.result()
        gateway.close()


class TestSheddingAndStats:
    def test_closed_gateway_sheds(self, toy_graph):
        gateway = _local_gateway(toy_graph)
        gateway.close()
        result = gateway.submit(0, k=3)
        assert isinstance(result, Shed) and result.reason == "closed"

    def test_rate_limit_sheds_before_solving(self, toy_graph):
        gateway = _local_gateway(
            toy_graph, admission=AdmissionConfig(rate=1e-6, burst=1)
        )
        first = gateway.submit(0, k=3)
        assert not isinstance(first, Shed)
        second = gateway.submit(1, k=3)
        assert isinstance(second, Shed) and second.reason == "rate_limit"
        snap = gateway.snapshot()
        assert snap.n_admitted == 1 and snap.n_shed == 1
        assert snap.n_local_certified + snap.n_local_escalated == 1
        gateway.close()

    def test_counters_and_latency_in_snapshot(self, small_bibnet):
        graph = small_bibnet.graph
        gateway = _local_gateway(graph)
        for node in small_bibnet.paper_nodes[:3].tolist():
            gateway.submit(int(node), k=K).result()
        snap = gateway.snapshot()
        assert snap.n_local_certified + snap.n_local_escalated == 3
        lane = snap.lanes[("default", "roundtriprank", ALPHA)]
        assert lane.count == 3
        payload = snap.to_jsonable()
        assert payload["n_local_certified"] == snap.n_local_certified
        assert payload["n_local_escalated"] == snap.n_local_escalated
        gateway.close()

    def test_invalid_inputs_still_raise(self, toy_graph):
        gateway = _local_gateway(toy_graph)
        with pytest.raises(ValueError):
            gateway.submit(toy_graph.n_nodes + 1, k=3)
        with pytest.raises(ValueError):
            gateway.submit(0, k=0)
        assert gateway.snapshot().n_shed == 0
        gateway.close()
