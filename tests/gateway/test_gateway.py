"""Tests for RankGateway routing, lane lifecycle, and shared-cache reuse."""

import numpy as np
import pytest

from repro.core import frank_vector, roundtriprank, roundtriprank_plus, trank_vector
from repro.core.queries import normalize_query
from repro.core.roundtrip_plus import DEFAULT_BETA
from repro.engine.batch import MEASURES
from repro.gateway import GatewayStats, LaneKey, RankGateway, Shed
from repro.gateway.stats import DEFAULT_RESERVOIR
from repro.serving import ColumnCache
from repro.serving.batcher import Lane


class TestRouting:
    @pytest.mark.parametrize(
        "measure,reference",
        [
            ("frank", lambda g, q: frank_vector(g, q)),
            ("trank", lambda g, q: trank_vector(g, q)),
            ("roundtriprank", lambda g, q: roundtriprank(g, q)),
            ("roundtriprank_plus", lambda g, q: roundtriprank_plus(g, q, beta=0.3)),
        ],
    )
    def test_measure_parity_with_direct_solvers(self, toy_graph, measure, reference):
        gateway = RankGateway(toy_graph, beta=0.3)
        result = gateway.ask(4, measure=measure)
        assert np.allclose(result, reference(toy_graph, 4), atol=1e-9)
        gateway.close()

    def test_alpha_routes_to_distinct_lanes(self, toy_graph):
        gateway = RankGateway(toy_graph)
        a = gateway.ask(0, alpha=0.25)
        b = gateway.ask(0, alpha=0.5)
        assert not np.allclose(a, b)
        assert len(gateway.lanes()) == 2
        gateway.close()

    def test_multi_graph_routing(self, toy_graph, line_graph):
        gateway = RankGateway({"toy": toy_graph, "line": line_graph})
        toy_scores = gateway.ask(0, graph="toy")
        line_scores = gateway.ask(0, graph="line")
        assert toy_scores.shape == (toy_graph.n_nodes,)
        assert line_scores.shape == (line_graph.n_nodes,)
        with pytest.raises(ValueError, match="graph name required"):
            gateway.submit(0)
        with pytest.raises(KeyError, match="unknown graph"):
            gateway.submit(0, graph="nope")
        gateway.close()

    def test_add_graph_after_construction(self, toy_graph, line_graph):
        gateway = RankGateway({"toy": toy_graph})
        gateway.add_graph("line", line_graph)
        assert gateway.ask(1, graph="line").shape == (line_graph.n_nodes,)
        with pytest.raises(ValueError, match="already registered"):
            gateway.add_graph("line", line_graph)
        gateway.close()

    def test_topk_and_multinode_queries(self, toy_graph):
        gateway = RankGateway(toy_graph)
        indices, values = gateway.ask(2, k=4)
        full = roundtriprank(toy_graph, 2)
        expected = np.argsort(-full, kind="stable")[:4]
        assert np.array_equal(indices, expected)
        assert np.allclose(values, full[expected], atol=1e-9)
        combined = gateway.ask({0: 1.0, 1: 3.0})
        assert np.allclose(
            combined, roundtriprank(toy_graph, {0: 1.0, 1: 3.0}), atol=1e-9
        )
        gateway.close()

    def test_invalid_inputs_raise_not_shed(self, toy_graph):
        gateway = RankGateway(toy_graph)
        with pytest.raises(ValueError):
            gateway.submit(toy_graph.n_nodes + 1)  # out-of-range node
        with pytest.raises(ValueError):
            gateway.submit(0, measure="pagerank")
        with pytest.raises(ValueError):
            gateway.submit(0, k=0)
        assert gateway.snapshot().n_shed == 0  # caller bugs are not load
        gateway.close()

    def test_invalid_k_never_consumes_a_rate_token(self, toy_graph):
        from repro.gateway import AdmissionConfig, Shed

        gateway = RankGateway(toy_graph, admission=AdmissionConfig(rate=1.0, burst=1))
        with pytest.raises(ValueError):
            gateway.submit(0, k=0)  # must raise *before* admission runs
        result = gateway.submit(0)  # the single token must still be there
        assert not isinstance(result, Shed)
        gateway.flush_all()
        assert result.result(timeout=5.0) is not None
        gateway.close()

    def test_construction_validation(self, toy_graph):
        with pytest.raises(ValueError, match="max_lanes"):
            RankGateway(toy_graph, max_lanes=0)
        with pytest.raises(ValueError, match="at least one graph"):
            RankGateway({})


class TestLanes:
    def test_lanes_created_lazily(self, toy_graph):
        gateway = RankGateway(toy_graph)
        assert gateway.lanes() == []
        gateway.ask(0)
        gateway.ask(1, measure="frank")
        assert set(gateway.lanes()) == {
            LaneKey("default", "roundtriprank", gateway.cache.alpha),
            LaneKey("default", "frank", gateway.cache.alpha),
        }
        gateway.close()

    def test_lane_count_is_bounded_lru_evicted(self, toy_graph):
        gateway = RankGateway(toy_graph, max_lanes=2)
        gateway.ask(0, alpha=0.1)
        gateway.ask(0, alpha=0.2)
        gateway.ask(0, alpha=0.1)  # touch 0.1: 0.2 is now LRU
        gateway.ask(0, alpha=0.3)  # evicts the 0.2 lane
        keys = gateway.lanes()
        assert len(keys) == 2
        assert LaneKey("default", "roundtriprank", 0.2) not in keys
        gateway.close()

    def test_evicted_lane_resolves_its_futures(self, toy_graph):
        gateway = RankGateway(toy_graph, max_lanes=1, max_batch=1000)
        pending = gateway.submit(0, alpha=0.1)
        assert not isinstance(pending, Shed)
        assert not pending.done()
        other = gateway.submit(0, alpha=0.2)  # evicts+closes the 0.1 lane
        assert pending.done()  # close flushed it: nothing stranded
        assert np.allclose(
            pending.result(), roundtriprank(toy_graph, 0, alpha=0.1), atol=1e-9
        )
        gateway.flush_all()
        assert other.result(timeout=5.0) is not None
        gateway.close()

    def test_lanes_share_one_cache(self, toy_graph):
        cache = ColumnCache()
        gateway = RankGateway(toy_graph, cache=cache)
        gateway.ask(5)  # roundtriprank lane solves f and t columns of node 5
        misses = cache.cache_info().misses
        gateway.ask(5, measure="frank")  # new lane, same cache: pure hit
        info = cache.cache_info()
        assert info.misses == misses
        assert info.hits >= 1
        gateway.close()

    def test_cache_reuse_across_flushes(self, toy_graph):
        gateway = RankGateway(toy_graph, max_batch=8)
        gateway.ask(0)
        misses_after_first = gateway.cache.cache_info().misses
        gateway.ask(0)  # second flush of the lane: pure cache hits
        info = gateway.cache.cache_info()
        assert info.misses == misses_after_first
        assert info.hits >= 2
        gateway.close()

    def test_ask_flushes_only_its_own_lane(self, toy_graph):
        gateway = RankGateway(toy_graph, max_batch=100)
        other = gateway.submit(3, alpha=0.6)
        assert gateway.total_pending() == 1
        result = gateway.ask(0)
        assert np.allclose(result, roundtriprank(toy_graph, 0), atol=1e-10)
        # The other lane's query waits for its own lane's trigger.
        assert not other.done()
        assert gateway.total_pending() == 1
        gateway.close()
        assert other.done()

    def test_start_skips_a_lane_evicted_while_starting(self, toy_graph, monkeypatch):
        gateway = RankGateway(toy_graph, max_lanes=2, max_batch=100, max_delay=0.005)
        for alpha in (0.2, 0.3):
            gateway.ask(0, alpha=alpha)  # the 0.2 lane is least recently used
        first = gateway._lanes[LaneKey("default", "roundtriprank", 0.2)]
        start = first.start

        def evict_then_start():
            # A submit racing start() opens a third lane, which evicts and
            # closes this one before it is started.
            gateway.submit(1, alpha=0.6)
            start()

        monkeypatch.setattr(first, "start", evict_then_start)
        gateway.start()
        assert first.closed
        assert [key.alpha for key in gateway.lanes()] == [0.3, 0.6]
        # Each live lane's deadline thread runs: a queued miss resolves with
        # no explicit flush.
        for alpha in (0.3, 0.6):
            future = gateway.submit(2, alpha=alpha)
            assert np.allclose(
                future.result(timeout=5.0), roundtriprank(toy_graph, 2, alpha=alpha), atol=1e-9
            )
        gateway.close()

    def test_started_gateway_starts_new_lanes(self, toy_graph):
        with RankGateway(toy_graph, max_delay=0.005, max_batch=1000) as gateway:
            future = gateway.submit(3)  # lane created after start()
            assert not isinstance(future, Shed)
            result = future.result(timeout=5.0)  # deadline thread flushes it
        assert np.allclose(result, roundtriprank(toy_graph, 3), atol=1e-9)

    def test_close_is_idempotent_and_terminal(self, toy_graph):
        gateway = RankGateway(toy_graph)
        gateway.ask(0)
        gateway.close()
        gateway.close()
        assert gateway.closed
        assert gateway.lanes() == []
        with pytest.raises(RuntimeError, match="closed"):
            gateway.start()


class TestStats:
    def test_latency_quantiles_recorded_per_lane(self, toy_graph):
        gateway = RankGateway(toy_graph)
        for q in range(4):
            gateway.ask(q)
        gateway.ask(0, measure="frank")
        snap = gateway.snapshot()
        rtr_lane = ("default", "roundtriprank", gateway.cache.alpha)
        frank_lane = ("default", "frank", gateway.cache.alpha)
        assert snap.lanes[rtr_lane].count == 4
        assert snap.lanes[frank_lane].count == 1
        stats = snap.lanes[rtr_lane]
        assert 0.0 <= stats.p50_ms <= stats.p90_ms <= stats.p99_ms <= stats.max_ms
        gateway.close()

    def test_lane_reservoir_keeps_only_the_latest_samples(self):
        stats = GatewayStats()
        lane = ("default", "roundtriprank", 0.25)
        for seconds in (0.001, 0.009):
            for _ in range(DEFAULT_RESERVOIR):
                stats.record_latency(lane, seconds)
        summary = stats.snapshot().lanes[lane]
        assert summary.count == DEFAULT_RESERVOIR
        assert summary.p50_ms == pytest.approx(9.0)

    def test_each_lane_keeps_its_own_reservoir(self):
        stats = GatewayStats()
        busy = ("default", "roundtriprank", 0.25)
        quiet = ("default", "frank", 0.25)
        for _ in range(DEFAULT_RESERVOIR + 10):
            stats.record_latency(busy, 0.009)
        for _ in range(10):
            stats.record_latency(quiet, 0.001)
        lanes = stats.snapshot().lanes
        assert lanes[busy].count == DEFAULT_RESERVOIR
        assert lanes[quiet].count == 10
        assert lanes[quiet].p50_ms == pytest.approx(1.0)
        assert lanes[quiet].max_ms == pytest.approx(1.0)

    def test_the_reservoir_is_not_a_parameter(self):
        with pytest.raises(TypeError, match="reservoir"):
            GatewayStats(reservoir=8)

    def test_snapshot_is_jsonable(self, toy_graph):
        import json

        gateway = RankGateway(toy_graph)
        gateway.ask(0, tenant="acme")
        payload = gateway.snapshot().to_jsonable()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["n_admitted"] == 1
        assert round_tripped["admitted_by_tenant"] == {"acme": 1}
        assert list(round_tripped["lanes"]) == [
            f"default/roundtriprank/{gateway.cache.alpha}"
        ]
        gateway.close()

    def test_snapshot_fields_are_the_documented_set(self, toy_graph):
        gateway = RankGateway(toy_graph)
        gateway.ask(0)
        payload = gateway.snapshot().to_jsonable()
        gateway.close()
        assert set(payload) == {
            "n_admitted",
            "n_shed",
            "shed_rate",
            "shed_by_reason",
            "admitted_by_tenant",
            "shed_by_tenant",
            "n_local_certified",
            "n_local_escalated",
            "lanes",
        }

    def test_lane_keys_round_trip_documented_format(self, toy_graph):
        """Flattened lane keys follow graph/measure/alpha and parse back."""
        import json

        from repro.gateway import lane_key_from_str, lane_key_to_str

        gateway = RankGateway({"corpus/2024": toy_graph})
        gateway.ask(0, alpha=0.25)
        gateway.ask(0, measure="frank", alpha=0.5)
        snapshot = gateway.snapshot()
        payload = json.loads(json.dumps(snapshot.to_jsonable()))
        assert sorted(payload["lanes"]) == [
            "corpus/2024/frank/0.5",
            "corpus/2024/roundtriprank/0.25",
        ]
        # Graph names containing "/" survive the rsplit-based parse.
        for flat in payload["lanes"]:
            lane = lane_key_from_str(flat)
            assert lane in snapshot.lanes
            assert lane_key_to_str(lane) == flat
        gateway.close()

    def test_shed_rate(self, toy_graph):
        from repro.gateway import AdmissionConfig

        gateway = RankGateway(
            toy_graph, admission=AdmissionConfig(max_queue_depth=1), max_batch=1000
        )
        results = [gateway.submit(q) for q in range(4)]
        snap = gateway.snapshot()
        assert snap.n_admitted == 1
        assert snap.n_shed == 3
        assert snap.shed_rate == pytest.approx(0.75)
        gateway.flush_all()
        for r in results:
            if not isinstance(r, Shed):
                r.result(timeout=5.0)
        gateway.close()


QUERIES = [0, {2: 1.0, 5: 3.0}, [1, 4], 7]


def _bits(result):
    """A result as raw bytes: a full vector, or a top-k (indices, scores)."""
    if isinstance(result, tuple):
        return tuple(part.tobytes() for part in result)
    return result.tobytes()


class TestResidentQueries:
    """A query whose columns are all cached resolves before submit returns."""

    def test_resident_query_resolves_at_submit(self, toy_graph):
        gateway = RankGateway(toy_graph, max_batch=1000)
        gateway.ask(3)
        future = gateway.submit(3, k=4)
        assert not isinstance(future, Shed)
        assert future.done()
        assert gateway.total_pending() == 0
        assert gateway.snapshot().n_admitted == 2
        gateway.close()

    @pytest.mark.parametrize("alpha", [None, 0.6])  # the cache's alpha, and another lane's
    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("measure", MEASURES)
    def test_resident_bits_equal_a_multi_request_flush(self, toy_graph, measure, k, alpha):
        gateway = RankGateway(toy_graph, max_batch=1000, beta=0.3)
        batched = [gateway.submit(q, measure=measure, alpha=alpha, k=k) for q in QUERIES]
        assert not any(future.done() for future in batched)
        assert gateway.flush_all() == len(QUERIES)  # one flush solves them all
        for query, want in zip(QUERIES, batched):
            got = gateway.submit(query, measure=measure, alpha=alpha, k=k)
            assert got.done(), f"query {query} was queued"
            assert _bits(got.result()) == _bits(want.result()), f"query {query}"
        gateway.close()

    def test_cache_counts_equal_a_flush_only_run(self, toy_graph):
        stream = [0, 1, 0, {0: 1.0, 1: 2.0}, 1, [5, 0], 5, 0]
        gateway = RankGateway(toy_graph, max_batch=1000)
        resident = 0
        for query in stream:
            resident += gateway.submit(query, k=3).done()
            gateway.flush_all()
        # The same stream with every query queued in a lane and flushed alone.
        cache = ColumnCache()
        lane = Lane(toy_graph, "roundtriprank", cache.alpha, DEFAULT_BETA, 1000, 0.01, cache)
        for query in stream:
            lane.enqueue(*normalize_query(toy_graph, query), 3, None)
            lane.flush()
        got, want = gateway.cache.cache_info(), cache.cache_info()
        assert (got.hits, got.misses, got.inserts) == (want.hits, want.misses, want.inserts)
        assert resident == 5
        gateway.close()

    def test_query_with_one_missing_column_still_queues(self, toy_graph):
        gateway = RankGateway(toy_graph, max_batch=1000)
        gateway.cache.get(toy_graph, "f", 1)  # node 1's T column stays unsolved
        future = gateway.submit(1)
        assert not future.done()
        assert gateway.total_pending() == 1
        # An F-Rank lane reads only F columns: node 1 is resident there.
        assert gateway.submit(1, measure="frank").done()
        gateway.flush_all()
        assert np.allclose(future.result(), roundtriprank(toy_graph, 1), atol=1e-10)
        gateway.close()

    def test_resident_hits_never_count_toward_the_depth_bound(self, toy_graph):
        from repro.gateway import AdmissionConfig

        depth = 3
        gateway = RankGateway(
            toy_graph,
            admission=AdmissionConfig(rate=1.0, burst=depth + 2, max_queue_depth=depth),
            max_batch=1000,
            clock=lambda: 0.0,  # no refill: the burst is every token there is
        )
        gateway.cache.warm(toy_graph, [0])
        misses = [gateway.submit(q) for q in range(1, depth + 1)]
        assert gateway.total_pending() == depth
        hit = gateway.submit(0)  # admitted beside the full queue
        assert not isinstance(hit, Shed) and hit.done()
        shed = gateway.submit(depth + 1)
        assert isinstance(shed, Shed) and shed.reason == "queue_full"
        limited = gateway.submit(0)  # the bucket is empty: hits are rate-limited
        assert isinstance(limited, Shed) and limited.reason == "rate_limit"
        snap = gateway.snapshot()
        assert snap.n_admitted == depth + 1
        assert snap.shed_by_reason == {"queue_full": 1, "rate_limit": 1}
        gateway.flush_all()
        for future in misses:
            assert future.result(timeout=5.0) is not None
        gateway.close()

    def test_hits_and_misses_under_thread_churn(self, toy_graph):
        """More submitters than cores, half the nodes resident: the depth
        bound holds, every admitted future resolves to the right scores, and
        no admission or latency record is lost."""
        import sys
        import threading

        from repro.gateway import AdmissionConfig

        bound = 3
        gateway = RankGateway(
            toy_graph,
            admission=AdmissionConfig(max_queue_depth=bound),
            max_batch=4,
            max_delay=0.002,
        ).start()
        gateway.cache.warm(toy_graph, range(toy_graph.n_nodes // 2))
        want = {q: roundtriprank(toy_graph, q) for q in range(toy_graph.n_nodes)}
        outcomes, depths, lock = [], [], threading.Lock()

        def submitter(seed: int) -> None:
            for i in range(40):
                query = (seed * 7 + i) % toy_graph.n_nodes
                result = gateway.submit(query)
                depth = gateway.total_pending()
                with lock:
                    outcomes.append((query, result))
                    depths.append(depth)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submitter, args=(s,), daemon=True) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        gateway.close()
        admitted = [(q, r) for q, r in outcomes if not isinstance(r, Shed)]
        assert len(outcomes) == 240 and max(depths) <= bound
        for query, future in admitted:
            assert np.allclose(future.result(timeout=10.0), want[query], atol=1e-10)
        snap = gateway.snapshot()
        assert snap.n_admitted == len(admitted)
        assert snap.n_admitted + snap.n_shed == 240
        lane = ("default", "roundtriprank", gateway.cache.alpha)
        assert snap.lanes[lane].count == len(admitted)


class TestInvalidKAndTriggers:
    @pytest.mark.parametrize("k", [2.5, 3.0])
    def test_non_integer_k_raises_and_spares_its_flush(self, toy_graph, k):
        from repro.gateway import AdmissionConfig

        gateway = RankGateway(
            toy_graph, admission=AdmissionConfig(rate=1.0, burst=2), max_batch=1000
        )
        before = gateway.submit(1, k=3)
        with pytest.raises(TypeError, match="k must be an integer"):
            gateway.submit(0, k=k)
        after = gateway.submit(2, k=3)  # the bad k consumed no rate token
        assert not isinstance(after, Shed)
        assert gateway.flush_all() == 2
        for query, future in ((1, before), (2, after)):
            indices, _scores = future.result(timeout=5.0)
            full = roundtriprank(toy_graph, query)
            assert np.array_equal(indices, np.argsort(-full, kind="stable")[:3])
        gateway.close()

    def test_zero_max_batch_is_rejected_at_construction(self, toy_graph):
        with pytest.raises(ValueError, match="max_batch must be > 0"):
            RankGateway(toy_graph, max_batch=0)

    def test_zero_max_delay_is_accepted_at_construction(self, toy_graph):
        # A linger of 0 flushes a miss as soon as the lane's thread is free.
        gateway = RankGateway(toy_graph, max_delay=0)
        assert gateway.max_delay == 0.0
        gateway.close()

    def test_negative_max_delay_is_rejected_at_construction(self, toy_graph):
        with pytest.raises(ValueError, match="max_delay must be >= 0"):
            RankGateway(toy_graph, max_delay=-0.001)

    def test_infinite_max_delay_is_rejected_before_it_kills_a_deadline_thread(self, toy_graph):
        with pytest.raises(ValueError, match="max_delay must be finite"):
            RankGateway(toy_graph, max_delay=float("inf"))

    @pytest.mark.parametrize("max_batch", [2.5, 4.0])
    def test_non_integer_max_batch_is_rejected(self, toy_graph, max_batch):
        with pytest.raises(TypeError, match="max_batch must be an integer"):
            RankGateway(toy_graph, max_batch=max_batch)

    def test_nan_max_delay_is_rejected_before_a_lane_spins(self, toy_graph):
        with pytest.raises(ValueError, match="max_delay must be finite"):
            gateway = RankGateway(toy_graph, max_delay=float("nan")).start()
            # Reached only without the check: the lane's deadline thread
            # would spin and never flush, so the wait is bounded.
            try:
                gateway.submit(0).result(timeout=1.0)
            finally:
                gateway.close()


class TestSolverSettingValidation:
    """Bad alpha, beta or lane bound raise where they are set."""

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.1, float("inf")])
    def test_out_of_range_alpha_raises_at_submit(self, toy_graph, alpha):
        # The solvers' interval is open: both ends are as invalid as 1.5.
        gateway = RankGateway(toy_graph)
        with pytest.raises(ValueError, match="alpha must be in"):
            gateway.submit(0, alpha=alpha, k=3)
        assert gateway.lanes() == []
        assert gateway.snapshot().n_admitted == 0
        gateway.close()

    def test_non_numeric_alpha_raises_at_submit(self, toy_graph):
        gateway = RankGateway(toy_graph)
        with pytest.raises(TypeError, match="alpha must be a real number"):
            gateway.submit(0, alpha="0.5")
        assert gateway.lanes() == []
        gateway.close()

    def test_nan_alpha_opens_no_lane_and_evicts_no_healthy_one(self, toy_graph):
        gateway = RankGateway(toy_graph, max_lanes=2)
        healthy = gateway.ask(0, alpha=0.2)
        for _ in range(3):
            with pytest.raises(ValueError, match="alpha must be in"):
                gateway.submit(0, alpha=float("nan"))
        assert gateway.lanes() == [LaneKey("default", "roundtriprank", 0.2)]
        assert np.array_equal(gateway.ask(0, alpha=0.2), healthy)
        gateway.close()

    @pytest.mark.parametrize("beta", [float("nan"), -1.0, 2.0])
    def test_invalid_beta_is_rejected_at_construction(self, toy_graph, beta):
        with pytest.raises(ValueError, match="beta must be in"):
            RankGateway(toy_graph, beta=beta)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_closed_interval_ends_of_beta_are_served(self, toy_graph, beta):
        gateway = RankGateway(toy_graph, beta=beta)
        try:
            result = gateway.ask(4, measure="roundtriprank_plus")
        finally:
            gateway.close()
        assert np.allclose(result, roundtriprank_plus(toy_graph, 4, beta=beta), atol=1e-9)

    @pytest.mark.parametrize("name, value", [("tol", 1e-8), ("max_iter", 50), ("method", "power")])
    def test_solver_settings_are_not_gateway_parameters(self, toy_graph, name, value):
        # They belong to the cache: the gateway refuses them, never drops them.
        with pytest.raises(TypeError, match=name):
            RankGateway(toy_graph, **{name: value})

    def test_non_integer_max_lanes_is_rejected(self, toy_graph):
        with pytest.raises(TypeError, match="max_lanes must be an integer"):
            RankGateway(toy_graph, max_lanes=2.5)

    @pytest.mark.parametrize("max_lanes", [0, -1])
    def test_non_positive_max_lanes_is_rejected(self, toy_graph, max_lanes):
        with pytest.raises(ValueError, match="max_lanes must be > 0"):
            RankGateway(toy_graph, max_lanes=max_lanes)
