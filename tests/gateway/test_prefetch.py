"""Tests for the frequency estimator and background prefetcher."""

import time

import numpy as np
import pytest

from repro.datasets import sample_zipf_queries
from repro.gateway import FrequencyEstimator, Prefetcher, RankGateway
from repro.serving import ColumnCache


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestFrequencyEstimator:
    def test_counts_accumulate(self):
        est = FrequencyEstimator(clock=FakeClock())
        for _ in range(3):
            est.record("t", "g", 7)
        est.record("t", "g", 9)
        top = est.top("t", "g", 2)
        assert top[0][0] == 7 and top[0][1] == pytest.approx(3.0)
        assert top[1][0] == 9

    def test_decay_halves_at_half_life(self):
        clock = FakeClock()
        est = FrequencyEstimator(half_life=10.0, clock=clock)
        est.record("t", "g", 1, increment=4.0)
        clock.advance(10.0)
        assert est.top("t", "g", 1)[0][1] == pytest.approx(2.0)
        clock.advance(10.0)
        assert est.top("t", "g", 1)[0][1] == pytest.approx(1.0)

    def test_decay_reorders_hot_sets(self):
        clock = FakeClock()
        est = FrequencyEstimator(half_life=5.0, clock=clock)
        for _ in range(8):
            est.record("t", "g", 1)  # old hotness
        clock.advance(30.0)  # 6 half-lives: 8 -> 0.125
        est.record("t", "g", 2)
        assert est.top("t", "g", 1)[0][0] == 2

    def test_tenants_and_groups_are_isolated(self):
        est = FrequencyEstimator(clock=FakeClock())
        est.record("a", ("g", 0.25), 1)
        est.record("b", ("g", 0.25), 2)
        est.record("a", ("g", 0.5), 3)
        assert [n for n, _ in est.top("a", ("g", 0.25), 10)] == [1]
        assert [n for n, _ in est.top("b", ("g", 0.25), 10)] == [2]
        assert set(est.groups()) == {
            ("a", ("g", 0.25)),
            ("b", ("g", 0.25)),
            ("a", ("g", 0.5)),
        }

    def test_capacity_bound_drops_coldest(self):
        clock = FakeClock()
        est = FrequencyEstimator(max_nodes_per_group=3, clock=clock)
        for _ in range(5):
            est.record("t", "g", 100)  # clearly hot
        est.record("t", "g", 1)
        est.record("t", "g", 2)
        est.record("t", "g", 3)  # over capacity: one cold entry dropped
        tracked = [n for n, _ in est.top("t", "g", 10)]
        assert len(tracked) == 3
        assert 100 in tracked

    def test_hot_entries_survive_one_off_churn(self):
        # A full group fed a long tail of one-off nodes evicts via bounded
        # CLOCK-style sampling; the hot entries must ride it out.
        clock = FakeClock()
        est = FrequencyEstimator(max_nodes_per_group=24, clock=clock)
        hot = [1000, 1001, 1002]
        for node in hot:
            for _ in range(30):
                est.record("t", "g", node)
        for one_off in range(300):  # 300 distinct tail nodes churn the group
            est.record("t", "g", one_off)
        tracked = {n for n, _ in est.top("t", "g", 100)}
        assert len(tracked) == 24
        assert set(hot) <= tracked

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyEstimator(half_life=0.0)
        with pytest.raises(ValueError, match="half_life must be finite"):
            FrequencyEstimator(half_life=float("nan"))
        with pytest.raises(ValueError):
            FrequencyEstimator(max_nodes_per_group=0)

    @pytest.mark.parametrize("half_life", [float("inf"), -1.0])
    def test_half_life_outside_the_positive_reals_is_rejected(self, half_life):
        # An infinite half-life would never decay a count; a negative one
        # would grow every count as it ages.
        with pytest.raises(ValueError, match="half_life must be"):
            FrequencyEstimator(half_life=half_life)


class TestPrefetcherPlanning:
    def test_plan_targets_hot_uncached_nodes(self, toy_graph):
        gateway = RankGateway(toy_graph)
        alpha = gateway.cache.alpha
        # Traffic recorded without caching (submit would cache): hand-feed.
        for _ in range(5):
            gateway.frequency.record("acme", ("default", alpha), 3)
        gateway.frequency.record("acme", ("default", alpha), 8)
        plan = Prefetcher(gateway).plan()
        assert plan == {("default", alpha): [3, 8]}
        gateway.close()

    def test_plan_keeps_resident_nodes_for_refresh(self, toy_graph):
        # Resident hot nodes stay in the plan on purpose: warming them is an
        # O(1) recency refresh that shields them from the round's inserts.
        gateway = RankGateway(toy_graph)
        alpha = gateway.cache.alpha
        gateway.ask(3)  # roundtriprank: caches f and t of node 3
        for _ in range(5):
            gateway.frequency.record("acme", ("default", alpha), 3)
        gateway.frequency.record("acme", ("default", alpha), 8)
        assert Prefetcher(gateway).plan() == {("default", alpha): [3, 8]}
        gateway.close()

    def test_plan_orders_globally_hottest_first(self, toy_graph):
        gateway = RankGateway(toy_graph)
        alpha = gateway.cache.alpha
        for _ in range(2):
            gateway.frequency.record("a", ("default", alpha), 1)
        for _ in range(7):
            gateway.frequency.record("b", ("default", alpha), 2)
        gateway.frequency.record("a", ("default", alpha), 5, increment=4.0)
        plan = Prefetcher(gateway).plan()
        assert plan == {("default", alpha): [2, 5, 1]}
        gateway.close()

    def test_per_tenant_budget_is_fair(self, toy_graph):
        gateway = RankGateway(toy_graph)
        alpha = gateway.cache.alpha
        for node in range(8):
            for _ in range(10):
                gateway.frequency.record("loud", ("default", alpha), node)
        gateway.frequency.record("quiet", ("default", alpha), 11)
        plan = Prefetcher(gateway, per_tenant=2).plan()
        nodes = plan[("default", alpha)]
        assert len(nodes) == 3  # 2 for loud, 1 for quiet
        assert 11 in nodes
        gateway.close()

    def test_min_score_filters_noise(self, toy_graph):
        gateway = RankGateway(toy_graph)
        alpha = gateway.cache.alpha
        gateway.frequency.record("t", ("default", alpha), 5, increment=0.01)
        assert Prefetcher(gateway, min_score=0.5).plan() == {}
        gateway.close()

    def test_validation(self, toy_graph):
        gateway = RankGateway(toy_graph)
        for kwargs in (
            dict(per_tenant=0),
            dict(batch_size=0),
            dict(interval=0.0),
            dict(idle_depth=-1),
        ):
            with pytest.raises(ValueError):
                Prefetcher(gateway, **kwargs)
        gateway.close()


class TestPrefetcherRuns:
    def test_run_once_warms_both_kinds(self, toy_graph):
        gateway = RankGateway(toy_graph)
        alpha = gateway.cache.alpha
        for _ in range(4):
            gateway.frequency.record("acme", ("default", alpha), 6)
        warmed = Prefetcher(gateway).run_once()
        assert warmed == 2  # f and t of node 6
        assert gateway.cache.contains(toy_graph, "f", 6, alpha)
        assert gateway.cache.contains(toy_graph, "t", 6, alpha)
        snap = gateway.snapshot()
        assert snap.n_prefetch_runs == 1
        assert snap.n_prefetched_columns == 2
        gateway.close()

    def test_prefetched_columns_turn_misses_into_hits(self, toy_graph):
        gateway = RankGateway(toy_graph)
        alpha = gateway.cache.alpha
        for _ in range(4):
            gateway.frequency.record("acme", ("default", alpha), 9)
        Prefetcher(gateway).run_once()
        misses_before = gateway.cache.cache_info().misses
        result = gateway.ask(9, tenant="acme")
        assert gateway.cache.cache_info().misses == misses_before  # pure hits
        assert np.allclose(result.sum(), 1.0)
        gateway.close()

    def test_idle_gating_skips_when_busy(self, toy_graph):
        gateway = RankGateway(toy_graph, max_batch=1000)
        alpha = gateway.cache.alpha
        gateway.frequency.record("t", ("default", alpha), 2, increment=5.0)
        pending = gateway.submit(0)  # queue non-empty: gateway is busy
        prefetcher = Prefetcher(gateway, idle_depth=0)
        assert prefetcher.run_once() == 0
        # force overrides gating (the admitted node-0 submit also recorded
        # frequency, so the plan may cover it too — hence >=).
        assert prefetcher.run_once(force=True) >= 2
        assert gateway.cache.contains(toy_graph, "f", 2, gateway.cache.alpha)
        gateway.flush_all()
        pending.result(timeout=5.0)
        gateway.close()

    def test_run_once_on_closed_gateway_is_noop(self, toy_graph):
        gateway = RankGateway(toy_graph)
        alpha = gateway.cache.alpha
        gateway.frequency.record("t", ("default", alpha), 1, increment=5.0)
        prefetcher = Prefetcher(gateway)
        gateway.close()
        assert prefetcher.run_once() == 0

    def test_background_thread_warms_and_stops(self, toy_graph):
        gateway = RankGateway(toy_graph)
        alpha = gateway.cache.alpha
        for _ in range(4):
            gateway.frequency.record("acme", ("default", alpha), 4)
        with Prefetcher(gateway, interval=0.01) as prefetcher:
            assert prefetcher.running
            deadline = time.monotonic() + 5.0
            while not gateway.cache.contains(toy_graph, "f", 4, alpha):
                assert time.monotonic() < deadline, "prefetch thread never warmed"
                time.sleep(0.01)
        assert not prefetcher.running
        gateway.close()


class TestColdTenantLift:
    def test_prefetch_lifts_cold_tenant_hit_rate(self, toy_graph):
        """The acceptance scenario in miniature: tenant B trickles during
        phase 1, bursts in phase 2.  Prefetch between phases must lift B's
        phase-2 hit rate vs the same replay without prefetch."""
        head = sample_zipf_queries(toy_graph.n_nodes, 40, s=1.3, seed=9)

        def replay(with_prefetch):
            # Budget: too small for both tenants' hot sets to coexist is not
            # needed here — the point is B's columns are cold until warmed.
            gateway = RankGateway(toy_graph, cache=ColumnCache())
            # Phase 1: tenant B only *trickles* (frequency signal, no cache
            # entries — record directly, as an unflushed submit would).
            for q in head[:10]:
                gateway.frequency.record(
                    "cold-tenant", ("default", gateway.cache.alpha), int(q)
                )
            if with_prefetch:
                Prefetcher(gateway, per_tenant=32).run_once()
            # Phase 2: the burst.
            before = gateway.cache.cache_info()
            for q in head:
                gateway.ask(int(q), tenant="cold-tenant")
            after = gateway.cache.cache_info()
            hits = after.hits - before.hits
            misses = after.misses - before.misses
            gateway.close()
            return hits / (hits + misses)

        cold = replay(with_prefetch=False)
        warmed = replay(with_prefetch=True)
        assert warmed > cold
