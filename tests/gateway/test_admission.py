"""Tests for admission control: token buckets, depth shedding, Shed typing."""

import threading

import pytest

from repro.gateway import (
    AdmissionConfig,
    AdmissionController,
    RankGateway,
    Shed,
    TokenBucket,
)
from repro.serving import ColumnCache


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestTokenBucket:
    def test_starts_full_then_empties(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [None, None, None]
        retry = bucket.try_acquire()
        assert retry is not None and retry > 0

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        bucket.try_acquire()
        bucket.try_acquire()
        assert bucket.try_acquire() is not None
        clock.advance(0.5)  # 2 tokens/s * 0.5s = 1 token
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is not None

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.advance(1000.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_retry_after_is_honest(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1, clock=clock)
        bucket.try_acquire()
        retry = bucket.try_acquire()
        clock.advance(retry)
        assert bucket.try_acquire() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)
        # A NaN rate passes `rate <= 0` and would turn every refill into NaN.
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=float("nan"), burst=1)
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=float("inf"), burst=1)
        # An infinite burst overflowed int() at the first refill.
        with pytest.raises(TypeError, match="burst"):
            TokenBucket(rate=1.0, burst=float("inf"))
        with pytest.raises(TypeError, match="burst"):
            TokenBucket(rate=1.0, burst=2.5)


class TestAdmissionConfig:
    @pytest.mark.parametrize(
        "kwargs, error",
        [
            (dict(rate=0.0), ValueError),
            (dict(rate=-1.0), ValueError),
            (dict(burst=0), ValueError),
            (dict(max_queue_depth=0), ValueError),
            # NaN fails every comparison: a NaN rate admitted every query
            # and a NaN depth bound admitted any depth.
            (dict(rate=float("nan")), ValueError),
            (dict(rate=float("inf")), ValueError),
            (dict(max_queue_depth=float("nan")), TypeError),
            # An infinite burst passed here, then overflowed at the first
            # rate-limited submit.
            (dict(rate=1.0, burst=float("inf")), TypeError),
            (dict(max_queue_depth=2.5), TypeError),
            (dict(burst=2.5), TypeError),
        ],
    )
    def test_rejects_bad_config(self, kwargs, error):
        with pytest.raises(error):
            AdmissionConfig(**kwargs)

    def test_none_disables(self):
        config = AdmissionConfig(rate=None, max_queue_depth=None)
        controller = AdmissionController(config)
        for _ in range(1000):
            assert controller.admit("t", ("lane",), 10**9) is None


class TestAdmissionController:
    def test_rate_limit_sheds_with_typed_result(self):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionConfig(rate=1.0, burst=2), clock=clock
        )
        assert controller.admit("acme", ("lane",), 0) is None
        assert controller.admit("acme", ("lane",), 0) is None
        shed = controller.admit("acme", ("lane",), 0)
        assert isinstance(shed, Shed)
        assert shed.reason == "rate_limit"
        assert shed.tenant == "acme"
        assert shed.lane == ("lane",)
        assert shed.retry_after is not None and shed.retry_after > 0
        assert not shed  # Shed is falsy

    def test_buckets_are_per_tenant(self):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionConfig(rate=1.0, burst=1), clock=clock
        )
        assert controller.admit("a", ("lane",), 0) is None
        assert controller.admit("a", ("lane",), 0) is not None  # a exhausted
        assert controller.admit("b", ("lane",), 0) is None  # b unaffected

    def test_queue_depth_sheds(self):
        controller = AdmissionController(AdmissionConfig(max_queue_depth=4))
        assert controller.admit("t", ("lane",), 3) is None
        shed = controller.admit("t", ("lane",), 4)
        assert shed is not None and shed.reason == "queue_full"
        assert shed.retry_after is None


class TestGatewayAdmission:
    def test_rate_limited_tenant_sheds_others_flow(self, toy_graph):
        clock = FakeClock()
        gateway = RankGateway(
            toy_graph,
            admission=AdmissionConfig(rate=1.0, burst=2),
            clock=clock,
        )
        results = [gateway.submit(0, tenant="noisy") for _ in range(5)]
        sheds = [r for r in results if isinstance(r, Shed)]
        futures = [r for r in results if not isinstance(r, Shed)]
        assert len(futures) == 2 and len(sheds) == 3
        assert all(s.reason == "rate_limit" for s in sheds)
        assert not isinstance(gateway.submit(0, tenant="quiet"), Shed)
        gateway.flush_all()
        for future in futures:
            assert future.result(timeout=5.0) is not None
        snap = gateway.snapshot()
        assert snap.n_admitted == 3
        assert snap.shed_by_reason == {"rate_limit": 3}
        assert snap.shed_by_tenant == {"noisy": 3}
        gateway.close()

    def test_queue_depth_is_bounded_and_sheds(self, toy_graph):
        gateway = RankGateway(
            toy_graph,
            admission=AdmissionConfig(max_queue_depth=3),
            max_batch=1000,  # size trigger never fires: depth is all ours
        )
        results = [gateway.submit(q % toy_graph.n_nodes) for q in range(10)]
        futures = [r for r in results if not isinstance(r, Shed)]
        sheds = [r for r in results if isinstance(r, Shed)]
        assert len(futures) == 3
        assert len(sheds) == 7
        assert all(s.reason == "queue_full" for s in sheds)
        gateway.flush_all()
        for future in futures:
            assert future.result(timeout=5.0) is not None
        gateway.close()

    def test_tenant_log_replay_counts(self, qlog_60, tenant_log):
        """The 500-query tenant log, one clock tick per query: exact outcomes.

        The replay clock decides every token refill and latency, so which
        queries are shed, and which admitted ones resolve at submit (their
        columns all cached), repeats exactly.  A ``queue_full`` shed drains
        the lanes before the replay goes on.
        """
        clock = FakeClock()
        gateway = RankGateway(
            qlog_60.graph,
            cache=ColumnCache(alpha=0.25),
            admission=AdmissionConfig(rate=250.0, burst=25, max_queue_depth=8),
            max_batch=1000,  # size trigger never fires: admission bounds the queue
            clock=clock,
        )
        futures, depths, at_submit = [], [], 0
        for tid, node in zip(tenant_log.tenant_ids.tolist(), tenant_log.nodes.tolist()):
            clock.advance(0.001)
            result = gateway.submit(node, tenant=tenant_log.tenants[tid], k=10)
            depths.append(gateway.total_pending())
            if isinstance(result, Shed):
                if result.reason == "queue_full":
                    gateway.flush_all()
            else:
                futures.append(result)
                at_submit += result.done()
        gateway.flush_all()
        snap = gateway.snapshot()
        gateway.close()
        assert (snap.n_admitted, snap.n_shed) == (331, 169)
        assert snap.shed_by_reason == {"rate_limit": 157, "queue_full": 12}
        assert at_submit == 231
        assert max(depths) == 8
        assert len(futures) == 331 and all(future.done() for future in futures)
        lane = snap.lanes[("default", "roundtriprank", 0.25)]
        assert lane.p99_ms == pytest.approx(59.7, abs=1e-6)

    def test_depth_bound_holds_under_concurrent_submitters(self, toy_graph):
        bound = 4
        gateway = RankGateway(
            toy_graph,
            admission=AdmissionConfig(max_queue_depth=bound),
            max_batch=1000,
        )
        max_seen = []
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(6)

        def submitter(seed):
            barrier.wait()
            for q in range(10):
                result = gateway.submit((seed + q) % toy_graph.n_nodes)
                depth = gateway.total_pending()
                with lock:
                    outcomes.append(result)
                    max_seen.append(depth)

        threads = [threading.Thread(target=submitter, args=(s,), daemon=True) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert max(max_seen) <= bound
        futures = [r for r in outcomes if not isinstance(r, Shed)]
        assert futures  # something was admitted
        gateway.flush_all()
        for future in futures:
            assert future.result(timeout=10.0) is not None
        gateway.close()

    def test_every_accepted_future_resolves_under_churn(self, toy_graph):
        """The accepted-implies-resolved invariant under rate limits, depth
        sheds, background deadline flushes and a terminal close."""
        clock = FakeClock()
        gateway = RankGateway(
            toy_graph,
            admission=AdmissionConfig(rate=50.0, burst=5, max_queue_depth=8),
            max_batch=4,
            max_delay=0.005,
            clock=clock,
        ).start()
        futures = []
        n_shed = 0
        for i in range(200):
            # 50 tok/s * 0.002 s * 3 tenants = 0.3 tokens per tenant arrival:
            # buckets drain, so rate sheds must appear among the admits.
            clock.advance(0.002)
            result = gateway.submit(
                i % toy_graph.n_nodes,
                tenant=f"t{i % 3}",
                measure="frank" if i % 2 else "roundtriprank",
            )
            if isinstance(result, Shed):
                n_shed += 1
            else:
                futures.append(result)
        gateway.close()  # must flush every outstanding future
        assert futures and n_shed > 0
        assert len(futures) + n_shed == 200
        for future in futures:
            assert future.result(timeout=10.0) is not None
        snap = gateway.snapshot()
        assert snap.n_admitted == len(futures)
        assert snap.n_shed == n_shed

    def test_closed_gateway_sheds_typed(self, toy_graph):
        gateway = RankGateway(toy_graph)
        gateway.close()
        result = gateway.submit(0)
        assert isinstance(result, Shed)
        assert result.reason == "closed"
        with pytest.raises(RuntimeError, match="shed"):
            gateway.ask(0)
