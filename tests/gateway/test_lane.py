"""Tests of the gateway's micro-batching lanes: triggers, idle contract, bits.

A lane is built only by a :class:`RankGateway`, so most tests here drive
one through ``RankGateway.submit``; properties of the lane class itself
(the resident probe, resident bits, start and close) are tested on a
:class:`Lane` built as the gateway builds one.  Flushes are read from the
obs registry's
``repro_batcher_flushes_total{trigger}`` and deadline-loop passes from its
``repro_batcher_wakeups_total``, with obs on through ``obs_enabled``.
"""

import sys
import threading
import time
from contextlib import nullcontext

import numpy as np
import pytest

from repro import obs
from repro.core import (
    ConvergenceWarning,
    frank_vector,
    roundtriprank,
    roundtriprank_plus,
    trank_vector,
)
from repro.core.queries import normalize_query
from repro.core.roundtrip_plus import DEFAULT_BETA
from repro.engine.batch import (
    MEASURES,
    frank_batch,
    roundtriprank_batch,
    roundtriprank_plus_batch,
    trank_batch,
)
from repro.gateway import RankGateway
from repro.serving import ColumnCache
from repro.serving.batcher import Lane


def flushes(trigger: "str | None" = None) -> float:
    """Lane flushes so far, of one trigger or of all."""
    counter = obs.REGISTRY.get("repro_batcher_flushes_total")
    return counter.total() if trigger is None else counter.value(trigger=trigger)


def wakeups() -> float:
    """Deadline-loop passes so far, across all lanes."""
    return obs.REGISTRY.get("repro_batcher_wakeups_total").total()


def deadline_threads() -> int:
    """Live lane deadline threads in this process."""
    return sum(t.name == "microbatcher-deadline" for t in threading.enumerate())


def make_lane(graph, measure="roundtriprank", cache=None, max_batch=64) -> Lane:
    """A lane built as ``RankGateway._lane`` builds one, at the cache's alpha."""
    cache = cache if cache is not None else ColumnCache()
    return Lane(graph, measure, cache.alpha, DEFAULT_BETA, max_batch, 0.01, cache)


QUERIES = [0, {2: 1.0, 5: 3.0}, [1, 4], 7]


def _bits(result):
    """A result as raw bytes: a full vector, or a top-k (indices, scores)."""
    if isinstance(result, tuple):
        return tuple(part.tobytes() for part in result)
    return result.tobytes()


class TestTriggers:
    def test_size_trigger_flushes_inline(self, toy_graph, obs_enabled):
        gateway = RankGateway(toy_graph, max_batch=3)
        before = flushes("size")
        futures = [gateway.submit(q) for q in (0, 1)]
        assert not any(future.done() for future in futures)
        assert gateway.total_pending() == 2
        # No explicit flush and no deadline thread: the third submit hits
        # the size trigger.
        futures.append(gateway.submit(2))
        assert all(future.done() for future in futures)
        assert gateway.total_pending() == 0
        assert flushes("size") == before + 1
        for q, future in zip((0, 1, 2), futures):
            assert np.allclose(future.result(), roundtriprank(toy_graph, q), atol=1e-10)
        gateway.close()

    def test_deadline_trigger_flushes(self, toy_graph, obs_enabled):
        before = flushes("deadline")
        with RankGateway(toy_graph, max_batch=64, max_delay=0.02) as gateway:
            result = gateway.submit(4).result(timeout=5.0)
        assert np.allclose(result, roundtriprank(toy_graph, 4), atol=1e-10)
        assert flushes("deadline") == before + 1

    def test_explicit_and_resident_flushes_are_counted(self, toy_graph, obs_enabled):
        gateway = RankGateway(toy_graph, max_batch=64)
        before = {trigger: flushes(trigger) for trigger in ("flush", "resident")}
        queued = gateway.submit(5)
        assert gateway.flush_all() == 1
        resident = gateway.submit(5)
        assert resident.done()
        assert flushes("flush") == before["flush"] + 1
        assert flushes("resident") == before["resident"] + 1
        assert np.array_equal(resident.result(), queued.result())
        gateway.close()

    def test_close_flushes_outstanding_futures(self, toy_graph):
        gateway = RankGateway(toy_graph, max_batch=64, max_delay=30.0).start()
        future = gateway.submit(2)
        gateway.close()  # far before the deadline: close must resolve it
        assert future.done()
        assert np.allclose(future.result(), roundtriprank(toy_graph, 2), atol=1e-10)

    def test_below_size_trigger_stays_pending(self, toy_graph):
        # Unstarted, so even at the default linger, 0, nothing claims it.
        gateway = RankGateway(toy_graph, max_batch=10)
        future = gateway.submit(0)
        assert not future.done()
        assert gateway.flush_all() == 1
        assert future.done()
        gateway.close()

    def test_ask_runs_one_flush_of_its_query(self, toy_graph, obs_enabled):
        gateway = RankGateway(toy_graph)
        before = (flushes(), flushes("flush"))
        result = gateway.ask(5)
        assert (flushes(), flushes("flush")) == (before[0] + 1, before[1] + 1)
        assert np.allclose(result, roundtriprank(toy_graph, 5), atol=1e-10)
        gateway.close()

    def test_queued_queries_share_one_deadline_flush(self, toy_graph, obs_enabled):
        gateway = RankGateway(toy_graph, max_batch=64, max_delay=0.02)
        queries = (1, 6, 8)
        futures = [gateway.submit(q) for q in queries]
        before = flushes("deadline")
        gateway.start()
        for q, future in zip(queries, futures):
            assert np.allclose(future.result(timeout=5.0), roundtriprank(toy_graph, q), atol=1e-10)
        assert flushes("deadline") == before + 1
        gateway.close()

    def test_a_size_flush_runs_in_the_submitting_thread(self, toy_graph, monkeypatch):
        # A started lane still solves its size trigger inline, never on the
        # deadline thread: the caller that fills the batch pays for it.
        gateway = RankGateway(toy_graph, max_batch=2, max_delay=30.0).start()
        get_many, threads = gateway.cache.get_many, []

        def recording(*args, **kwargs):
            threads.append(threading.current_thread().name)
            return get_many(*args, **kwargs)

        monkeypatch.setattr(gateway.cache, "get_many", recording)
        futures = [gateway.submit(q) for q in (3, 7)]
        assert all(future.done() for future in futures)
        assert threads and set(threads) == {threading.current_thread().name}
        gateway.close()


class TestNaturalBatching:
    """At the default linger, 0, a started lane runs one flush at a time.

    A miss that finds the lane free is solved at once, in the submitting
    thread; the queries that queue while a flush runs leave together in
    the lane thread's next flush.
    """

    def test_a_lone_miss_is_solved_in_the_submitting_thread(self, toy_graph, monkeypatch):
        gateway = RankGateway(toy_graph).start()
        get_many, threads = gateway.cache.get_many, []

        def recording(*args, **kwargs):
            threads.append(threading.current_thread().name)
            return get_many(*args, **kwargs)

        monkeypatch.setattr(gateway.cache, "get_many", recording)
        for q in (2, 7):
            future = gateway.submit(q)
            assert future.done()  # no handoff to the lane's thread
            assert np.allclose(future.result(), roundtriprank(toy_graph, q), atol=1e-10)
        assert threads and set(threads) == {threading.current_thread().name}
        assert gateway.total_pending() == 0
        gateway.close()

    def test_concurrent_misses_never_overlap_their_flushes(self, toy_graph, monkeypatch):
        # More clients than cores, every query of a round a distinct node, so
        # none is resident: a claimed flush and the thread's take turns, no
        # query is stranded, and every answer is right whichever ran it.
        want = {q: roundtriprank(toy_graph, q) for q in range(toy_graph.n_nodes)}
        get_many, lock = ColumnCache.get_many, threading.Lock()
        running, most = [0], [0]

        def counted(cache, graph, kind, nodes, *args):
            if kind != "f":
                return get_many(cache, graph, kind, nodes, *args)
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            try:
                time.sleep(0.001)  # room for the other clients to arrive
                return get_many(cache, graph, kind, nodes, *args)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(ColumnCache, "get_many", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                gateway = RankGateway(toy_graph).start()
                results: dict = {}

                def client(base: int, gateway=gateway, results=results) -> None:
                    for q in range(base, toy_graph.n_nodes, 4):
                        results[q] = gateway.submit(q).result(timeout=5.0)

                threads = [
                    threading.Thread(target=client, args=(b,), daemon=True) for b in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in threads)
                gateway.close()
                assert sorted(results) == list(range(toy_graph.n_nodes))
                for q, result in results.items():
                    assert np.allclose(result, want[q], atol=1e-9)
        finally:
            sys.setswitchinterval(interval)
        assert most[0] == 1

    def test_queries_queued_behind_a_flush_share_the_next_one(
        self, toy_graph, monkeypatch, obs_enabled
    ):
        gateway = RankGateway(toy_graph).start()
        get_many, widths, threads = gateway.cache.get_many, [], []
        entered, release = threading.Event(), threading.Event()

        def held(graph, kind, nodes, *args):
            if kind == "f":
                widths.append(len(nodes))
                threads.append(threading.current_thread().name)
            entered.set()
            release.wait(timeout=5.0)
            return get_many(graph, kind, nodes, *args)

        monkeypatch.setattr(gateway.cache, "get_many", held)
        before = flushes("deadline")
        first: list = []
        submitter = threading.Thread(
            target=lambda: first.append(gateway.submit(0)), name="first-client", daemon=True
        )
        submitter.start()
        assert entered.wait(timeout=5.0)  # its flush is under way, unlingered
        queued = [gateway.submit(q) for q in (3, 6, 9)]
        assert gateway.total_pending() == 3
        release.set()
        submitter.join(timeout=5.0)
        assert not submitter.is_alive()
        results = [future.result(timeout=5.0) for future in first + queued]
        assert widths == [1, 3]
        assert threads == ["first-client", "microbatcher-deadline"]
        assert flushes("deadline") == before + 2
        # A batch keeps each answer's bits: asked alone, each query is
        # served from the same cached columns.
        for q, result in zip((0, 3, 6, 9), results):
            assert result.tobytes() == gateway.ask(q).tobytes(), f"query {q}"
        gateway.close()


class TestSizeFlushParity:
    """A flush of several queries gives each one its direct solver's scores."""

    @pytest.mark.parametrize(
        "measure,reference",
        [
            ("frank", lambda g, q: frank_vector(g, q)),
            ("trank", lambda g, q: trank_vector(g, q)),
            ("roundtriprank", lambda g, q: roundtriprank(g, q)),
            ("roundtriprank_plus", lambda g, q: roundtriprank_plus(g, q, beta=0.3)),
        ],
    )
    def test_measure_parity(self, toy_graph, measure, reference):
        gateway = RankGateway(toy_graph, beta=0.3, max_batch=4)
        queries = (0, 5, 9, 11)
        futures = [gateway.submit(q, measure=measure) for q in queries]
        assert all(future.done() for future in futures)  # the fourth hit the size trigger
        for q, future in zip(queries, futures):
            assert np.allclose(future.result(), reference(toy_graph, q), atol=1e-9)
        gateway.close()


class TestIdleContract:
    """The deadline loop of an idle lane sleeps; it never polls."""

    #: Every gateway's linger here; the subclass below reruns each test at
    #: the default, 0.
    max_delay = 0.005

    def _idle(self, toy_graph) -> RankGateway:
        """An unstarted gateway with one lane and nothing queued."""
        gateway = RankGateway(toy_graph, max_batch=64, max_delay=self.max_delay)
        gateway.cache.warm(toy_graph, [0])
        assert gateway.submit(0).done()  # builds the lane; a hit never queues
        return gateway

    def test_idle_lane_performs_zero_solves(self, toy_graph, obs_enabled):
        gateway = self._idle(toy_graph)
        before = flushes()
        gateway.start()
        time.sleep(0.25)  # ~50 deadline periods with nothing queued
        assert flushes() == before
        gateway.close()

    def test_idle_lane_never_wakes(self, toy_graph, obs_enabled):
        # The deadline thread parks in an *untimed* condition wait while the
        # queue is empty: once started it enters the loop exactly once and
        # must not iterate again, however many max_delay periods pass.
        gateway = self._idle(toy_graph)
        before = wakeups()
        gateway.start()
        time.sleep(0.25)
        assert wakeups() == before + 1
        gateway.close()

    def test_idle_then_submit_still_meets_deadline(self, toy_graph, obs_enabled):
        # Sleeping idle must not cost wakeup latency when work arrives.
        gateway = self._idle(toy_graph).start()
        time.sleep(0.1)  # park the thread in the untimed wait
        before = flushes("deadline")
        result = gateway.submit(3).result(timeout=5.0)
        assert np.allclose(result, roundtriprank(toy_graph, 3), atol=1e-10)
        assert flushes("deadline") == before + 1
        gateway.close()

    def test_wakeups_stop_once_work_drains(self, toy_graph, obs_enabled):
        # A few submits may wake the loop a few times each (notify plus
        # deadline re-checks), but wakeups track work, not wall time.
        gateway = RankGateway(toy_graph, max_batch=64, max_delay=self.max_delay).start()
        for q in range(3):
            gateway.submit(q).result(timeout=5.0)
        time.sleep(0.2)  # idle tail: no further wakeups may accrue
        after_work = wakeups()
        time.sleep(0.2)
        assert wakeups() == after_work
        gateway.close()


class TestIdleContractAtZero(TestIdleContract):
    """The same contract at linger 0, where a started lane's lone miss is
    solved in the submitting thread and never wakes the loop."""

    max_delay = 0.0


class TestSolverErrors:
    def test_a_solver_error_reaches_every_future_of_its_flush(self, toy_graph, monkeypatch):
        gateway = RankGateway(toy_graph, max_batch=8)

        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(gateway.cache, "_solve", boom)
        futures = [gateway.submit(q) for q in (0, 1)]
        assert gateway.flush_all() == 2
        for future in futures:
            with pytest.raises(RuntimeError, match="solver exploded"):
                future.result(timeout=1.0)
        gateway.close()

    @pytest.mark.parametrize("trigger", ["size", "deadline", "resident"])
    def test_every_trigger_delivers_an_error_and_keeps_serving(
        self, toy_graph, monkeypatch, trigger
    ):
        # Whichever trigger runs the failed flush, its futures get the error
        # and the lane lives on: the deadline thread above all must survive.
        gateway = RankGateway(toy_graph, max_batch=2 if trigger == "size" else 64, max_delay=0.01)
        if trigger == "resident":
            gateway.cache.warm(toy_graph, [0, 1])
        if trigger == "deadline":
            gateway.start()

        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(gateway.cache, "get_many", boom)
        futures = [gateway.submit(q) for q in (0, 1)]
        for future in futures:
            with pytest.raises(RuntimeError, match="solver exploded"):
                future.result(timeout=5.0)
        monkeypatch.undo()
        futures = [gateway.submit(q) for q in (0, 1)]
        for q, future in zip((0, 1), futures):
            assert np.allclose(future.result(timeout=5.0), roundtriprank(toy_graph, q), atol=1e-10)
        gateway.close()


class TestColdCacheParity:
    """A gateway built without a cache gives the batch engine's bits.

    Its lanes read every column through its own default cache, which, when
    cold, solves the node batch the batch functions solve: the single-node
    queries are distinct and sorted, so a flush's node union is the list
    itself.
    """

    @pytest.fixture(params=["toy", "bibnet"])
    def case(self, request, toy_graph, small_bibnet):
        """``(graph, single-node queries, multi-node queries)``."""
        if request.param == "toy":
            return toy_graph, [0, 3, 5, 9], [0, [2, 3], {4: 2.0, 5: 1.0}, {1: 1.0, 7: 3.0}]
        p = [int(v) for v in small_bibnet.paper_nodes[:6]]
        multi = [p[0], p[1:3], {p[3]: 2.0, p[4]: 1.0}, {p[0]: 1.0, p[5]: 3.0}]
        return small_bibnet.graph, sorted(p[:4]), multi

    @staticmethod
    def _flush(graph, measure, queries):
        gateway = RankGateway(graph, beta=0.3, max_batch=64)
        futures = [gateway.submit(q, measure=measure) for q in queries]
        assert gateway.flush_all() == len(queries)
        gateway.close()
        return np.stack([future.result() for future in futures], axis=1)

    @pytest.mark.parametrize("which", ["single", "multi"])
    def test_round_trip_measures_give_the_batch_bits(self, case, which):
        graph, single, multi = case
        queries = single if which == "single" else multi
        got = self._flush(graph, "roundtriprank", queries)
        assert np.array_equal(got, roundtriprank_batch(graph, queries))
        got = self._flush(graph, "roundtriprank_plus", queries)
        assert np.array_equal(got, roundtriprank_plus_batch(graph, queries, 0.3))

    @pytest.mark.parametrize("measure, solver", [("frank", frank_batch), ("trank", trank_batch)])
    def test_single_node_f_and_t_give_the_batch_bits(self, case, measure, solver):
        graph, single, _ = case
        assert np.array_equal(self._flush(graph, measure, single), solver(graph, single))

    @pytest.mark.parametrize("measure, solver", [("frank", frank_batch), ("trank", trank_batch)])
    def test_multi_node_f_and_t_agree_within_1e_12(self, case, measure, solver):
        # The batch functions solve each query's teleport mixture; the
        # flush sums its nodes' weighted columns (the Linearity Theorem).
        graph, _, multi = case
        got = self._flush(graph, measure, multi)
        assert np.abs(got - solver(graph, multi)).max() <= 1e-12


class TestCacheSolverSettings:
    """A flush solves with the solver settings of the gateway's cache."""

    @pytest.mark.parametrize(
        "settings", [{"tol": 1e-4}, {"max_iter": 5}, {"method": "power"}], ids=str
    )
    def test_flush_bits_equal_the_batch_solve_at_the_cache_settings(self, toy_graph, settings):
        queries = list(range(toy_graph.n_nodes))
        gateway = RankGateway(toy_graph, max_batch=64, cache=ColumnCache(**settings))
        futures = [gateway.submit(q) for q in queries]
        with pytest.warns(ConvergenceWarning) if "max_iter" in settings else nullcontext():
            gateway.flush_all()
            want = roundtriprank_batch(toy_graph, queries, **settings)
        gateway.close()
        got = np.stack([future.result() for future in futures], axis=1)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, roundtriprank_batch(toy_graph, queries))


class TestResidentPath:
    def test_cached_column_bits_independent_of_flush_width(self, small_bibnet):
        graph = small_bibnet.graph
        nodes = [int(v) for v in small_bibnet.paper_nodes[:8]]
        gateway = RankGateway(graph, max_batch=64)
        futures = [gateway.submit(v) for v in nodes]
        assert gateway.flush_all() == len(nodes)
        for node, future in zip(nodes, futures):
            # Same cached columns, served alone at submit this time.
            alone = gateway.submit(node)
            assert alone.done(), f"query {node} was queued"
            assert np.array_equal(future.result(), alone.result()), f"query {node}"
        gateway.close()

    def test_non_integer_k_raises_on_the_resident_path(self, toy_graph):
        gateway = RankGateway(toy_graph)
        gateway.cache.warm(toy_graph, [0])
        before = gateway.cache.cache_info()
        with pytest.raises(TypeError, match="k must be an integer"):
            gateway.submit(0, k=2.5)
        assert gateway.snapshot().n_admitted == 0
        assert gateway.cache.cache_info() == before
        gateway.close()

    def test_resident_probe_moves_no_count_and_no_recency(self, toy_graph):
        one = toy_graph.n_nodes * 8
        cache = ColumnCache(max_bytes=2 * one)
        cache.get(toy_graph, "f", 0)
        cache.get(toy_graph, "f", 1)
        lane = Lane(toy_graph, "frank", cache.alpha, 0.5, 32, 0.01, cache)
        before = cache.cache_info()
        assert lane.resident(np.array([0]))
        assert cache.cache_info() == before
        cache.get(toy_graph, "f", 2)  # 0 is still the least recently used
        assert not lane.resident(np.array([0]))
        assert lane.resident(np.array([1, 2]))

    @pytest.mark.parametrize("measure", MEASURES)
    def test_a_flush_fills_the_cache_for_residents(self, toy_graph, measure):
        # A gateway built without a cache serves a repeat at submit: the
        # first query's flush stored every column the second one reads.
        gateway = RankGateway(toy_graph, max_batch=64)
        first = gateway.ask(4, measure=measure)
        future = gateway.submit(4, measure=measure)
        assert future.done()
        assert gateway.total_pending() == 0
        assert np.array_equal(future.result(), first)
        gateway.close()

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("measure", MEASURES)
    def test_resident_bits_equal_a_multi_request_flush(self, toy_graph, measure, k):
        cache = ColumnCache()
        cache.warm(toy_graph, range(toy_graph.n_nodes))
        lane = Lane(toy_graph, measure, cache.alpha, 0.3, 64, 0.01, cache)
        parsed = [normalize_query(toy_graph, q) for q in QUERIES]
        batched = [lane.enqueue(nodes, weights, k, None) for nodes, weights in parsed]
        assert lane.flush() == len(QUERIES)
        for query, (nodes, weights), want in zip(QUERIES, parsed, batched):
            assert lane.resident(nodes), f"query {query}"
            got = lane.serve_resident(nodes, weights, k, None)
            assert got.done(), f"query {query} was not served at once"
            assert _bits(got.result()) == _bits(want.result()), f"query {query}"
        assert lane.pending == 0

    @pytest.mark.parametrize("kind", ["f", "t"])
    @pytest.mark.parametrize("measure", MEASURES)
    def test_a_lane_probes_only_the_columns_its_measure_reads(self, toy_graph, measure, kind):
        # With one of node 1's two columns cached, only the lane whose
        # measure reads that column alone finds node 1 resident.
        cache = ColumnCache()
        cache.get(toy_graph, kind, 1)
        resident = {"frank": "f", "trank": "t"}.get(measure) == kind
        assert make_lane(toy_graph, measure, cache).resident(np.array([1])) is resident


class TestLaneLifecycle:
    """A lane's own start, close and flush, on the lane class directly."""

    def test_enqueue_after_close_raises(self, toy_graph):
        cache = ColumnCache()
        closed = make_lane(toy_graph, cache=cache)
        closed.close()
        before = cache.cache_info()
        with pytest.raises(RuntimeError, match="closed"):
            closed.enqueue(*normalize_query(toy_graph, 0), None, None)
        assert closed.pending == 0
        assert cache.cache_info() == before

    def test_close_is_idempotent(self, toy_graph):
        before = deadline_threads()
        started = make_lane(toy_graph)
        started.start()
        assert deadline_threads() == before + 1
        started.close()
        started.close()  # second close must be a no-op
        assert started.closed
        assert deadline_threads() == before

    def test_start_is_idempotent(self, toy_graph):
        before = deadline_threads()
        started = make_lane(toy_graph)
        started.start()
        started.start()
        assert deadline_threads() == before + 1
        started.close()
        assert deadline_threads() == before

    def test_start_after_close_starts_no_thread(self, toy_graph):
        before = deadline_threads()
        closed = make_lane(toy_graph)
        closed.close()
        closed.start()  # a no-op: the gateway's start() may race an eviction
        assert closed.closed
        assert deadline_threads() == before

    def test_a_closed_lane_still_serves_a_resident_query(self, toy_graph):
        # A query never queued cannot be stranded by close: a resident query
        # admitted just before its lane was evicted is still served.
        cache = ColumnCache()
        cache.warm(toy_graph, [2])
        served = make_lane(toy_graph, cache=cache)
        nodes, weights = normalize_query(toy_graph, 2)
        want = served.serve_resident(nodes, weights, None, None).result()
        served.close()
        future = served.serve_resident(nodes, weights, None, None)
        assert future.done()
        assert np.array_equal(future.result(), want)

    def test_an_empty_flush_solves_and_counts_nothing(self, toy_graph, obs_enabled):
        cache = ColumnCache()
        idle = make_lane(toy_graph, cache=cache)
        before = (flushes(), cache.cache_info())
        assert idle.flush() == 0
        idle.close()  # its final flush is empty too
        assert (flushes(), cache.cache_info()) == before

    def test_concurrent_enqueues_all_resolve(self, toy_graph):
        # Three threads race the size trigger and the deadline thread on the
        # lane's own queue lock, with no gateway admission lock in front.
        busy = make_lane(toy_graph, max_batch=8)
        busy.start()
        futures, lock = [], threading.Lock()

        def worker(base: int) -> None:
            for q in range(base, toy_graph.n_nodes, 3):
                future = busy.enqueue(*normalize_query(toy_graph, q), None, None)
                with lock:
                    futures.append((q, future))

        threads = [threading.Thread(target=worker, args=(b,), daemon=True) for b in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert sorted(q for q, _ in futures) == list(range(toy_graph.n_nodes))
        for q, future in futures:
            assert np.allclose(future.result(timeout=10.0), roundtriprank(toy_graph, q), atol=1e-9)
        busy.close()
        assert busy.pending == 0
