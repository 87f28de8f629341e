"""Tests for the micro-batching scheduler's flush semantics."""

import threading
import time

import numpy as np
import pytest

from repro.core import frank_vector, roundtriprank, roundtriprank_plus, trank_vector
from repro.engine.batch import MEASURES
from repro.serving import ColumnCache, MicroBatcher


class TestSizeTrigger:
    def test_size_trigger_flushes_inline(self, toy_graph):
        batcher = MicroBatcher(toy_graph, max_batch=3)
        futures = [batcher.submit(q) for q in (0, 1, 2)]
        # No explicit flush and no background thread: the third submit hit
        # the size trigger.
        assert all(f.done() for f in futures)
        assert batcher.stats.n_flushes == 1
        assert batcher.stats.n_size_flushes == 1
        assert batcher.stats.mean_batch_size == 3.0
        for q, future in zip((0, 1, 2), futures):
            assert np.allclose(future.result(), roundtriprank(toy_graph, q), atol=1e-10)

    def test_below_size_trigger_stays_pending(self, toy_graph):
        batcher = MicroBatcher(toy_graph, max_batch=10)
        future = batcher.submit(0)
        assert not future.done()
        assert batcher.flush() == 1
        assert future.done()


class TestDeadlineTrigger:
    def test_deadline_trigger_flushes(self, toy_graph):
        with MicroBatcher(toy_graph, max_batch=64, max_delay=0.02) as batcher:
            future = batcher.submit(4)
            result = future.result(timeout=5.0)
        assert np.allclose(result, roundtriprank(toy_graph, 4), atol=1e-10)
        assert batcher.stats.n_deadline_flushes >= 1

    def test_stop_flushes_remaining(self, toy_graph):
        batcher = MicroBatcher(toy_graph, max_batch=64, max_delay=30.0).start()
        future = batcher.submit(1)
        batcher.stop()  # far before the deadline: stop must not strand it
        assert future.done()

    def test_submit_after_stop_in_progress_then_restart(self, toy_graph):
        batcher = MicroBatcher(toy_graph, max_batch=64, max_delay=0.01)
        batcher.start()
        batcher.stop()
        future = batcher.submit(0)  # stopped batcher still accepts sync use
        batcher.flush()
        assert future.done()


class TestIdleBehavior:
    """Audit of the deadline loop: an idle batcher must sleep, not poll."""

    def test_idle_batcher_performs_zero_solves(self, toy_graph):
        with MicroBatcher(toy_graph, max_batch=4, max_delay=0.005) as batcher:
            time.sleep(0.25)  # ~50 deadline periods with nothing queued
            assert batcher.stats.n_flushes == 0
            assert batcher.stats.n_submitted == 0

    def test_idle_batcher_never_wakes(self, toy_graph):
        # The deadline thread parks in an *untimed* condition wait while the
        # queue is empty: after start it enters the loop exactly once and
        # must not iterate again, no matter how many max_delay periods pass.
        with MicroBatcher(toy_graph, max_batch=64, max_delay=0.005) as batcher:
            time.sleep(0.25)
            assert batcher._loop_wakeups == 1

    def test_idle_then_submit_still_meets_deadline(self, toy_graph):
        # Sleeping idle must not cost wakeup latency when work arrives.
        with MicroBatcher(toy_graph, max_batch=64, max_delay=0.02) as batcher:
            time.sleep(0.1)  # park the thread in the untimed wait
            future = batcher.submit(3)
            result = future.result(timeout=5.0)
        assert np.allclose(result, roundtriprank(toy_graph, 3), atol=1e-10)
        assert batcher.stats.n_deadline_flushes >= 1

    def test_wakeups_stay_proportional_to_work(self, toy_graph):
        # A handful of submits may wake the loop a few times each (notify +
        # deadline re-checks), but wakeups must track work, not wall time.
        with MicroBatcher(toy_graph, max_batch=64, max_delay=0.01) as batcher:
            for q in range(3):
                batcher.submit(q).result(timeout=5.0)
            time.sleep(0.2)  # idle tail: no further wakeups may accrue
            wakeups_after_work = batcher._loop_wakeups
            time.sleep(0.2)
            assert batcher._loop_wakeups == wakeups_after_work


class TestSingleQueryFallback:
    def test_ask_solves_one_query(self, toy_graph):
        batcher = MicroBatcher(toy_graph)
        result = batcher.ask(5)
        assert np.allclose(result, roundtriprank(toy_graph, 5), atol=1e-10)
        assert batcher.stats.n_flushes == 1
        assert batcher.stats.mean_batch_size == 1.0

    def test_ask_topk(self, toy_graph):
        batcher = MicroBatcher(toy_graph)
        indices, values = batcher.ask(2, k=4)
        full = roundtriprank(toy_graph, 2)
        expected = np.argsort(-full, kind="stable")[:4]
        assert np.array_equal(indices, expected)
        assert np.allclose(values, full[expected], atol=1e-10)


class TestStats:
    def test_many_flushes_keep_only_scalars(self, toy_graph, monkeypatch):
        # A gateway lane is never evicted while hot: its stats must not
        # grow with the number of flushes it has served.
        batcher = MicroBatcher(toy_graph)
        scores = np.zeros((toy_graph.n_nodes, 1))
        monkeypatch.setattr(batcher, "_score_columns", lambda batch: scores)
        for _ in range(10_000):
            batcher.submit(0)
            batcher.flush()
        assert batcher.stats.n_flushes == 10_000
        assert batcher.stats.mean_batch_size == 1.0
        for name, value in vars(batcher.stats).items():
            assert isinstance(value, (int, float)), f"{name} is {type(value).__name__}"


class TestMeasuresAndCache:
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
        batcher = MicroBatcher(toy_graph, measure=measure, beta=0.3, max_batch=4)
        futures = [batcher.submit(q) for q in (0, 5, 9, 11)]
        for q, future in zip((0, 5, 9, 11), futures):
            assert np.allclose(future.result(), reference(toy_graph, q), atol=1e-9)

    @pytest.mark.parametrize(
        "measure", ["frank", "trank", "roundtriprank", "roundtriprank_plus"]
    )
    def test_cached_flush_matches_uncached(self, toy_graph, measure):
        cache = ColumnCache()
        cached = MicroBatcher(toy_graph, measure=measure, cache=cache, max_batch=8)
        plain = MicroBatcher(toy_graph, measure=measure, max_batch=8)
        queries = [0, 1, [2, 3], {4: 2.0, 5: 1.0}]
        got = [cached.submit(q) for q in queries]
        want = [plain.submit(q) for q in queries]
        cached.flush()
        plain.flush()
        for g, w in zip(got, want):
            assert np.allclose(g.result(), w.result(), atol=1e-9)

    def test_cache_reuse_across_flushes(self, toy_graph):
        cache = ColumnCache()
        batcher = MicroBatcher(toy_graph, cache=cache, max_batch=8)
        batcher.ask(0)
        misses_after_first = cache.cache_info().misses
        batcher.ask(0)  # second flush: pure cache hits
        info = cache.cache_info()
        assert info.misses == misses_after_first
        assert info.hits >= 2

    def test_cached_column_bits_independent_of_flush_width(self, small_bibnet):
        graph = small_bibnet.graph
        nodes = [int(v) for v in small_bibnet.paper_nodes[:8]]
        batcher = MicroBatcher(graph, cache=ColumnCache())
        futures = [batcher.submit(v) for v in nodes]
        batcher.flush()
        for node, future in zip(nodes, futures):
            # Same cached columns, flushed alone this time.
            assert np.array_equal(future.result(), batcher.ask(node)), f"query {node}"

    def test_multi_node_query_linearity(self, toy_graph):
        batcher = MicroBatcher(toy_graph, cache=ColumnCache(), max_batch=2)
        result = batcher.ask({0: 1.0, 1: 3.0})
        assert np.allclose(result, roundtriprank(toy_graph, {0: 1.0, 1: 3.0}), atol=1e-9)


class TestLifecycle:
    def test_submit_after_close_raises(self, toy_graph):
        batcher = MicroBatcher(toy_graph)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(0)
        with pytest.raises(RuntimeError, match="closed"):
            batcher.ask(0)

    def test_close_is_idempotent(self, toy_graph):
        batcher = MicroBatcher(toy_graph, max_delay=0.01).start()
        batcher.close()
        batcher.close()  # second close must be a no-op
        assert batcher.closed

    def test_start_after_close_raises(self, toy_graph):
        batcher = MicroBatcher(toy_graph)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.start()

    def test_close_flushes_outstanding_futures(self, toy_graph):
        batcher = MicroBatcher(toy_graph, max_batch=64, max_delay=30.0).start()
        future = batcher.submit(2)
        batcher.close()  # far before the deadline: close must resolve it
        assert future.done()
        assert np.allclose(future.result(), roundtriprank(toy_graph, 2), atol=1e-10)

    def test_context_manager_closes(self, toy_graph):
        with MicroBatcher(toy_graph, max_delay=0.01) as batcher:
            batcher.submit(0)
        assert batcher.closed
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(1)

    def test_stop_then_restart_still_works(self, toy_graph):
        # stop() is a pause, not a close: the deadline thread comes back.
        batcher = MicroBatcher(toy_graph, max_batch=64, max_delay=0.02)
        batcher.start()
        batcher.stop()
        assert not batcher.closed
        batcher.start()
        future = batcher.submit(3)
        assert future.result(timeout=5.0) is not None
        batcher.close()


class TestValidationAndErrors:
    def test_invalid_query_raises_at_submit(self, toy_graph):
        batcher = MicroBatcher(toy_graph)
        with pytest.raises(ValueError):
            batcher.submit(toy_graph.n_nodes + 5)
        with pytest.raises(ValueError):
            batcher.submit(0, k=0)

    def test_invalid_construction(self, toy_graph):
        with pytest.raises(ValueError):
            MicroBatcher(toy_graph, measure="pagerank")
        with pytest.raises(ValueError):
            MicroBatcher(toy_graph, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(toy_graph, max_delay=0.0)

    def test_solver_errors_propagate_to_futures(self, toy_graph, monkeypatch):
        batcher = MicroBatcher(toy_graph, max_batch=8)

        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(
            "repro.serving.batcher.roundtriprank_batch", boom
        )
        futures = [batcher.submit(q) for q in (0, 1)]
        batcher.flush()
        for future in futures:
            with pytest.raises(RuntimeError, match="solver exploded"):
                future.result(timeout=1.0)


class TestConcurrentSubmission:
    def test_many_threads_all_resolve(self, toy_graph):
        with MicroBatcher(toy_graph, max_batch=8, max_delay=0.01) as batcher:
            futures = []
            lock = threading.Lock()

            def worker(base):
                for q in range(base, toy_graph.n_nodes, 3):
                    future = batcher.submit(q)
                    with lock:
                        futures.append((q, future))

            threads = [threading.Thread(target=worker, args=(b,)) for b in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            deadline = time.monotonic() + 10.0
            for q, future in futures:
                remaining = max(0.1, deadline - time.monotonic())
                assert np.allclose(
                    future.result(timeout=remaining),
                    roundtriprank(toy_graph, q),
                    atol=1e-9,
                )
        assert batcher.stats.n_submitted == toy_graph.n_nodes


QUERIES = [0, {2: 1.0, 5: 3.0}, [1, 4], 7]


def _bits(result):
    """A result as raw bytes: a full vector, or a top-k (indices, scores)."""
    if isinstance(result, tuple):
        return tuple(part.tobytes() for part in result)
    return result.tobytes()


class TestResidentTrigger:
    """A query whose columns are all cached is flushed alone at submit."""

    def test_resident_query_resolves_at_submit(self, toy_graph):
        batcher = MicroBatcher(toy_graph, cache=ColumnCache(), max_batch=64)
        batcher.ask(3)  # caches node 3's F and T columns
        flushes = batcher.stats.n_flushes
        future = batcher.submit(3)
        assert future.done()
        assert batcher.pending == 0
        assert batcher.stats.n_flushes == flushes + 1
        assert np.allclose(future.result(), roundtriprank(toy_graph, 3), atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("measure", MEASURES)
    def test_resident_bits_equal_a_multi_request_flush(self, toy_graph, measure, k, dtype):
        cache = ColumnCache(dtype=dtype)
        cache.warm(toy_graph, range(toy_graph.n_nodes))
        batcher = MicroBatcher(toy_graph, measure=measure, beta=0.3, cache=cache)
        batched = [batcher.enqueue(q, k=k) for q in QUERIES]
        assert batcher.flush() == len(QUERIES)
        for query, want in zip(QUERIES, batched):
            got = batcher.submit(query, k=k)
            assert got.done(), f"query {query} was queued"
            assert _bits(got.result()) == _bits(want.result()), f"query {query}"

    def test_cache_counts_equal_a_flush_only_run(self, toy_graph):
        stream = [0, 1, 0, {0: 1.0, 1: 2.0}, 1, [5, 0], 5, 0]

        def run(send) -> tuple:
            cache = ColumnCache()
            batcher = MicroBatcher(toy_graph, cache=cache, max_batch=64)
            done = 0
            for query in stream:
                future = send(batcher, query)
                done += future.done()
                batcher.flush()
            info = cache.cache_info()
            return (info.hits, info.misses, info.inserts), done

        counts, resident = run(lambda b, q: b.submit(q, k=3))
        flush_only, queued = run(lambda b, q: b.enqueue(q, k=3))
        assert counts == flush_only
        assert (resident, queued) == (5, 0)

    def test_query_with_a_missing_column_still_queues(self, toy_graph):
        cache = ColumnCache()
        cache.get(toy_graph, "f", 1)  # node 1's T column stays unsolved
        cache.warm(toy_graph, [0])
        batcher = MicroBatcher(toy_graph, cache=cache, max_batch=64)
        future = batcher.submit([0, 1])
        assert not future.done()
        assert batcher.pending == 1
        # An F-Rank lane reads only F columns: node 1 is resident there.
        assert MicroBatcher(toy_graph, measure="frank", cache=cache).submit(1).done()
        batcher.flush()
        assert np.allclose(future.result(), roundtriprank(toy_graph, [0, 1]), atol=1e-10)

    def test_resident_submit_to_closed_batcher_raises(self, toy_graph):
        cache = ColumnCache()
        cache.warm(toy_graph, [2])
        batcher = MicroBatcher(toy_graph, cache=cache)
        batcher.close()
        before = cache.cache_info()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(2)
        assert cache.cache_info() == before


class TestTriggerValidation:
    """Bad trigger settings raise at construction, before any thread runs."""

    def test_nan_max_delay_is_rejected_before_the_deadline_thread_spins(self, toy_graph):
        with pytest.raises(ValueError, match="max_delay must be finite"):
            batcher = MicroBatcher(toy_graph, max_delay=float("nan"))
            # Reached only without the check: the deadline thread would spin
            # and never flush, so the wait is bounded.
            with batcher:
                batcher.submit(0).result(timeout=1.0)

    def test_infinite_max_delay_is_rejected_before_it_kills_the_deadline_thread(self, toy_graph):
        with pytest.raises(ValueError, match="max_delay must be finite"):
            batcher = MicroBatcher(toy_graph, max_delay=float("inf"))
            with batcher:
                batcher.submit(0).result(timeout=1.0)

    @pytest.mark.parametrize("max_batch", [2.5, 4.0])
    def test_non_integer_max_batch_is_rejected(self, toy_graph, max_batch):
        with pytest.raises(TypeError, match="max_batch must be an integer"):
            MicroBatcher(toy_graph, max_batch=max_batch)


class TestSolverSettingValidation:
    """Bad solver settings raise at construction, not in every flush."""

    @pytest.mark.parametrize("alpha", [1.5, float("nan"), 0.0, 1.0, -0.5, float("inf")])
    def test_invalid_alpha_is_rejected(self, toy_graph, alpha):
        with pytest.raises(ValueError, match="alpha must be in"):
            MicroBatcher(toy_graph, alpha=alpha)

    @pytest.mark.parametrize("beta", [float("nan"), -1.0, 2.0])
    def test_invalid_beta_is_rejected(self, toy_graph, beta):
        with pytest.raises(ValueError, match="beta must be in"):
            MicroBatcher(toy_graph, measure="roundtriprank_plus", beta=beta)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_closed_interval_ends_of_beta_are_served(self, toy_graph, beta):
        batcher = MicroBatcher(toy_graph, measure="roundtriprank_plus", beta=beta)
        result = batcher.ask(5)
        assert np.allclose(result, roundtriprank_plus(toy_graph, 5, beta=beta), atol=1e-9)


class TestTopKValidation:
    @pytest.mark.parametrize("k", [2.5, 3.0])
    def test_non_integer_k_raises_at_submit_and_spares_its_flush(self, toy_graph, k):
        batcher = MicroBatcher(toy_graph, max_batch=64)
        before = batcher.submit(1, k=3)
        with pytest.raises(TypeError, match="k must be an integer"):
            batcher.submit(0, k=k)
        after = batcher.submit(2, k=3)
        assert batcher.flush() == 2
        for query, future in ((1, before), (2, after)):
            indices, _scores = future.result(timeout=5.0)
            full = roundtriprank(toy_graph, query)
            assert np.array_equal(indices, np.argsort(-full, kind="stable")[:3])

    def test_non_integer_k_raises_on_the_resident_path(self, toy_graph):
        cache = ColumnCache()
        cache.warm(toy_graph, [0])
        batcher = MicroBatcher(toy_graph, cache=cache)
        with pytest.raises(TypeError, match="k must be an integer"):
            batcher.submit(0, k=2.5)
        assert batcher.stats.n_submitted == 0
