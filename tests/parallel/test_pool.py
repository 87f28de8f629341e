"""Tests for the worker pool: crossover heuristic, failures, cleanup."""

import numpy as np
import pytest

import repro.parallel as parallel
from repro.core.queries import normalize_query
from repro.engine import frank_batch
from repro.parallel.pool import (
    PARALLEL_MIN_QUERIES,
    _raise_for_tests,
    effective_workers,
    get_pool,
    shared_operator,
    solve_columns_parallel,
)
from repro.parallel.shm import live_segment_names


class TestEffectiveWorkers:
    def test_none_zero_one_mean_sequential(self):
        assert effective_workers(100, None) == 0
        assert effective_workers(100, 0) == 0
        assert effective_workers(100, 1) == 0

    def test_small_batches_fall_back(self):
        assert effective_workers(PARALLEL_MIN_QUERIES - 1, 2) == 0
        # 2 * workers dominates the floor: each shard needs >= 2 columns.
        assert effective_workers(PARALLEL_MIN_QUERIES, 8) == 0
        assert effective_workers(2 * 8, 8) == 8

    def test_large_batches_use_requested_workers(self):
        assert effective_workers(64, 4) == 4
        assert effective_workers(PARALLEL_MIN_QUERIES, 2) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            effective_workers(10, -1)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tol_rejected_before_dispatch(self, toy_graph, tol):
        parsed = [normalize_query(toy_graph, q) for q in range(PARALLEL_MIN_QUERIES)]
        before = set(live_segment_names())
        with pytest.raises(ValueError, match="tol must be finite"):
            solve_columns_parallel(toy_graph, parsed, True, 0.25, tol, 100, True, "power", 2)
        assert set(live_segment_names()) == before

    def test_crossover_routes_small_batch_sequentially(self, toy_graph):
        # Below the crossover nothing is published and no pool is touched:
        # the workers= call must be exactly the sequential path.
        before = set(live_segment_names())
        small = frank_batch(toy_graph, [0, 1, 2], workers=4)
        assert set(live_segment_names()) == before
        assert np.array_equal(small, frank_batch(toy_graph, [0, 1, 2]))


class TestPoolLifecycle:
    def test_pool_grows_but_never_shrinks(self):
        pool_two = get_pool(2)
        assert get_pool(1) is pool_two
        pool_four = get_pool(4)
        assert pool_four.max_workers == 4
        assert get_pool(2) is pool_four

    def test_retired_pool_refuses_resurrection(self):
        from repro.parallel import PoolRetiredError
        from repro.parallel.pool import _pool_submit

        old = get_pool(2)
        grown = get_pool(old.max_workers + 1)  # retires `old`
        with pytest.raises(PoolRetiredError):
            old.submit(_raise_for_tests)
        # A solve loop holding the retired pool recovers by resubmitting on
        # the current pool — _pool_submit does exactly that.
        future = _pool_submit(2, _raise_for_tests)
        with pytest.raises(RuntimeError, match="intentional worker failure"):
            future.result()
        assert get_pool(2) is grown

    def test_invalid_worker_counts(self):
        with pytest.raises(ValueError):
            get_pool(0)
        with pytest.raises(ValueError):
            parallel.WorkerPool(0)

    def test_worker_exception_propagates_and_pool_survives(self, toy_graph):
        pool = get_pool(2)
        with pytest.raises(RuntimeError, match="intentional worker failure"):
            pool.submit(_raise_for_tests).result()
        # An ordinary exception must not poison the executor: the very same
        # pool still solves real shards afterwards.
        queries = list(range(PARALLEL_MIN_QUERIES))
        batch = frank_batch(toy_graph, queries, method="power", workers=2)
        assert np.array_equal(batch, frank_batch(toy_graph, queries, method="power"))

    def test_shutdown_unlinks_everything_and_is_idempotent(self, toy_graph):
        shared_operator(toy_graph, transpose=True)
        shared_operator(toy_graph, transpose=False)
        assert live_segment_names()
        parallel.shutdown()
        assert live_segment_names() == []
        parallel.shutdown()  # second call is a no-op, not an error

    def test_shutdown_after_worker_exception_leaves_no_segments(self, toy_graph):
        # Drive a real sharded solve (publishes segments, starts workers),
        # then crash a worker task, then shut down: nothing may leak.
        queries = list(range(toy_graph.n_nodes))
        frank_batch(toy_graph, queries, method="power", workers=2)
        with pytest.raises(RuntimeError, match="intentional worker failure"):
            get_pool(2).submit(_raise_for_tests).result()
        parallel.shutdown()
        assert live_segment_names() == []

    def test_solves_recover_after_shutdown(self, toy_graph):
        parallel.shutdown()
        queries = list(range(PARALLEL_MIN_QUERIES))
        batch = frank_batch(toy_graph, queries, method="power", workers=2)
        assert np.array_equal(batch, frank_batch(toy_graph, queries, method="power"))


class TestWorkerAttachmentCache:
    def test_lru_bound_and_segment_close_on_eviction(self):
        # The worker-side cache is plain module state, so exercise it
        # in-process: attach more handles than the bound and check old
        # entries (and their derived objects) are dropped.
        import scipy.sparse as sp

        from repro.parallel.pool import _WORKER_CACHE_MAX, _worker_cache, _worker_operator
        from repro.parallel.shm import SharedCSR

        _worker_cache.clear()
        published = [
            SharedCSR.publish(sp.eye(3 + i, format="csr"))
            for i in range(_WORKER_CACHE_MAX + 3)
        ]
        try:
            for shared in published:
                assert _worker_operator(shared.handle).shape[0] >= 3
                # a derived object rides the entry
                _worker_operator(shared.handle).matrix(np.float32)
                assert len(_worker_cache) <= _WORKER_CACHE_MAX
            # The oldest handles were evicted; the newest are still cached.
            assert published[0].handle not in _worker_cache
            assert published[-1].handle in _worker_cache
        finally:
            _worker_cache.clear()
            for shared in published:
                shared.destroy()

    def test_a_handle_keeps_one_operator_while_cached(self):
        import scipy.sparse as sp

        from repro.parallel.pool import _worker_cache, _worker_operator
        from repro.parallel.shm import SharedCSR

        _worker_cache.clear()
        first, second = (SharedCSR.publish(sp.eye(n, format="csr")) for n in (3, 4))
        try:
            operator = _worker_operator(first.handle)
            _worker_operator(second.handle)
            assert _worker_operator(first.handle) is operator
            # The repeat lookup made the first handle the most recently used.
            assert list(_worker_cache) == [second.handle, first.handle]
            del operator  # its arrays view the segments the clear below closes
        finally:
            _worker_cache.clear()
            first.destroy()
            second.destroy()


class TestSharedOperatorRegistry:
    def test_publication_is_cached_per_graph_and_orientation(self, toy_graph):
        first = shared_operator(toy_graph, transpose=True)
        again = shared_operator(toy_graph, transpose=True)
        other = shared_operator(toy_graph, transpose=False)
        assert first == again
        assert first != other
