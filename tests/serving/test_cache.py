"""Tests for the serving-layer column cache."""

import threading
import time

import numpy as np
import pytest

from repro.datasets import sample_zipf_queries
from repro.engine import frank_batch, trank_batch
from repro.serving import CacheInfo, ColumnCache, graph_token


class TestCorrectness:
    def test_hit_returns_bit_exact_column(self, toy_graph):
        cache = ColumnCache()
        first = cache.get(toy_graph, "f", 0)
        again = cache.get(toy_graph, "f", 0)
        assert again is first  # the stored array itself: bit-exact by identity
        expected = frank_batch(toy_graph, [0], cache.alpha)[:, 0]
        assert np.array_equal(first, expected)

    def test_t_columns_match_engine(self, toy_graph):
        cache = ColumnCache()
        t = cache.get(toy_graph, "t", 3)
        expected = trank_batch(toy_graph, [3], cache.alpha)[:, 0]
        assert np.array_equal(t, expected)

    def test_columns_are_read_only(self, toy_graph):
        cache = ColumnCache()
        column = cache.get(toy_graph, "f", 1)
        with pytest.raises(ValueError):
            column[0] = 123.0

    def test_stored_columns_own_their_bytes(self, toy_graph):
        # Regression: a single-column miss used to store a read-only *view*
        # of the solver's writable output; mutating through ``column.base``
        # would have silently corrupted every future hit.
        cache = ColumnCache()
        column = cache.get(toy_graph, "f", 2)  # one-column solve: the risky path
        assert column.flags.owndata
        assert column.base is None
        for col in cache.get_many(toy_graph, "t", [0, 1, 2]):
            assert col.flags.owndata and col.base is None

    def test_failed_mutation_leaves_future_hits_intact(self, toy_graph):
        cache = ColumnCache()
        column = cache.get(toy_graph, "f", 4)
        snapshot = column.copy()
        with pytest.raises(ValueError):
            column[:] = 0.0
        assert np.array_equal(cache.get(toy_graph, "f", 4), snapshot)

    def test_alpha_is_part_of_the_key(self, toy_graph):
        cache = ColumnCache()
        a = cache.get(toy_graph, "f", 0, alpha=0.25)
        b = cache.get(toy_graph, "f", 0, alpha=0.5)
        assert not np.array_equal(a, b)
        assert cache.cache_info().entries == 2

    def test_kind_is_part_of_the_key(self, toy_graph):
        cache = ColumnCache()
        cache.get(toy_graph, "f", 0)
        cache.get(toy_graph, "t", 0)
        assert cache.cache_info().entries == 2

    def test_graphs_do_not_alias(self, toy_graph, line_graph):
        cache = ColumnCache()
        a = cache.get(toy_graph, "f", 0)
        b = cache.get(line_graph, "f", 0)
        assert a.shape != b.shape
        assert graph_token(toy_graph) != graph_token(line_graph)

    def test_invalid_kind_rejected(self, toy_graph):
        cache = ColumnCache()
        with pytest.raises(ValueError):
            cache.get(toy_graph, "x", 0)

    def test_get_many_handles_duplicates(self, toy_graph):
        cache = ColumnCache()
        cols = cache.get_many(toy_graph, "f", [2, 2, 5, 2])
        assert len(cols) == 4
        assert cols[0] is cols[1] and cols[1] is cols[3]
        info = cache.cache_info()
        assert info.misses == 2  # two distinct nodes solved once each
        assert info.hits == 2


class TestEviction:
    def _column_bytes(self, graph):
        return graph.n_nodes * 8

    def test_lru_eviction_order(self, toy_graph):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=2 * one)
        cache.get(toy_graph, "f", 0)  # A
        cache.get(toy_graph, "f", 1)  # B
        cache.get(toy_graph, "f", 0)  # touch A: B is now least recent
        cache.get(toy_graph, "f", 2)  # C evicts B
        info = cache.cache_info()
        assert info.evictions == 1
        hits_before = info.hits
        cache.get(toy_graph, "f", 0)  # A still cached
        assert cache.cache_info().hits == hits_before + 1
        misses_before = cache.cache_info().misses
        cache.get(toy_graph, "f", 1)  # B was evicted: a miss again
        assert cache.cache_info().misses == misses_before + 1

    def test_victim_is_least_recently_touched(self, toy_graph):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=2 * one)
        cache.get(toy_graph, "f", 0)
        cache.get(toy_graph, "f", 1)
        cache.get(toy_graph, "f", 0)  # 1 is now the least recently touched
        cache.get(toy_graph, "f", 2)
        assert [cache.contains(toy_graph, "f", v) for v in (0, 1, 2)] == [True, False, True]
        cache.get(toy_graph, "f", 3)  # then 0
        assert [cache.contains(toy_graph, "f", v) for v in (0, 2, 3)] == [False, True, True]

    def test_clear_then_refill_under_a_two_column_budget(self, toy_graph):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=2 * one)
        cache.get(toy_graph, "f", 0)
        cache.get(toy_graph, "f", 1)
        cache.clear()
        for node in (2, 3, 4):
            cache.get(toy_graph, "f", node)
        info = cache.cache_info()
        assert info.entries == 2
        assert info.current_bytes <= info.max_bytes
        assert [cache.contains(toy_graph, "f", v) for v in (3, 4)] == [True, True]

    def test_hit_returns_the_stored_array(self, toy_graph):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=2 * one)
        a = cache.get(toy_graph, "f", 3)
        b = cache.get(toy_graph, "f", 3)
        cache.get(toy_graph, "f", 4)
        cache.get(toy_graph, "f", 3)  # 4 is now the least recently touched
        cache.get(toy_graph, "f", 5)  # evicts 4, keeps 3
        assert a is b
        assert cache.get(toy_graph, "f", 3) is a

    def test_scan_of_one_hit_columns_evicts_the_hot_column(self, toy_graph):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=2 * one)
        for _ in range(6):
            cache.get(toy_graph, "f", 0)  # node 0 is hot
        for node in (1, 2, 3, 4, 5):
            cache.get(toy_graph, "f", node)  # recency alone decides
        assert not cache.contains(toy_graph, "f", 0)

    def test_one_get_many_over_budget_keeps_its_last_columns(self, toy_graph):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=2 * one)
        nodes = list(range(6))
        columns = cache.get_many(toy_graph, "f", nodes)
        expected = frank_batch(toy_graph, nodes, cache.alpha)
        assert len(columns) == 6
        for j, column in enumerate(columns):
            assert np.array_equal(column, expected[:, j])
        info = cache.cache_info()
        assert (info.misses, info.inserts, info.evictions) == (6, 6, 4)
        assert [cache.contains(toy_graph, "f", v) for v in nodes] == [False] * 4 + [True] * 2

    def test_contains_does_not_refresh_recency(self, toy_graph):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=2 * one)
        cache.get(toy_graph, "f", 0)
        cache.get(toy_graph, "f", 1)
        assert cache.contains(toy_graph, "f", 0)  # a probe, not a touch
        cache.get(toy_graph, "f", 2)
        assert not cache.contains(toy_graph, "f", 0)
        assert cache.contains(toy_graph, "f", 1)

    def test_hits_in_one_get_many_refresh_in_request_order(self, toy_graph):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=3 * one)
        cache.get_many(toy_graph, "f", [0, 1, 2])
        cache.get_many(toy_graph, "f", [2, 0])  # recency now 1, 2, 0
        cache.get(toy_graph, "f", 3)
        assert not cache.contains(toy_graph, "f", 1)
        cache.get(toy_graph, "f", 4)
        assert not cache.contains(toy_graph, "f", 2)
        assert [cache.contains(toy_graph, "f", v) for v in (0, 3, 4)] == [True] * 3

    def test_hit_evicted_later_in_the_same_call_is_still_returned(self, toy_graph):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=2 * one)
        first = cache.get(toy_graph, "f", 0)
        # 0 is a hit, then the inserts of 1 and 2 need its room.
        columns = cache.get_many(toy_graph, "f", [0, 1, 2])
        assert columns[0] is first
        assert not cache.contains(toy_graph, "f", 0)
        assert cache.cache_info().evictions == 1

    def test_f_and_t_columns_share_one_budget_and_one_order(self, toy_graph):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=2 * one)
        cache.get(toy_graph, "f", 0)
        cache.get(toy_graph, "t", 0)
        cache.get(toy_graph, "f", 1)
        assert not cache.contains(toy_graph, "f", 0)
        assert cache.contains(toy_graph, "t", 0) and cache.contains(toy_graph, "f", 1)

    def test_warm_touches_f_then_t(self, toy_graph):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=2 * one)
        cache.warm(toy_graph, [0])
        cache.warm(toy_graph, [1])  # f1 evicts f0, then t1 evicts t0
        stored = [(k, v) for k in ("f", "t") for v in (0, 1) if cache.contains(toy_graph, k, v)]
        assert stored == [("f", 1), ("t", 1)]
        assert cache.cache_info().evictions == 2

    def test_oversized_column_evicts_nothing(self, toy_graph, small_bibnet):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=2 * one)
        cache.get(toy_graph, "f", 0)
        cache.get(toy_graph, "f", 1)
        cache.get(small_bibnet.graph, "f", 0)  # larger than the whole budget
        info = cache.cache_info()
        assert (info.entries, info.evictions) == (2, 0)
        assert cache.contains(toy_graph, "f", 0) and cache.contains(toy_graph, "f", 1)

    def test_evicted_column_resolves_to_the_same_bits(self, toy_graph):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=one)
        before = cache.get(toy_graph, "t", 5)
        cache.get(toy_graph, "t", 6)  # evicts 5
        again = cache.get(toy_graph, "t", 5)
        assert again is not before
        assert np.array_equal(again, before)

    def test_cyclic_scan_wider_than_the_budget_never_hits(self, toy_graph):
        one = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=3 * one)
        for _ in range(3):
            for node in range(4):
                cache.get(toy_graph, "f", node)
        info = cache.cache_info()
        assert (info.hits, info.misses, info.evictions) == (0, 12, 9)

    def test_byte_budget_never_exceeded(self, toy_graph, small_bibnet):
        one_toy = self._column_bytes(toy_graph)
        cache = ColumnCache(max_bytes=3 * one_toy + 1)
        rng = np.random.default_rng(3)
        for node in rng.integers(0, toy_graph.n_nodes, size=60).tolist():
            cache.get(toy_graph, "f" if node % 2 else "t", int(node))
            info = cache.cache_info()
            assert info.current_bytes <= info.max_bytes
        # A column larger than the whole budget is served but not stored.
        big = cache.get(small_bibnet.graph, "f", 0)
        assert big.shape == (small_bibnet.graph.n_nodes,)
        info = cache.cache_info()
        assert info.current_bytes <= info.max_bytes

    def test_clear_resets_bytes_but_not_counters(self, toy_graph):
        cache = ColumnCache()
        cache.get(toy_graph, "f", 0)
        cache.clear()
        info = cache.cache_info()
        assert info.entries == 0 and info.current_bytes == 0
        assert info.misses == 1  # counters keep accumulating
        fresh = cache.get(toy_graph, "f", 0)
        assert fresh is not None
        assert cache.cache_info().misses == 2


class TestReplayCounts:
    """Exact hit counts of fixed query streams on QLog-60.

    No clock enters them: the stream and the cache's lookup and eviction
    order decide every hit, so a change to either moves these numbers.
    """

    def test_lru_hits_on_the_tenant_log(self, qlog_60, tenant_log):
        graph = qlog_60.graph
        assert np.unique(tenant_log.nodes).size == 119
        cache = ColumnCache(max_bytes=14 * graph.n_nodes * 8, alpha=0.25)
        for node in tenant_log.nodes.tolist():
            cache.get(graph, "f", node)
        info = cache.cache_info()
        assert (info.hits, info.misses, info.evictions) == (198, 302, 288)

    def test_zipf_stream_hits_without_eviction(self, qlog_60):
        stream = sample_zipf_queries(qlog_60.phrase_nodes, 150, s=1.1, seed=23)
        cache = ColumnCache(alpha=0.25)
        for node in stream.tolist():
            cache.get(qlog_60.graph, "f", node)
            cache.get(qlog_60.graph, "t", node)
        info = cache.cache_info()
        assert (info.hits, info.misses, info.evictions) == (178, 122, 0)


class TestWarmAndInfo:
    def test_warm_batches_then_hits(self, toy_graph):
        cache = ColumnCache()
        nodes = [0, 3, 7]
        cache.warm(toy_graph, nodes)
        info = cache.cache_info()
        assert info.entries == 2 * len(nodes)
        assert info.misses == 2 * len(nodes)
        cache.get(toy_graph, "f", 3)
        cache.get(toy_graph, "t", 7)
        assert cache.cache_info().hits == 2
        # warm results match per-column engine solves
        f = cache.get(toy_graph, "f", 0)
        assert np.allclose(f, frank_batch(toy_graph, [0], cache.alpha)[:, 0], atol=1e-10)

    def test_cache_info_snapshot(self, toy_graph):
        cache = ColumnCache(max_bytes=12345)
        info = cache.cache_info()
        assert isinstance(info, CacheInfo)
        assert info == CacheInfo(
            hits=0, misses=0, evictions=0, entries=0, current_bytes=0, max_bytes=12345
        )
        assert info.hit_rate == 0.0
        cache.get(toy_graph, "f", 0)
        cache.get(toy_graph, "f", 0)
        assert cache.cache_info().hit_rate == pytest.approx(0.5)

    def test_insert_counters_track_stored_traffic(self, toy_graph):
        cache = ColumnCache()
        one = toy_graph.n_nodes * 8
        cache.get(toy_graph, "f", 0)
        cache.get(toy_graph, "f", 0)  # hit: no insert
        cache.get_many(toy_graph, "t", [1, 2])
        info = cache.cache_info()
        assert info.inserts == 3
        assert info.inserted_bytes == 3 * one
        assert info.evicted_bytes == 0

    def test_eviction_counters_track_evicted_bytes(self, toy_graph):
        one = toy_graph.n_nodes * 8
        cache = ColumnCache(max_bytes=2 * one)
        for node in range(4):
            cache.get(toy_graph, "f", node)
        info = cache.cache_info()
        assert info.evictions == 2
        assert info.evicted_bytes == 2 * one
        assert info.inserts == 4
        assert info.inserted_bytes == 4 * one
        # Conservation: stored = inserted - evicted (nothing cleared).
        assert info.current_bytes == info.inserted_bytes - info.evicted_bytes

    def test_oversized_column_counts_no_insert(self, toy_graph):
        cache = ColumnCache(max_bytes=7)  # smaller than any column
        cache.get(toy_graph, "f", 0)
        info = cache.cache_info()
        assert info.inserts == 0
        assert info.inserted_bytes == 0
        assert info.entries == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            ColumnCache(max_bytes=0)


class TestConstructorValidation:
    """Bad settings fail at construction, not inside the first miss's flush."""

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            (dict(alpha=0.0), ValueError),
            (dict(alpha=1.0), ValueError),
            (dict(alpha=float("nan")), ValueError),
            (dict(tol=0.0), ValueError),
            (dict(tol=float("nan")), ValueError),
            (dict(tol=float("inf")), ValueError),
            (dict(max_iter=0), ValueError),
            (dict(max_iter=2.5), TypeError),
            (dict(max_bytes=2.5), TypeError),
            (dict(max_bytes=float("nan")), TypeError),
            (dict(method="lanczos"), ValueError),
            (dict(workers=-1), ValueError),
            (dict(workers=2.5), TypeError),
            (dict(workers="2"), TypeError),
        ],
    )
    def test_rejects_bad_solver_settings(self, kwargs, error):
        with pytest.raises(error):
            ColumnCache(**kwargs)

    def test_storage_is_float64_only(self, toy_graph):
        with pytest.raises(TypeError, match="dtype"):
            ColumnCache(dtype=np.float32)
        cache = ColumnCache()
        assert cache.get(toy_graph, "f", 0).dtype == np.float64
        assert cache.cache_info().current_bytes == toy_graph.n_nodes * 8

    @pytest.mark.parametrize("workers", [None, 0, 1, 2, np.int64(4)])
    def test_accepts_worker_counts(self, workers):
        cache = ColumnCache(workers=workers)
        assert cache.workers == workers
        assert cache.workers is None or type(cache.workers) is int

    def test_accepts_numpy_scalars(self):
        # Budgets computed with numpy arrive as numpy scalars.
        cache = ColumnCache(
            max_bytes=np.int64(4096),
            alpha=np.float32(0.25),
            tol=np.float64(1e-10),
            max_iter=np.int32(50),
        )
        assert (cache.max_bytes, cache.alpha, cache.max_iter) == (4096, 0.25, 50)


class TestThreadSafety:
    def test_concurrent_gets_are_consistent(self, toy_graph):
        cache = ColumnCache()
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for node in rng.integers(0, toy_graph.n_nodes, size=40).tolist():
                    column = cache.get(toy_graph, "f", int(node))
                    expected = frank_batch(toy_graph, [int(node)], cache.alpha)[:, 0]
                    if not np.allclose(column, expected, atol=1e-9):
                        errors.append(node)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,), daemon=True) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        info = cache.cache_info()
        assert info.hits + info.misses == 4 * 40

    def test_concurrent_get_warm_clear(self, toy_graph):
        """get / warm / clear racing from several threads: every returned
        column is correct, counters stay conserved, budget holds."""
        one = toy_graph.n_nodes * 8
        cache = ColumnCache(max_bytes=5 * one)
        expected = {
            node: frank_batch(toy_graph, [node], cache.alpha)[:, 0]
            for node in range(toy_graph.n_nodes)
        }
        errors = []
        barrier = threading.Barrier(6)

        def getter(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for node in rng.integers(0, toy_graph.n_nodes, size=60).tolist():
                    column = cache.get(toy_graph, "f", int(node))
                    if not np.allclose(column, expected[int(node)], atol=1e-9):
                        errors.append(("value", node))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def warmer(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for _ in range(12):
                    nodes = rng.integers(0, toy_graph.n_nodes, size=4).tolist()
                    cache.warm(toy_graph, [int(v) for v in nodes], kinds=("f",))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def clearer():
            barrier.wait()
            try:
                for _ in range(8):
                    cache.clear()
                    time.sleep(0.001)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = (
            [threading.Thread(target=getter, args=(s,), daemon=True) for s in range(3)]
            + [threading.Thread(target=warmer, args=(s,), daemon=True) for s in (7, 8)]
            + [threading.Thread(target=clearer, daemon=True)]
        )
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        info = cache.cache_info()
        assert info.current_bytes <= info.max_bytes
        # Accounting survived the races: stored bytes equal the per-entry sum.
        assert info.current_bytes == sum(c.nbytes for c in cache._store.values())
        assert info.inserted_bytes >= info.evicted_bytes + info.current_bytes
