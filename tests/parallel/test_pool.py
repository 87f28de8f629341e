"""Tests for the column shards: crossover heuristic, warnings, failures, spans."""

import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro import obs
from repro.core.frank import DEFAULT_ALPHA, ConvergenceWarning
from repro.core.queries import normalize_query
from repro.datasets import toy_bibliographic_graph
from repro.distributed.striping import StripeMap
from repro.engine import (
    frank_batch,
    power_iteration_batch,
    roundtriprank_batch,
    stack_teleports,
    trank_batch,
)
from repro.ops import get_operator
from repro.parallel import pool
from repro.parallel.pool import (
    PARALLEL_MIN_QUERIES,
    effective_workers,
    solve_columns_parallel,
)
from repro.parallel.rows import active_route
from repro.serving import MicroBatcher


def _no_shard(*args):
    pytest.fail("a shard was dispatched")


def _live_threads():
    return {t for t in threading.enumerate() if t.is_alive()}


def _parsed(graph, count):
    return [normalize_query(graph, q) for q in range(count)]


def _spy_shards(monkeypatch, before=None):
    """Wrap ``_solve_shard``; returns the list of ``(thread, top, teleports)``
    each shard ran with.  ``before(teleports)`` runs first on the shard's
    thread (to block or raise)."""
    real = pool._solve_shard
    calls = []
    lock = threading.Lock()

    def spy(top, teleports, *args):
        with lock:
            calls.append((threading.get_ident(), top, teleports))
        if before is not None:
            before(teleports)
        return real(top, teleports, *args)

    monkeypatch.setattr(pool, "_solve_shard", spy)
    return calls


def _stripe_reference(graph, queries, transpose, workers):
    """The engine's own solve on each StripeMap stripe, reassembled."""
    teleports = stack_teleports(graph, queries)
    stripes = StripeMap(len(queries), workers)
    x = np.empty_like(teleports)
    for shard in range(workers):
        cols = stripes.owned_nodes(shard)
        x[:, cols] = power_iteration_batch(
            get_operator(graph, transpose), teleports[:, cols], DEFAULT_ALPHA
        )
    return x


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
    def test_non_finite_tol_rejected_before_dispatch(self, toy_graph, tol, monkeypatch):
        monkeypatch.setattr(pool, "_solve_shard", _no_shard)
        parsed = [normalize_query(toy_graph, q) for q in range(PARALLEL_MIN_QUERIES)]
        with pytest.raises(ValueError, match="tol must be finite"):
            solve_columns_parallel(toy_graph, parsed, True, 0.25, tol, 100, "power", 2)

    def test_crossover_routes_small_batch_sequentially(self, toy_graph, monkeypatch):
        # Below the crossover no shard runs: the workers= call must be
        # exactly the sequential path.
        monkeypatch.setattr(pool, "_solve_shard", _no_shard)
        small = frank_batch(toy_graph, [0, 1, 2], workers=4)
        assert np.array_equal(small, frank_batch(toy_graph, [0, 1, 2]))


class TestShardArguments:
    @pytest.mark.parametrize(
        "override, match",
        [
            ({"alpha": 0.0}, "alpha"),
            ({"alpha": 1.0}, "alpha"),
            ({"max_iter": 0}, "max_iter"),
            ({"method": "local"}, "method"),
            ({"n_shards": 0}, "n_shards"),
        ],
        ids=["alpha-zero", "alpha-one", "max-iter-zero", "method-local", "no-shards"],
    )
    def test_rejected_before_any_thread_starts(self, toy_graph, monkeypatch, override, match):
        monkeypatch.setattr(pool, "_solve_shard", _no_shard)
        kwargs = {"alpha": 0.25, "tol": 1e-12, "max_iter": 100, "method": "power", "n_shards": 2}
        kwargs.update(override)
        parsed = _parsed(toy_graph, PARALLEL_MIN_QUERIES)
        before = _live_threads()
        with pytest.raises(ValueError, match=match):
            solve_columns_parallel(toy_graph, parsed, True, **kwargs)
        assert _live_threads() <= before


class TestShardThreads:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_shards_run_at_once_on_their_own_threads(self, toy_graph, monkeypatch, workers):
        # Every shard waits for all the others: a serial dispatch would
        # break the barrier instead of passing it.
        barrier = threading.Barrier(workers, timeout=10)
        calls = _spy_shards(monkeypatch, before=lambda teleports: barrier.wait())
        got = frank_batch(toy_graph, list(range(12)), method="power", workers=workers)
        threads = {thread for thread, _, _ in calls}
        assert len(calls) == workers
        assert len(threads) == workers
        assert threading.get_ident() not in threads
        assert np.array_equal(got, frank_batch(toy_graph, list(range(12)), method="power"))

    @pytest.mark.parametrize("fails", [False, True], ids=["solved", "raised"])
    def test_no_thread_outlives_the_call(self, toy_graph, monkeypatch, fails):
        def maybe_raise(teleports):
            if fails and int(teleports[0][0][0]) == 0:
                raise RuntimeError("shard failure")

        _spy_shards(monkeypatch, before=maybe_raise)
        before = _live_threads()
        if fails:
            with pytest.raises(RuntimeError, match="shard failure"):
                frank_batch(toy_graph, list(range(12)), workers=4)
        else:
            frank_batch(toy_graph, list(range(12)), workers=4)
        assert _live_threads() <= before

    def test_an_error_surfaces_only_after_every_shard_finished(self, toy_graph, monkeypatch):
        raised = threading.Event()
        finished = []

        def stripe_zero_raises(teleports):
            if int(teleports[0][0][0]) == 0:
                raised.set()
                raise RuntimeError("shard failure")
            # The other stripe is still solving when stripe 0's error is in.
            assert raised.wait(timeout=10)
            time.sleep(0.05)
            finished.append(True)

        _spy_shards(monkeypatch, before=stripe_zero_raises)
        with pytest.raises(RuntimeError, match="shard failure"):
            frank_batch(toy_graph, list(range(12)), workers=2)
        assert finished == [True]

    def test_the_lowest_failing_stripe_names_the_error(self, toy_graph, monkeypatch):
        def every_stripe_raises(teleports):
            stripe = int(teleports[0][0][0])  # column j is query node j
            if stripe == 0:
                time.sleep(0.05)  # stripe 0 fails last
            raise RuntimeError(f"stripe {stripe} failed")

        _spy_shards(monkeypatch, before=every_stripe_raises)
        with pytest.raises(RuntimeError, match="stripe 0 failed"):
            solve_columns_parallel(
                toy_graph, _parsed(toy_graph, 12), True, 0.25, 1e-12, 100, "power", 4
            )

    @pytest.mark.parametrize("solver, transpose", [(frank_batch, True), (trank_batch, False)])
    def test_shards_share_the_graphs_cached_operator(
        self, toy_graph, monkeypatch, solver, transpose
    ):
        calls = _spy_shards(monkeypatch)
        solver(toy_graph, list(range(12)), workers=3)
        assert len(calls) == 3
        for _, top, _ in calls:
            assert top is get_operator(toy_graph, transpose)

    def test_each_shard_receives_its_stripe_in_order(self, toy_graph, monkeypatch):
        calls = _spy_shards(monkeypatch)
        parsed = _parsed(toy_graph, 11)
        solve_columns_parallel(toy_graph, parsed, True, 0.25, 1e-12, 100, "power", 3)
        got = sorted([id(nodes) for nodes, _ in teleports] for _, _, teleports in calls)
        stripes = StripeMap(len(parsed), 3)
        want = sorted(
            [id(parsed[j][0]) for j in stripes.owned_nodes(shard)] for shard in range(3)
        )
        assert got == want

    @pytest.mark.parametrize("n_shards", [1, 2, 5, 7])
    def test_any_shard_count_reassembles_the_sequential_columns(
        self, toy_graph, monkeypatch, n_shards
    ):
        # Direct calls bypass the crossover: one shard, and more shards than
        # columns (the empty stripes are not dispatched), are legal.
        calls = _spy_shards(monkeypatch)
        parsed = _parsed(toy_graph, 5)
        got, _, _ = solve_columns_parallel(
            toy_graph, parsed, True, DEFAULT_ALPHA, 1e-12, 1000, "power", n_shards
        )
        assert len(calls) == min(n_shards, 5)
        want = power_iteration_batch(
            get_operator(toy_graph, True),
            stack_teleports(toy_graph, list(range(5))),
            DEFAULT_ALPHA,
            method="power",
        )
        assert np.array_equal(got, want)

    def test_concurrent_callers_each_get_their_own_shards(self, small_bibnet):
        graph = small_bibnet.graph
        batches = [list(range(start, start + 16)) for start in (0, 40, 80)]
        want = [frank_batch(graph, queries, method="power") for queries in batches]
        got = [None] * len(batches)
        barrier = threading.Barrier(len(batches), timeout=10)

        def caller(i):
            barrier.wait()
            got[i] = frank_batch(graph, batches[i], method="power", workers=2)

        callers = [
            threading.Thread(target=caller, args=(i,), daemon=True) for i in range(len(batches))
        ]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
        for w, g in zip(want, got):
            assert g is not None
            assert np.array_equal(w, g)


def _convergence_warnings(solver, graph, **kwargs):
    """``(text, filename)`` of each ConvergenceWarning the call issues."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solver(graph, list(range(12)), method="power", max_iter=2, **kwargs)
    return [(str(w.message), w.filename) for w in caught if w.category is ConvergenceWarning]


class TestShardWarnings:
    def test_one_warning_with_the_sequential_text(self, toy_graph):
        sequential = _convergence_warnings(frank_batch, toy_graph)
        sharded = _convergence_warnings(frank_batch, toy_graph, workers=2)
        assert active_route().shards == 2
        assert len(sequential) == 1
        assert sharded == sequential

    @pytest.mark.parametrize("workers", [None, 2])
    def test_the_warning_comes_from_the_batch_engine(self, toy_graph, workers):
        # Both paths warn from the engine's module, so a module filter
        # treats them alike.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warnings.filterwarnings(
                "error", category=ConvergenceWarning, module=r"repro\.engine\.batch$"
            )
            with pytest.raises(ConvergenceWarning):
                frank_batch(toy_graph, list(range(12)), method="power", max_iter=2, workers=workers)

    @pytest.mark.parametrize("solver", [trank_batch, roundtriprank_batch])
    def test_other_batch_solvers_warn_as_their_sequential_path(self, toy_graph, solver):
        sequential = _convergence_warnings(solver, toy_graph)
        sharded = _convergence_warnings(solver, toy_graph, workers=4)
        assert active_route().shards == 4
        assert sequential
        assert sharded == sequential

    @pytest.mark.parametrize("method", ["auto", "power"])
    def test_converged_shards_stay_silent(self, toy_graph, method):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            frank_batch(toy_graph, list(range(12)), method=method, workers=2)
        assert active_route().shards == 2


class TestShardFailure:
    def test_raising_shard_fails_every_future_and_next_flush_succeeds(self, toy_graph, monkeypatch):
        real = pool._solve_shard
        failing = [True]

        def flaky(top, teleports, *args):
            # Stripe 0 owns column 0, the batch's first (sorted) query node.
            if failing[0] and int(teleports[0][0][0]) == 0:
                raise RuntimeError("shard failure")
            return real(top, teleports, *args)

        monkeypatch.setattr(pool, "_solve_shard", flaky)
        batcher = MicroBatcher(toy_graph, method="power", workers=2)
        queries = list(range(toy_graph.n_nodes))
        futures = [batcher.submit(q) for q in queries]
        batcher.flush()
        assert active_route().shards == 2
        for future in futures:
            with pytest.raises(RuntimeError, match="shard failure"):
                future.result(timeout=0)

        failing[0] = False
        futures = [batcher.submit(q) for q in queries]
        batcher.flush()
        plain = MicroBatcher(toy_graph, method="power")
        want = [plain.submit(q) for q in queries]
        plain.flush()
        for w, g in zip(want, futures):
            assert np.array_equal(w.result(timeout=0), g.result(timeout=0))


def _traced(call):
    """Run ``call`` with tracing on; returns ``(its exception, the spans)``."""
    obs.clear_spans()
    obs.enable()
    error = None
    try:
        call()
    except Exception as exc:  # the caller asserts on it
        error = exc
    finally:
        spans = obs.spans()
        obs.disable()
        obs.clear_spans()
    return error, spans


class TestShardSpans:
    def test_every_shard_solve_is_a_child_of_the_columns_span(self, toy_graph):
        obs.clear_spans()
        obs.enable()
        try:
            frank_batch(toy_graph, list(range(12)), method="power", workers=4)
            spans = obs.spans()
        finally:
            obs.disable()
            obs.clear_spans()
        (columns,) = [s for s in spans if s.name == "parallel.columns"]
        solves = [s for s in spans if s.name == "engine.solve"]
        assert len(solves) == 4
        assert {s.parent_id for s in solves} == {columns.span_id}
        assert {s.trace_id for s in solves} == {columns.trace_id}

    def test_columns_span_counts_the_batch_and_each_solve_its_stripe(self, toy_graph):
        error, spans = _traced(lambda: frank_batch(toy_graph, list(range(11)), workers=3))
        assert error is None
        (columns,) = [s for s in spans if s.name == "parallel.columns"]
        assert columns.attributes["queries"] == 11
        assert columns.attributes["shards"] == 3
        stripes = sorted(s.attributes["queries"] for s in spans if s.name == "engine.solve")
        assert stripes == [3, 4, 4]

    def test_columns_span_nests_under_the_callers_span(self, toy_graph):
        def call():
            with obs.span("caller"):
                frank_batch(toy_graph, list(range(12)), workers=2)

        error, spans = _traced(call)
        assert error is None
        (caller,) = [s for s in spans if s.name == "caller"]
        (columns,) = [s for s in spans if s.name == "parallel.columns"]
        solves = [s for s in spans if s.name == "engine.solve"]
        assert columns.parent_id == caller.span_id
        assert len(solves) == 2
        assert {s.parent_id for s in solves} == {columns.span_id}
        assert {s.trace_id for s in [columns, *solves]} == {caller.trace_id}

    def test_a_failing_shard_marks_the_columns_span(self, toy_graph, monkeypatch):
        def stripe_zero_raises(teleports):
            if int(teleports[0][0][0]) == 0:
                raise RuntimeError("shard failure")

        _spy_shards(monkeypatch, before=stripe_zero_raises)
        error, spans = _traced(lambda: frank_batch(toy_graph, list(range(12)), workers=2))
        assert isinstance(error, RuntimeError)
        (columns,) = [s for s in spans if s.name == "parallel.columns"]
        assert columns.attributes["error"] == "RuntimeError"
        # The surviving stripe still solved, under the same parent.
        (solve,) = [s for s in spans if s.name == "engine.solve"]
        assert solve.parent_id == columns.span_id
        assert "error" not in solve.attributes


class TestShardBits:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("solver, transpose", [(frank_batch, True), (trank_batch, False)])
    def test_auto_equals_the_engine_on_each_stripe(self, small_bibnet, solver, transpose, workers):
        graph = small_bibnet.graph
        rng = np.random.default_rng(5)
        queries = [int(q) for q in rng.choice(graph.n_nodes, size=16, replace=False)]
        got = solver(graph, queries, workers=workers)
        assert active_route().shards == workers
        assert np.array_equal(got, _stripe_reference(graph, queries, transpose, workers))


class TestShardStress:
    def test_more_shards_than_cores_on_a_cold_operator(self):
        # Eight shards on a fresh graph each round, switching threads every
        # microsecond: the shards derive the cold operator's float32 and
        # damped variants concurrently and write disjoint result columns.
        queries = list(range(12)) + [0, 3, 6, 9]
        want = _stripe_reference(toy_bibliographic_graph(), queries, True, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                graph = toy_bibliographic_graph()
                got = frank_batch(graph, queries, workers=8)
                assert active_route().shards == 8
                assert np.array_equal(got, want)
                assert len(get_operator(graph, True)._damped) == 1
        finally:
            sys.setswitchinterval(interval)
