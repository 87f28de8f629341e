"""The engine's block split: a batch of more than 32 columns is solved as
near-equal contiguous column blocks at once, one per usable core.

The contract under test: the split is a throughput choice, never a result
choice.  ``method="power"`` columns equal their one-column solves bit for
bit at every width, ``method="auto"`` bytes do not depend on the core
count, every thread is joined before the call returns, and a failing block
fails the call once, after every block has finished.
"""

import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro import obs
from repro.core import ConvergenceWarning, frank_vector, trank_vector
from repro.datasets import toy_bibliographic_graph
from repro.engine import batch, frank_batch, power_iteration_batch, stack_teleports, trank_batch
from repro.gateway import RankGateway
from repro.ops import TransitionOperator, get_operator
from repro.parallel import RouteReport, active_route
from repro.serving import ColumnCache

ALPHA = 0.25
TOL = 1e-12
WIDTHS = [1, 31, 32, 33, 64, 65]


def _live_threads():
    return {t for t in threading.enumerate() if t.is_alive()}


def _queries(graph, width, seed=7):
    """``width`` query nodes drawn with replacement (duplicates included)."""
    rng = np.random.default_rng(seed + width)
    return [int(v) for v in rng.integers(0, graph.n_nodes, size=width)]


def _cores(monkeypatch, count):
    monkeypatch.setattr(batch, "_usable_cores", lambda: count)


def _spy_blocks(monkeypatch, before=None, operators=None):
    """Wrap ``_solve_block``; returns the ``(thread, width)`` of each block
    solved (and appends its operator to ``operators``).  ``before(teleports)``
    runs first on the block's thread."""
    real = batch._solve_block
    calls = []
    lock = threading.Lock()

    def spy(top, teleports, *args):
        with lock:
            calls.append((threading.get_ident(), teleports.shape[1]))
            if operators is not None:
                operators.append(top)
        if before is not None:
            before(teleports)
        return real(top, teleports, *args)

    monkeypatch.setattr(batch, "_solve_block", spy)
    return calls


def _marked_teleports(graph, n_blocks):
    """``32 * n_blocks`` teleport columns, which split into ``n_blocks``
    blocks of 32; every column of block ``b`` starts at node ``b``, so a
    block's first nonzero names it."""
    s = np.zeros((graph.n_nodes, 32 * n_blocks))
    for j in range(s.shape[1]):
        s[j // 32, j] = 1.0
    return s


def _block_id(teleports):
    return int(np.flatnonzero(teleports[:, 0])[0])


@pytest.fixture(params=["toy", "bibnet-300"])
def graph(request, toy_graph, small_bibnet):
    return toy_graph if request.param == "toy" else small_bibnet.graph


class TestWidths:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize(
        "solver, single", [(frank_batch, frank_vector), (trank_batch, trank_vector)]
    )
    def test_power_columns_equal_their_one_column_solves(self, graph, width, solver, single):
        queries = _queries(graph, width)
        got = solver(graph, queries, ALPHA, method="power")
        for j, query in enumerate(queries):
            assert np.array_equal(got[:, j], single(graph, query, ALPHA)), j

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("solver", [frank_batch, trank_batch])
    def test_auto_bytes_do_not_depend_on_the_core_count(self, graph, monkeypatch, width, solver):
        queries = _queries(graph, width)
        outputs = []
        for cores in (1, 2, 8):
            _cores(monkeypatch, cores)
            outputs.append(solver(graph, queries, ALPHA).tobytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("method", ["auto", "power"])
    @pytest.mark.parametrize("transpose", [True, False], ids=["f", "t"])
    def test_every_residual_is_below_tol(self, graph, width, method, transpose):
        teleports = stack_teleports(graph, _queries(graph, width))
        top = get_operator(graph, transpose)
        x, norms, _ = batch.solve_columns(top, teleports, ALPHA, TOL, 1000, method)
        assert x.shape == teleports.shape
        assert norms.shape == (width,)
        assert (norms < TOL).all()

    @pytest.mark.parametrize("method", ["auto", "power"])
    def test_width_zero_returns_without_a_sweep(self, graph, monkeypatch, method):
        def no_sweeps(*args, **kwargs):
            raise AssertionError("a zero-width solve must not sweep")

        monkeypatch.setattr(TransitionOperator, "matmat", no_sweeps)
        calls = _spy_blocks(monkeypatch)
        before = _live_threads()
        x = power_iteration_batch(
            get_operator(graph, True), np.zeros((graph.n_nodes, 0)), ALPHA, method=method
        )
        assert x.shape == (graph.n_nodes, 0)
        assert calls == [(threading.get_ident(), 0)]
        assert _live_threads() <= before

    @pytest.mark.parametrize(
        "width, blocks", [(32, [32]), (33, [16, 17]), (64, [32, 32]), (65, [21, 22, 22])]
    )
    def test_blocks_are_near_equal_and_contiguous(self, toy_graph, monkeypatch, width, blocks):
        _cores(monkeypatch, 1)  # one thread: the blocks run in order
        calls = _spy_blocks(monkeypatch)
        frank_batch(toy_graph, _queries(toy_graph, width), method="power")
        assert [block_width for _, block_width in calls] == blocks


class TestRoute:
    def test_a_split_is_recorded(self, toy_graph, monkeypatch):
        _cores(monkeypatch, 2)
        frank_batch(toy_graph, _queries(toy_graph, 65))
        route = active_route()
        assert route == RouteReport(columns=65, blocks=3, threads=2)
        assert route.reason == "65 columns in 3 blocks on 2 threads"

    def test_threads_never_exceed_the_blocks(self, toy_graph, monkeypatch):
        _cores(monkeypatch, 8)
        trank_batch(toy_graph, _queries(toy_graph, 40))
        assert active_route() == RouteReport(columns=40, blocks=2, threads=2)

    def test_a_batch_of_32_is_not_split(self, toy_graph):
        frank_batch(toy_graph, _queries(toy_graph, 33))
        recorded = active_route()
        frank_batch(toy_graph, _queries(toy_graph, 32))
        assert active_route() is recorded


class TestThreads:
    @pytest.mark.parametrize("cores, width", [(2, 64), (3, 96)])
    def test_blocks_run_at_once_one_on_the_calling_thread(
        self, toy_graph, monkeypatch, cores, width
    ):
        # Every block waits for all the others: a serial run would break
        # the barrier instead of passing it.
        queries = _queries(toy_graph, width)
        want = np.column_stack([frank_vector(toy_graph, q, ALPHA) for q in queries])
        _cores(monkeypatch, cores)
        barrier = threading.Barrier(cores, timeout=10)
        calls = _spy_blocks(monkeypatch, before=lambda teleports: barrier.wait())
        got = frank_batch(toy_graph, queries, method="power")
        threads = {thread for thread, _ in calls}
        assert len(calls) == cores
        assert len(threads) == cores
        assert threading.get_ident() in threads
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("fails", [False, True], ids=["solved", "raised"])
    def test_no_thread_outlives_the_call(self, toy_graph, monkeypatch, fails):
        def maybe_raise(teleports):
            if fails and _block_id(teleports) == 1:
                raise RuntimeError("block failure")

        _cores(monkeypatch, 2)
        _spy_blocks(monkeypatch, before=maybe_raise)
        top = get_operator(toy_graph, True)
        before = _live_threads()
        if fails:
            with pytest.raises(RuntimeError, match="block failure"):
                power_iteration_batch(top, _marked_teleports(toy_graph, 3), ALPHA)
        else:
            power_iteration_batch(top, _marked_teleports(toy_graph, 3), ALPHA)
        assert _live_threads() <= before

    def test_an_error_surfaces_only_after_every_block_finished(self, toy_graph, monkeypatch):
        raised = threading.Event()
        finished = []

        def block_zero_raises(teleports):
            if _block_id(teleports) == 0:
                raised.set()
                raise RuntimeError("block failure")
            # Block 1 is still solving when block 0's error is in.
            assert raised.wait(timeout=10)
            time.sleep(0.05)
            finished.append(True)

        _cores(monkeypatch, 2)
        _spy_blocks(monkeypatch, before=block_zero_raises)
        top = get_operator(toy_graph, True)
        with pytest.raises(RuntimeError, match="block failure"):
            power_iteration_batch(top, _marked_teleports(toy_graph, 2), ALPHA)
        assert finished == [True]

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_the_lowest_failing_block_names_the_error(self, toy_graph, monkeypatch, cores):
        def every_block_raises(teleports):
            block = _block_id(teleports)
            if block == 0:
                time.sleep(0.05)  # block 0 fails last
            raise RuntimeError(f"block {block} failed")

        _cores(monkeypatch, cores)
        _spy_blocks(monkeypatch, before=every_block_raises)
        top = get_operator(toy_graph, True)
        with pytest.raises(RuntimeError, match="block 0 failed"):
            power_iteration_batch(top, _marked_teleports(toy_graph, 4), ALPHA, method="power")

    @pytest.mark.parametrize("solver, transpose", [(frank_batch, True), (trank_batch, False)])
    def test_blocks_share_the_graphs_cached_operator(
        self, toy_graph, monkeypatch, solver, transpose
    ):
        _cores(monkeypatch, 2)
        operators = []
        _spy_blocks(monkeypatch, operators=operators)
        solver(toy_graph, _queries(toy_graph, 65))
        assert len(operators) == 3
        assert all(top is get_operator(toy_graph, transpose) for top in operators)

    def test_a_failing_block_fails_every_future_of_its_flush(self, small_bibnet, monkeypatch):
        # One gateway flush of 40 misses is a split F solve: a raising block
        # fails every future of the flush, caches nothing, and the next
        # flush solves the same queries.
        graph = small_bibnet.graph
        queries = [int(v) for v in small_bibnet.paper_nodes[:40]]
        failing = [True]
        caller = threading.get_ident()

        def helper_block_raises(teleports):
            if failing[0] and threading.get_ident() != caller:
                raise RuntimeError("block failure")

        _cores(monkeypatch, 2)
        _spy_blocks(monkeypatch, before=helper_block_raises)
        gateway = RankGateway(graph, cache=ColumnCache(method="power"), max_batch=1000)
        futures = [gateway.submit(q) for q in queries]
        assert gateway.flush_all() == len(queries)
        for future in futures:
            with pytest.raises(RuntimeError, match="block failure"):
                future.result(timeout=0)
        assert gateway.cache.cache_info().entries == 0

        failing[0] = False
        futures = [gateway.submit(q) for q in queries]
        assert gateway.flush_all() == len(queries)
        plain = RankGateway(graph, cache=ColumnCache(method="power"))
        for query, future in zip(queries, futures):
            assert np.array_equal(future.result(timeout=0), plain.ask(query))
        gateway.close()
        plain.close()

    def test_concurrent_callers_each_get_their_own_blocks(self, small_bibnet, monkeypatch):
        _cores(monkeypatch, 2)
        graph = small_bibnet.graph
        batches = [list(range(start, start + 40)) for start in (0, 50, 100)]
        want = [frank_batch(graph, queries, method="power") for queries in batches]
        got = [None] * len(batches)
        barrier = threading.Barrier(len(batches), timeout=10)

        def caller(i):
            barrier.wait()
            got[i] = frank_batch(graph, batches[i], method="power")

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

    def test_more_blocks_than_cores_on_a_cold_operator(self, monkeypatch):
        # Eight blocks on eight threads on a fresh graph each round,
        # switching threads every microsecond: the blocks derive the cold
        # operator's float32 and damped variants concurrently.
        queries = list(range(12)) * 21 + [0, 3, 6, 9]  # 256 columns
        _cores(monkeypatch, 1)
        want = frank_batch(toy_bibliographic_graph(), queries)
        _cores(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                graph = toy_bibliographic_graph()
                got = frank_batch(graph, queries)
                assert active_route() == RouteReport(columns=256, blocks=8, threads=8)
                assert np.array_equal(got, want)
                assert len(get_operator(graph, True)._damped) == 1
        finally:
            sys.setswitchinterval(interval)


class TestBadArguments:
    @pytest.mark.parametrize(
        "override, error, match",
        [
            ({"alpha": 0.0}, ValueError, "alpha"),
            ({"alpha": 1.0}, ValueError, "alpha"),
            ({"tol": float("nan")}, ValueError, "tol must be finite"),
            ({"max_iter": 0}, ValueError, "max_iter must be > 0"),
            ({"method": "local"}, ValueError, "method"),
        ],
        ids=["alpha-zero", "alpha-one", "tol-nan", "max-iter-zero", "method"],
    )
    def test_rejected_before_any_thread_starts(
        self, toy_graph, monkeypatch, override, error, match
    ):
        calls = _spy_blocks(monkeypatch)
        kwargs = {"alpha": ALPHA, "tol": TOL, "max_iter": 100, "method": "power"}
        kwargs.update(override)
        before = _live_threads()
        with pytest.raises(error, match=match):
            power_iteration_batch(
                get_operator(toy_graph, True), _marked_teleports(toy_graph, 3), **kwargs
            )
        assert calls == []
        assert _live_threads() <= before

    @pytest.mark.parametrize("max_iter", [float("nan"), float("inf"), 2.5, "10"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda g, m: frank_batch(g, list(range(12)) * 3, max_iter=m, method="power"),
            lambda g, m: power_iteration_batch(
                get_operator(g, True), stack_teleports(g, list(range(12)) * 3), ALPHA, max_iter=m
            ),
            lambda g, m: frank_vector(g, 0, max_iter=m),
        ],
        ids=["frank_batch", "power_iteration_batch", "frank_vector"],
    )
    def test_max_iter_must_be_a_positive_integer(self, toy_graph, monkeypatch, call, max_iter):
        # Unchecked, NaN ran no sweep and returned ``alpha * teleports``
        # with a "did not converge in 0 sweeps" warning, and 2.5 ran 3.
        def no_sweeps(*args, **kwargs):
            raise AssertionError("a rejected max_iter must not sweep")

        monkeypatch.setattr(TransitionOperator, "matmat", no_sweeps)
        before = _live_threads()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            with pytest.raises(TypeError, match="max_iter must be an integer"):
                call(toy_graph, max_iter)
        assert _live_threads() <= before


class TestOneWarning:
    @pytest.mark.parametrize("solver", [frank_batch, trank_batch])
    def test_one_warning_for_every_block(self, toy_graph, monkeypatch, solver):
        _cores(monkeypatch, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solver(toy_graph, _queries(toy_graph, 65), method="power", max_iter=2)
        (warning,) = [w for w in caught if w.category is ConvergenceWarning]
        assert "65 of 65 batch columns did not converge in 2 sweeps" in str(warning.message)
        assert warning.filename.endswith("batch.py")

    def test_the_warning_comes_from_the_batch_engine(self, toy_graph, monkeypatch):
        # A module filter catches the split batch's one warning.
        _cores(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warnings.filterwarnings(
                "error", category=ConvergenceWarning, module=r"repro\.engine\.batch$"
            )
            with pytest.raises(ConvergenceWarning):
                frank_batch(toy_graph, _queries(toy_graph, 64), method="power", max_iter=2)

    @pytest.mark.parametrize("method", ["auto", "power"])
    def test_converged_blocks_stay_silent(self, toy_graph, monkeypatch, method):
        _cores(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            frank_batch(toy_graph, _queries(toy_graph, 64), method=method)


class TestSpans:
    @pytest.mark.parametrize("width, blocks", [(1, 1), (32, 1), (33, 2), (65, 3)])
    def test_one_solve_span_counts_the_blocks(self, toy_graph, obs_enabled, width, blocks):
        frank_batch(toy_graph, _queries(toy_graph, width))
        spans = obs.spans()
        (solve,) = [s for s in spans if s.name == "engine.solve"]
        assert solve.attributes["queries"] == width
        assert solve.attributes["blocks"] == blocks
        assert solve.attributes["residual"] < TOL
        assert not [s for s in spans if s.name == "parallel.columns"]

    def test_the_solve_span_nests_under_the_callers_span(self, toy_graph, obs_enabled):
        with obs.span("caller"):
            trank_batch(toy_graph, _queries(toy_graph, 64))
        spans = obs.spans()
        (caller,) = [s for s in spans if s.name == "caller"]
        (solve,) = [s for s in spans if s.name == "engine.solve"]
        assert solve.parent_id == caller.span_id
        assert solve.trace_id == caller.trace_id
