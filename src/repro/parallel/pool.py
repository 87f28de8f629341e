"""Process-pool batch solver: column-sharded solves over a shared operator.

The batch engine (:mod:`repro.engine.batch`) is single-core: one multi-column
sweep saturates one CPU no matter how many queries it carries.  This module
shards a multi-query batch *column-wise* across worker processes:

- the CSR operator is published once into shared memory
  (:mod:`repro.parallel.shm`) and attached zero-copy by every worker — tasks
  carry only the shard's parsed teleport entries, never the graph;
- shard assignment reuses :class:`repro.distributed.striping.StripeMap`
  (round-robin over columns), which also balances convergence-heterogeneous
  columns across workers;
- workers run the exact sequential solver
  (:func:`repro.engine.batch.power_iteration_batch`) on their column shard.

Because the masked power iteration updates every column independently,
``method="power"`` results are **bit-exact** for any ``(workers, shard)``
split — ``workers=4`` equals ``workers=1`` equals the single-query solver,
bit for bit.  ``method="auto"`` verifies a float64 residual per column, so
shards agree to the solver tolerance (the Chebyshev stopping heuristics see
per-shard column maxima, hence bit-level differences are possible but bounded
by ``tol``).

Start method
------------
The pool always uses the ``spawn`` start method: ``fork`` is unsafe under
threaded BLAS and unavailable on Windows, and ``spawn`` keeps worker state
(operator attachments, float32 copies) explicit.  Workers inherit
``sys.path``, so ``PYTHONPATH=src`` setups work unchanged.

Crossover heuristic
-------------------
Dispatching to the pool costs task pickling and result shipping (one
``n x q/workers`` float64 array per shard), so tiny batches are faster
sequentially.  :func:`effective_workers` falls back to the sequential path
unless the batch has at least ``max(PARALLEL_MIN_QUERIES, 2 * workers)``
columns; ``workers=None``/``0``/``1`` always mean "sequential".  Every
decision of a ``workers=`` batch call, with the reason when it stays
sequential, is recorded for :func:`repro.parallel.active_route`.

Lifetime
--------
One module-level default pool is (re)created on demand and shared by every
caller; :func:`shutdown` tears it down and unlinks every published segment
(also registered via ``atexit`` and per-graph finalizers, so interpreter
exit and graph garbage collection clean up on their own).
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
import warnings
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.frank import ConvergenceWarning
from repro.core.queries import Query, normalize_query
from repro.distributed.striping import StripeMap
from repro.graph.digraph import DiGraph
from repro.parallel.rows import RouteReport, record_route
from repro.parallel.shm import CSRHandle, SharedCSR, attach_operator
from repro.utils.validation import check_in_range, check_positive

#: smallest batch worth sharding at all (see :func:`effective_workers`).
PARALLEL_MIN_QUERIES = 8

_OBS_POOL_TASKS = obs.counter(
    "repro_pool_tasks_total", "Tasks dispatched to the shared process pool."
)
_OBS_SHARD_COLUMNS = obs.histogram(
    "repro_pool_shard_columns",
    "Columns per shard task in parallel column solves.",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
)

#: spawn, not fork: fork deadlocks threaded BLAS and does not exist on
#: Windows; the CI matrix runs this on 3.10/3.11/3.12 unchanged.
_MP_CONTEXT = multiprocessing.get_context("spawn")


class PoolRetiredError(RuntimeError):
    """Raised by a retired :class:`WorkerPool` instead of resurrecting
    workers; :func:`_pool_submit` catches it and retries on the current
    default pool."""


# --------------------------------------------------------------------------- #
# Crossover heuristic
# --------------------------------------------------------------------------- #


def effective_workers(n_queries: int, workers: "int | None") -> int:
    """Shard count actually used for an ``n_queries``-column batch.

    Returns ``0`` when the batch should take the sequential path:
    ``workers`` is ``None``/``0``/``1``, or the batch is below the crossover
    ``max(PARALLEL_MIN_QUERIES, 2 * workers)`` (each shard must amortize its
    task overhead over at least two columns).  Never exceeds ``n_queries``.
    """
    if workers is None:
        return 0
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0 or None, got {workers}")
    if workers <= 1:
        return 0
    if n_queries < max(PARALLEL_MIN_QUERIES, 2 * workers):
        return 0
    return min(workers, n_queries)


# --------------------------------------------------------------------------- #
# The default pool
# --------------------------------------------------------------------------- #


class WorkerPool:
    """A lazily started ``spawn`` process pool with a fixed worker count."""

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        self._executor: "ProcessPoolExecutor | None" = None
        self._retired = False
        self._lock = threading.Lock()

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._retired:
                # A retired pool must never resurrect an executor: nothing
                # tracks it anymore, so its workers (and their shm
                # attachments) would leak until interpreter exit.
                raise PoolRetiredError(
                    "WorkerPool has been retired; call get_pool() for the current pool"
                )
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers, mp_context=_MP_CONTEXT
                )
            return self._executor

    def submit(self, fn, /, *args):
        """Submit one task, starting the worker processes on first use.

        Raises :class:`PoolRetiredError` on a retired pool — including the
        narrow race where retirement lands between ``_ensure`` and the
        executor's own submit (which then raises its shutdown
        ``RuntimeError``).
        """
        executor = self._ensure()
        try:
            return executor.submit(fn, *args)
        except RuntimeError:
            with self._lock:
                retired = self._retired
            if retired:
                raise PoolRetiredError(
                    "WorkerPool was retired during submit; retry on the current pool"
                ) from None
            raise

    def shutdown(self) -> None:
        """Stop the workers now (idempotent, terminal).

        Pending tasks are cancelled and the pool is dead afterwards; the
        module-level :func:`get_pool` hands out a fresh pool on the next
        parallel call.
        """
        with self._lock:
            self._retired = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def retire(self) -> None:
        """Stop accepting tasks but let queued/in-flight ones finish.

        Used when the default pool is grown while another thread may still
        hold futures on this pool: a hard ``shutdown`` would cancel its
        pending shards mid-solve.  Workers drain the queue and exit on
        their own; nothing blocks.  The pool is dead afterwards — a
        ``submit`` on it raises rather than silently spawning an untracked
        executor.
        """
        with self._lock:
            self._retired = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=False)


_pool_lock = threading.Lock()
_default_pool: "WorkerPool | None" = None


def get_pool(workers: int) -> WorkerPool:
    """The shared default pool, grown (never shrunk) to ``workers`` workers."""
    global _default_pool
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with _pool_lock:
        if _default_pool is None or _default_pool.max_workers < workers:
            old, _default_pool = _default_pool, WorkerPool(workers)
        else:
            old = None
    if old is not None:
        # Another thread may still be waiting on shard futures of the old
        # pool; retire (drain) it rather than cancelling its queue.
        old.retire()
    return _default_pool


def _discard_default_pool() -> None:
    global _default_pool
    with _pool_lock:
        pool, _default_pool = _default_pool, None
    if pool is not None:
        pool.shutdown()


def _pool_submit(workers: int, fn, /, *args):
    """Submit to the current default pool, riding out concurrent growth.

    If another thread grows the default pool mid-loop, the pool this caller
    held is retired (its queued futures still drain, but new submits raise
    :class:`PoolRetiredError`); simply resubmitting on the *current* pool is
    correct because shard tasks are stateless.  Growth is monotone in
    worker count, so the retry loop terminates.
    """
    while True:
        try:
            future = get_pool(workers).submit(fn, *args)
        except PoolRetiredError:
            continue
        _OBS_POOL_TASKS.inc()
        return future


# --------------------------------------------------------------------------- #
# Per-graph operator publication (parent side)
# --------------------------------------------------------------------------- #

_published: "weakref.WeakKeyDictionary[DiGraph, dict[bool, SharedCSR]]" = (
    weakref.WeakKeyDictionary()
)
_publish_lock = threading.Lock()


def shared_operator(graph: DiGraph, transpose: bool) -> CSRHandle:
    """Publish (once) and return the handle of ``graph``'s operator.

    ``transpose=True`` publishes ``P^T`` (the F-Rank operator),
    ``transpose=False`` publishes ``P`` itself (the T-Rank operator).  Both
    precision variants ship in one publication: the float64 CSR plus a
    float32 values segment (structure shared), so workers attach the
    accelerated-path operator zero-copy instead of each deriving a private
    float32 copy.  Publication is cached per ``(graph, transpose)``; a
    finalizer unlinks the segments when the graph is garbage collected or
    the interpreter exits.
    """
    from repro.ops import get_operator

    key = bool(transpose)
    with _publish_lock:
        per_graph = _published.get(graph)
        if per_graph is None:
            per_graph = {}
            _published[graph] = per_graph
        shared = per_graph.get(key)
        if shared is not None:
            return shared.handle
    # Prepare and copy outside the lock: publication is O(n_edges) (a full
    # CSR copy, plus a transpose on first use), and one global lock would
    # serialize cold starts of unrelated graphs across threads.
    top = get_operator(graph, transpose=transpose)
    candidate = SharedCSR.publish(
        top.matrix(np.float64), float32_data=top.matrix(np.float32).data
    )
    with _publish_lock:
        shared = per_graph.get(key)
        if shared is None:
            per_graph[key] = candidate
            weakref.finalize(graph, candidate.destroy)
            return candidate.handle
    candidate.destroy()  # lost a publish race; the winner's copy serves all
    return shared.handle


def published_segment_names() -> "set[str]":
    """Names of every segment the publish cache currently owns.

    Diagnostic: the sanitizer's per-module leak check subtracts these from
    :func:`repro.parallel.shm.live_segment_names` — cached publications
    legitimately outlive a test module (they are finalized with their
    graph), while any other live segment is a leak.
    """
    with _publish_lock:
        return {
            name
            for per_graph in _published.values()
            for shared in per_graph.values()
            for name in shared.segment_names()
        }


def _destroy_published() -> None:
    with _publish_lock:
        shared = [s for per_graph in _published.values() for s in per_graph.values()]
        _published.clear()
    for s in shared:
        s.destroy()


def shutdown() -> None:
    """Stop the default pool and unlink every published segment.

    Safe to call any number of times and at any point; the next parallel
    solve simply republishes and restarts workers.  Registered with
    ``atexit`` so a process that never calls it still exits clean.
    """
    _discard_default_pool()
    _destroy_published()


atexit.register(shutdown)


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #

#: most handles a worker keeps attached at once.  Each entry holds the
#: mapped segments plus the TransitionOperator and its variants, so an
#: unbounded cache would leak worker RSS across graphs — and keep unlinked
#: segments' pages alive — on long sweeps where every case has its own
#: graph (the eval edge-removal workloads).
_WORKER_CACHE_MAX = 8

#: per-worker LRU of attachments: handle -> (operator, segments).  A worker
#: runs one task at a time, so the entry in use is always most-recently-used
#: and never the one evicted.
_worker_cache: "OrderedDict[CSRHandle, tuple]" = OrderedDict()


def _worker_operator(handle: CSRHandle):
    """The shared-memory :class:`repro.ops.TransitionOperator` for ``handle``.

    Every derived object (the float32 variant — shared when the handle
    published a ``data32`` segment, derived otherwise — plus damped copies)
    rides the operator, which rides the LRU entry, so eviction drops it all
    together with the mapped segments.
    """
    entry = _worker_cache.get(handle)
    if entry is None:
        entry = attach_operator(handle)
        _worker_cache[handle] = entry
        while len(_worker_cache) > _WORKER_CACHE_MAX:
            # Only the segments outlive this line: the evicted operator (and
            # its arrays over the mapped buffers) is dropped before unmapping.
            segments = _worker_cache.popitem(last=False)[1][1]
            for shm in segments:
                shm.close()
    else:
        _worker_cache.move_to_end(handle)
    return entry[0]


def _solve_shard(
    handle: CSRHandle,
    teleport_nodes: "list[np.ndarray]",
    teleport_weights: "list[np.ndarray]",
    alpha: float,
    tol: float,
    max_iter: int,
    method: str,
) -> "tuple[np.ndarray, list[str]]":
    """Solve one column shard in a worker; returns ``(columns, warnings)``.

    Runs exactly :func:`repro.engine.batch.power_iteration_batch` on the
    shard's teleport stack, against the shared-memory
    :class:`~repro.ops.TransitionOperator` (float32 variant included, so the
    accelerated path never copies the operator).  Convergence warnings
    cannot cross the process boundary, so their messages are captured and
    re-issued by the parent.
    """
    from repro.engine.batch import power_iteration_batch

    operator = _worker_operator(handle)
    n_nodes = handle.shape[0]
    s = np.zeros((n_nodes, len(teleport_nodes)))
    for j, (nodes, wts) in enumerate(zip(teleport_nodes, teleport_weights)):
        s[nodes, j] = wts
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x = power_iteration_batch(
            operator,
            s,
            alpha,
            tol=tol,
            max_iter=max_iter,
            warn_on_nonconvergence=True,
            method=method,
        )
    messages = [
        str(w.message) for w in caught if issubclass(w.category, ConvergenceWarning)
    ]
    return x, messages


def _raise_for_tests() -> None:  # pragma: no cover - runs in workers
    """Deliberately crash inside a worker (cleanup tests only)."""
    raise RuntimeError("intentional worker failure (repro.parallel test hook)")


# --------------------------------------------------------------------------- #
# Parent-side solve entry points
# --------------------------------------------------------------------------- #


def solve_columns_parallel(
    graph: DiGraph,
    parsed: "list[tuple[np.ndarray, np.ndarray]]",
    transpose: bool,
    alpha: float,
    tol: float,
    max_iter: int,
    warn_on_nonconvergence: bool,
    method: str,
    n_shards: int,
) -> np.ndarray:
    """Solve pre-parsed teleport columns across ``n_shards`` pool workers.

    ``parsed[j]`` is the ``(nodes, weights)`` teleport of column ``j`` (the
    output of :func:`repro.core.queries.normalize_query`).  Columns are
    striped over shards round-robin via :class:`StripeMap` and reassembled
    in place, so the result is column-for-column what the sequential solver
    returns (bit-exact with ``method="power"``).
    """
    alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False)
    check_positive(tol, "tol")
    if max_iter <= 0:
        raise ValueError(f"max_iter must be > 0, got {max_iter}")
    if method not in ("auto", "power"):
        raise ValueError(f"method must be 'auto' or 'power', got {method!r}")
    n_queries = len(parsed)
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    handle = shared_operator(graph, transpose)
    stripe = StripeMap(n_queries, n_shards)
    shards = []
    try:
        with obs.span("parallel.columns", queries=n_queries, shards=n_shards):
            for shard_id in range(n_shards):
                cols = stripe.owned_nodes(shard_id)
                if cols.size == 0:
                    continue
                _OBS_SHARD_COLUMNS.observe(float(cols.size))
                future = _pool_submit(
                    n_shards,
                    _solve_shard,
                    handle,
                    [parsed[j][0] for j in cols],
                    [parsed[j][1] for j in cols],
                    alpha,
                    tol,
                    max_iter,
                    method,
                )
                shards.append((cols, future))
            x = np.empty((graph.n_nodes, n_queries))
            messages: "list[str]" = []
            for cols, future in shards:
                shard_x, shard_messages = future.result()
                x[:, cols] = shard_x
                messages.extend(shard_messages)
    except BrokenProcessPool:
        # A worker died hard (OOM, signal): drop the broken executor so the
        # next parallel call starts a fresh pool instead of failing forever.
        _discard_default_pool()
        raise
    if warn_on_nonconvergence and messages:
        warnings.warn(
            f"{len(messages)} of {n_shards} shards reported non-convergence: "
            + " | ".join(messages),
            ConvergenceWarning,
            stacklevel=2,
        )
    return x


def maybe_solve_batch_parallel(
    graph: DiGraph,
    queries: Sequence[Query],
    transpose: bool,
    alpha: float,
    tol: float,
    max_iter: int,
    warn_on_nonconvergence: bool,
    method: str,
    workers: "int | None",
) -> "np.ndarray | None":
    """Pool dispatch for ``frank_batch``/``trank_batch``-shaped calls.

    Returns ``None`` when the crossover heuristic picks the sequential path
    (the caller then runs its normal single-process solve); otherwise the
    assembled ``n x q`` result.  Either way the decision is recorded for
    :func:`repro.parallel.active_route`.
    """
    n_shards = effective_workers(len(queries), workers)
    if n_shards == 0:
        if workers is not None and int(workers) > 1:
            crossover = max(PARALLEL_MIN_QUERIES, 2 * int(workers))
            reason = (
                f"batch of {len(queries)} is below the column-pool crossover "
                f"max(PARALLEL_MIN_QUERIES, 2 * workers) = {crossover}"
            )
        else:
            reason = f"workers={workers!r} selects the sequential path"
        record_route(RouteReport(False, 0, reason))
        return None
    record_route(RouteReport(True, n_shards, None))
    parsed = [normalize_query(graph, query) for query in queries]
    return solve_columns_parallel(
        graph,
        parsed,
        transpose,
        alpha,
        tol,
        max_iter,
        warn_on_nonconvergence,
        method,
        n_shards,
    )
