"""Micro-batching scheduler: queue queries, solve them as one batch.

The batch engine is 3-7x cheaper per query than sequential solves, but only
when queries actually arrive as a batch.  :class:`MicroBatcher` supplies the
missing assembly layer: callers :meth:`~MicroBatcher.submit` individual
queries and receive :class:`concurrent.futures.Future` objects.  A query
whose columns are all in the attached cache has nothing to solve, so it is
served at submit (the **resident trigger**): :meth:`~MicroBatcher.submit`
flushes it alone, in the submitting thread, and returns its future already
resolved.  Every other query joins the pending queue, which is flushed as
*one* multi-column solve when either

- the **size trigger** fires — ``max_batch`` queries are pending (flushed
  inline in the submitting thread), or
- the **deadline trigger** fires — the oldest pending query has waited
  ``max_delay`` seconds (flushed by the background thread started with
  :meth:`~MicroBatcher.start` / the context manager), or
- the caller forces it with :meth:`~MicroBatcher.flush` (synchronous use;
  :meth:`~MicroBatcher.ask` is the one-call convenience wrapper, which
  degenerates to a single-query solve when nothing else is queued).

Only queued queries count toward :attr:`~MicroBatcher.pending`, the depth
the gateway's admission control bounds; a resident query is never queued.

Results are full score vectors, or top-k ``(indices, scores)`` pairs for
requests submitted with ``k`` (see :func:`repro.serving.topk.topk_select`).
When a :class:`repro.serving.cache.ColumnCache` is attached, each flush
reuses cached per-node F/T columns and solves only the genuinely new nodes
— the cache and the batcher compound.  A resident query runs the same
flush on a batch of one, so its bits are those of any flush that serves it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.frank import DEFAULT_ALPHA
from repro.core.queries import Query, normalize_query
from repro.core.roundtrip_plus import DEFAULT_BETA
from repro.engine.batch import (
    combine_columns,
    frank_batch,
    measure_kinds,
    normalize_columns,
    roundtriprank_batch,
    roundtriprank_plus_batch,
    trank_batch,
)
from repro.graph.digraph import DiGraph
from repro.serving.cache import ColumnCache
from repro.serving.topk import topk_select
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_positive_int,
    check_probability,
)

_CLOSED = "MicroBatcher is closed; create a new instance to submit queries"

_OBS_FLUSHES = obs.counter(
    "repro_batcher_flushes_total", "MicroBatcher flushes", labels=("trigger",)
)
_OBS_WAKEUPS = obs.counter(
    "repro_batcher_wakeups_total", "Deadline-loop iterations across all batchers"
)


@dataclass
class _Request:
    """One pending query with its parsed form and result future."""

    query: Query
    nodes: np.ndarray
    weights: np.ndarray
    k: "int | None"
    future: Future
    enqueued_at: float
    # Enqueue-time span context: the flush (which may run on the deadline
    # thread) parents its span here so the whole solve joins the submitting
    # query's trace.
    trace: "obs.SpanContext | None" = None


@dataclass
class BatcherStats:
    """Counters describing how queries were assembled into solves.

    Scalars only: a lane that lives as long as its gateway flushes without
    bound, so nothing here may grow per flush.
    """

    n_submitted: int = 0
    n_flushes: int = 0
    n_size_flushes: int = 0
    n_deadline_flushes: int = 0
    n_flushed: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.n_flushed / self.n_flushes if self.n_flushes else 0.0


class MicroBatcher:
    """Accumulate queries and flush them through one batched solve.

    Parameters
    ----------
    graph:
        The graph every query runs on.
    measure:
        ``"roundtriprank"`` (default), ``"roundtriprank_plus"``, ``"frank"``
        or ``"trank"`` — which score vector a flush computes per query.
    alpha, beta, normalize, tol, max_iter, method:
        Solver configuration, matching the batch-engine functions.
    max_batch:
        Size trigger: a submit that brings the queue to this size flushes
        inline.  A positive integer.
    max_delay:
        Deadline trigger (seconds, finite and > 0): with the background
        thread running, no queued query waits longer than ~``max_delay``
        before its solve starts.
    cache:
        Optional :class:`ColumnCache`; flushes then solve only uncached
        query nodes and memoize the new columns, and a query whose columns
        are all cached is served at submit.  Column solves follow the
        *cache's* solver configuration (its ``tol`` / ``max_iter`` /
        ``method`` / ``workers``), not this batcher's — the cache key
        contract requires all entries of one cache to be mutually
        consistent, so a cache shared between batchers cannot honor
        per-batcher solver settings.  This batcher's solver arguments apply
        only when ``cache`` is None.
    workers:
        Shard each flush's multi-column solve across that many
        :mod:`repro.parallel` threads; small flushes fall back to the
        sequential solver via the crossover heuristic
        (:func:`repro.parallel.effective_workers`), so the shards only kick
        in when a flush is big enough to amortize them.  Applies to the
        uncached path; with a cache attached, set ``workers`` on the cache.

    Lifecycle
    ---------
    ``start()``/``stop()`` pause and resume the background deadline thread;
    a stopped batcher still serves the synchronous ``submit``/``flush``/
    ``ask`` path and may be started again.  ``close()`` is terminal and
    idempotent: it stops the thread, flushes (resolving every outstanding
    future), and permanently rejects new work — ``submit``/``ask`` raise
    ``RuntimeError``, as does ``start()``.  The context manager form closes
    on exit.

    Thread safety: ``submit`` / ``flush`` / ``ask`` may be called from any
    number of threads.  The queue is guarded by one lock; solves run outside
    it, so submissions keep queueing for the *next* batch while one is being
    solved, and a resident query is served without holding it.  Futures are
    resolved exactly once; solver errors are delivered through
    ``future.set_exception`` to every query of the failed batch.
    """

    def __init__(
        self,
        graph: DiGraph,
        measure: str = "roundtriprank",
        alpha: float = DEFAULT_ALPHA,
        beta: float = DEFAULT_BETA,
        normalize: bool = True,
        max_batch: int = 32,
        max_delay: float = 0.01,
        cache: "ColumnCache | None" = None,
        tol: float = 1e-12,
        max_iter: int = 1000,
        method: str = "auto",
        workers: "int | None" = None,
    ) -> None:
        self._kinds = measure_kinds(measure)  # the per-node columns it reads
        self.graph = graph
        self.measure = measure
        # Checked here, or every flush of this batcher would fail.
        self.alpha = check_in_range(
            alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False
        )
        self.beta = check_probability(beta, "beta")
        self.normalize = normalize
        # A NaN deadline would spin the deadline thread and an infinite one
        # would kill it: both are rejected here, not at the first submit.
        self.max_batch = check_positive_int(max_batch, "max_batch")
        self.max_delay = check_positive(max_delay, "max_delay")
        self.cache = cache
        self.tol = tol
        self.max_iter = max_iter
        self.method = method
        self.workers = workers
        self.stats = BatcherStats()
        self._pending: "list[_Request]" = []
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._thread: "threading.Thread | None" = None
        self._stopping = False
        self._closed = False
        # Deadline-loop iterations since start(); an *idle* batcher parks on
        # the condition without timeout, so this stays at 1 while nothing is
        # queued — asserted by tests as the no-polling contract.
        self._loop_wakeups = 0

    # ------------------------------------------------------------------ #
    # Submission API
    # ------------------------------------------------------------------ #

    def submit(
        self,
        query: Query,
        k: "int | None" = None,
        parsed: "tuple[np.ndarray, np.ndarray] | None" = None,
        trace: "obs.SpanContext | None" = None,
    ) -> Future:
        """Submit one query; returns a future resolving to its scores.

        The future's result is the full score vector, or an
        ``(indices, scores)`` top-``k`` pair when ``k`` is given.  A query
        whose columns are all cached is :meth:`resident`: it is served by
        :meth:`serve_resident` before this returns, so its future is
        already done.  Any other query is queued (:meth:`enqueue`) for the
        size, deadline or explicit flush.

        Invalid queries and a ``k`` that is not a positive integer raise
        here (synchronously), never through the future; submitting to a
        closed batcher raises ``RuntimeError``.  ``parsed`` lets a caller
        that already ran :func:`normalize_query` on this graph's ``query``
        (the gateway validates before admission) pass the ``(nodes,
        weights)`` pair instead of paying a second parse.  ``trace``
        attaches a span context so the flush that eventually solves this
        query joins the caller's trace (defaults to the current span of the
        submitting thread).
        """
        if parsed is None:
            parsed = normalize_query(self.graph, query)
        if not self.resident(parsed[0]):
            return self.enqueue(query, k, parsed, trace)
        if self.closed:
            raise RuntimeError(_CLOSED)
        return self.serve_resident(query, k, parsed, trace)

    def resident(self, nodes: np.ndarray) -> bool:
        """Whether the cache holds every column a query on ``nodes`` reads.

        A counter-free probe (:meth:`ColumnCache.contains`): it moves no
        hit or miss count and no recency, so the flush that reads the
        columns counts them exactly as a queued flush would.  Always False
        without a cache.
        """
        cache = self.cache
        return cache is not None and all(
            cache.contains(self.graph, kind, node, self.alpha)
            for kind in self._kinds
            for node in np.asarray(nodes).tolist()
        )

    def enqueue(
        self,
        query: Query,
        k: "int | None" = None,
        parsed: "tuple[np.ndarray, np.ndarray] | None" = None,
        trace: "obs.SpanContext | None" = None,
    ) -> Future:
        """Queue one query for the next flush, whatever the cache holds.

        Takes :meth:`submit`'s arguments and raises as it does.  A query
        that brings the queue to ``max_batch`` runs the size-trigger flush
        inline, in the calling thread, before this returns.
        """
        request = self._request(query, k, parsed, trace)
        with self._lock:
            if self._closed:
                raise RuntimeError(_CLOSED)
            self._pending.append(request)
            self.stats.n_submitted += 1
            size_trigger = len(self._pending) >= self.max_batch
            batch = self._drain() if size_trigger else None
            self._wakeup.notify_all()
        if batch:
            self._solve(batch, trigger="size")
        return request.future

    def serve_resident(
        self,
        query: Query,
        k: "int | None" = None,
        parsed: "tuple[np.ndarray, np.ndarray] | None" = None,
        trace: "obs.SpanContext | None" = None,
    ) -> Future:
        """Flush one query alone, now, in the calling thread.

        The resident trigger: the query never enters the queue, and its
        future is resolved when this returns.  It runs the flush every
        trigger runs, on a batch of one, so ``cache.get_many`` counts its
        hits and the result bits equal any flush's.  Meant for a query
        :meth:`resident` just accepted; a column evicted since that probe
        is re-solved here.  Takes :meth:`submit`'s arguments and raises on
        the same invalid input, but not on a closed batcher: a query that
        is never queued cannot be stranded by :meth:`close`.
        """
        request = self._request(query, k, parsed, trace)
        with self._lock:
            self.stats.n_submitted += 1
        self._solve([request], trigger="resident")
        return request.future

    def _request(
        self,
        query: Query,
        k: "int | None",
        parsed: "tuple[np.ndarray, np.ndarray] | None",
        trace: "obs.SpanContext | None",
    ) -> _Request:
        """Validate one query into a request with a fresh future."""
        if parsed is None:
            parsed = normalize_query(self.graph, query)
        nodes, weights = parsed
        if k is not None:
            # A float k would pass a range check, then fail inside topk_select
            # and poison every other request of its flush.
            k = check_positive_int(k, "k")
        return _Request(
            query=query,
            nodes=nodes,
            weights=weights,
            k=k,
            future=Future(),
            enqueued_at=time.monotonic(),
            trace=obs.current_context() if trace is None else trace,
        )

    def flush(self) -> int:
        """Solve everything pending right now; returns the batch size."""
        with self._lock:
            batch = self._drain()
        if batch:
            self._solve(batch, trigger="flush")
        return len(batch)

    def ask(self, query: Query, k: "int | None" = None):
        """Submit one query and resolve it immediately (synchronous path).

        A resident query is served by its submit.  Otherwise, with an empty
        queue this is the single-query fallback: the flush solves a
        one-column batch.  Anything else already queued rides along in the
        same solve (or, after a resident submit, is flushed on its own).
        """
        future = self.submit(query, k)
        self.flush()
        return future.result()

    # ------------------------------------------------------------------ #
    # Deadline thread
    # ------------------------------------------------------------------ #

    def start(self) -> "MicroBatcher":
        """Start the background deadline-flush thread (idempotent).

        Raises ``RuntimeError`` on a closed batcher: the close contract
        promises no future is ever created after :meth:`close` resolved the
        outstanding ones, so a closed batcher cannot come back to life.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "MicroBatcher is closed and cannot be restarted; create a new instance"
                )
            if self._thread is not None:
                return self
            self._stopping = False
            self._thread = threading.Thread(
                target=self._deadline_loop, name="microbatcher-deadline", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Pause the deadline thread, flushing whatever is still queued.

        Every future submitted *before* ``stop()`` was called is resolved by
        the time it returns.  A submit racing ``stop()`` (or arriving after
        it) lands in paused-mode sync use: it is served by the next
        ``flush()``, size trigger, or ``start()`` — the same contract as any
        submit to a never-started batcher.  Use :meth:`close` for a terminal
        shutdown that rejects such stragglers outright.
        """
        with self._lock:
            thread = self._thread
            self._thread = None
            self._stopping = True
            self._wakeup.notify_all()
        if thread is not None:
            thread.join()
        with self._lock:
            self._stopping = False
        # Last action on purpose: resolves everything submitted before the
        # pause, narrowing the race window for concurrent submits to the
        # post-stop (explicitly paused) state.
        self.flush()

    def close(self) -> None:
        """Terminal shutdown: stop the thread, flush, reject further work.

        Idempotent.  The closed flag is set *before* the final flush, so no
        concurrent ``submit`` can slip a request in after the flush that
        resolves the last futures — nothing is ever enqueued into a dead
        batcher.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.stop()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._lock:
            return self._closed

    @property
    def pending(self) -> int:
        """Queries queued but not yet drained into a solve.

        The gateway's admission control reads this as the per-lane queue
        depth; it is a point-in-time snapshot (the queue may drain or grow
        the instant the lock is released).  Resident queries are never
        queued, so they never count here.
        """
        with self._lock:
            return len(self._pending)

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _deadline_loop(self) -> None:
        # Idle contract (audited): with an empty queue this thread blocks in
        # the *untimed* ``wait()`` below — no timeout, no periodic wakeup, no
        # solve.  It consumes zero CPU until a submit notifies the condition;
        # timed waits happen only while a request is pending (to meet its
        # deadline).  ``_loop_wakeups`` counts passes through this loop so
        # tests can assert an idle batcher truly never spins.
        while True:
            with self._lock:
                self._loop_wakeups += 1
                _OBS_WAKEUPS.inc()
                while not self._pending and not self._stopping:
                    self._wakeup.wait()
                if self._stopping:
                    return
                deadline = self._pending[0].enqueued_at + self.max_delay
                remaining = deadline - time.monotonic()
                if remaining > 0:
                    self._wakeup.wait(timeout=remaining)
                # Re-check under the same lock hold: a size flush may have
                # emptied the queue while we slept.
                batch = []
                if self._pending and (
                    self._pending[0].enqueued_at + self.max_delay <= time.monotonic()
                    or self._stopping
                ):
                    batch = self._drain()
            if batch:
                self._solve(batch, trigger="deadline")

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #

    def _drain(self) -> "list[_Request]":
        """Take ownership of the pending queue (call with the lock held)."""
        batch, self._pending = self._pending, []
        return batch

    def _solve(self, batch: "list[_Request]", trigger: str) -> None:
        with self._lock:  # stats share the queue lock: counters stay exact
            self.stats.n_flushes += 1
            self.stats.n_flushed += len(batch)
            if trigger == "size":
                self.stats.n_size_flushes += 1
            elif trigger == "deadline":
                self.stats.n_deadline_flushes += 1
        _OBS_FLUSHES.inc(trigger=trigger)
        # Parent the flush on the first traced request: a flush may run on
        # the deadline thread, where context propagation cannot reach.
        ctx = next((r.trace for r in batch if r.trace is not None), None)
        try:
            with obs.span(
                "batcher.flush",
                parent=ctx,
                trigger=trigger,
                batch=len(batch),
                measure=self.measure,
            ):
                scores = self._score_columns(batch)
            for j, request in enumerate(batch):
                if request.k is None:
                    result = np.ascontiguousarray(scores[:, j])
                else:
                    result = topk_select(scores[:, j], request.k)
                request.future.set_result(result)
        except BaseException as exc:  # noqa: B036 - delivered through every future
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)

    def _score_columns(self, batch: "list[_Request]") -> np.ndarray:
        queries = [request.query for request in batch]
        if self.cache is None:
            solver_kwargs = dict(
                tol=self.tol,
                max_iter=self.max_iter,
                method=self.method,
                workers=self.workers,
            )
            if self.measure == "frank":
                return frank_batch(self.graph, queries, self.alpha, **solver_kwargs)
            if self.measure == "trank":
                return trank_batch(self.graph, queries, self.alpha, **solver_kwargs)
            if self.measure == "roundtriprank":
                return roundtriprank_batch(
                    self.graph, queries, self.alpha, self.normalize, **solver_kwargs
                )
            return roundtriprank_plus_batch(
                self.graph, queries, self.beta, self.alpha, **solver_kwargs
            )
        return self._score_columns_cached(batch)

    def _score_columns_cached(self, batch: "list[_Request]") -> np.ndarray:
        """Combine cached per-node columns; solve only the uncached nodes.

        Every measure served here is a function of per-node F/T columns
        (linearity for F/T, Proposition 2 / Eq. 12 for the round-trip
        measures), so the cache's single-node columns are fully general.
        """
        cache = self.cache
        assert cache is not None
        union = sorted({int(v) for request in batch for v in request.nodes})
        columns = {
            kind: np.stack(cache.get_many(self.graph, kind, union, self.alpha), axis=1)
            for kind in self._kinds
        }
        parsed = [(request.nodes, request.weights) for request in batch]
        scores = combine_columns(
            self.measure, columns.get("f"), columns.get("t"), union, parsed, self.beta
        )
        if self.measure == "roundtriprank" and self.normalize:
            scores = normalize_columns(scores, "MicroBatcher(roundtriprank)")
        return scores
