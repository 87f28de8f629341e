"""The gateway's micro-batching lane: queue queries, solve them as one batch.

The batch engine is 3-7x cheaper per query than sequential solves, but only
when queries actually arrive as a batch.  A :class:`Lane` is that assembly
layer for one ``(graph, measure, alpha)`` of a
:class:`repro.gateway.RankGateway`, the only code that builds one.  The
gateway admits each query, then hands it to the lane.  A query whose
columns are all in the shared cache has nothing to solve, so it is served at
once (the **resident trigger**): :meth:`~Lane.serve_resident` flushes it
alone, in the submitting thread.  Every other query joins the lane's queue
(:meth:`~Lane.enqueue`), which is flushed as *one* multi-column solve when
either

- the **size trigger** fires — ``max_batch`` queries are pending (flushed
  inline in the submitting thread), or
- the **deadline trigger** fires — the oldest pending query has waited
  ``max_delay`` seconds (flushed by the lane's ``microbatcher-deadline``
  thread, started with :meth:`~Lane.start`), or
- the caller forces it with :meth:`~Lane.flush`.

At the gateway's default ``max_delay`` of 0 a query has met its deadline
when it arrives, and a started lane runs one deadline flush at a time.  A
query that finds the lane free claims that flush (:meth:`~Lane.claim`) and
is never queued: :meth:`~Lane.serve_claimed` flushes it alone in the
submitting thread, as a resident query is, so a lone miss is solved with no
handoff to the lane's thread.  Queries that arrive while a flush runs are
queued and leave together in the thread's next flush: batches form under
load, with no timer.

Only queued queries count toward :attr:`~Lane.pending`, the depth the
gateway's admission control bounds; a resident or claimed query is never
queued.

Results are full score vectors, or top-k ``(indices, scores)`` pairs for
requests with ``k`` (see :func:`repro.serving.topk.topk_select`).  Every
flush reads per-node F/T columns through the gateway's shared
:class:`repro.serving.cache.ColumnCache` and solves only the nodes it does
not hold.  A resident query runs the same flush on a batch of one, so its
bits are those of any flush that serves it.  Flushes are counted in the
obs registry: ``repro_batcher_flushes_total{trigger}`` per flush and
``repro_batcher_wakeups_total`` per pass of a deadline loop.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.engine.batch import combine_columns, measure_kinds, normalize_columns
from repro.graph.digraph import DiGraph
from repro.serving.cache import ColumnCache
from repro.serving.topk import topk_select

_OBS_FLUSHES = obs.counter(
    "repro_batcher_flushes_total", "Gateway lane flushes", labels=("trigger",)
)
_OBS_WAKEUPS = obs.counter(
    "repro_batcher_wakeups_total", "Deadline-loop iterations across all lanes"
)


@dataclass
class _Request:
    """One pending query with its parsed form and result future."""

    nodes: np.ndarray
    weights: np.ndarray
    k: "int | None"
    future: Future
    enqueued_at: float
    # Enqueue-time span context: the flush (which may run on the deadline
    # thread) parents its span here so the whole solve joins the submitting
    # query's trace.
    trace: "obs.SpanContext | None"


class Lane:
    """One ``(graph, measure, alpha)`` lane of a gateway.

    ``RankGateway._lane`` builds it after checking every argument, and
    ``RankGateway.submit`` parses and checks each query (and its ``k``)
    before handing it over, so the lane checks nothing again.

    ``admission_lock`` is held by the gateway across its depth check and
    :meth:`claim` or :meth:`enqueue`, which makes the depth bound hard (a
    claimed query is served after the lock is released), and by :meth:`close`
    while it sets the closed flag, so a query is never queued into a closed
    lane.  The queue has a lock of its own; solves run outside it, so
    submissions keep queueing for the *next* batch while one is being
    solved.  Futures are resolved exactly once; a solver error is delivered
    through ``future.set_exception`` to every query of the failed flush.
    """

    def __init__(
        self,
        graph: DiGraph,
        measure: str,
        alpha: float,
        beta: float,
        max_batch: int,
        max_delay: float,
        cache: ColumnCache,
    ) -> None:
        self._kinds = measure_kinds(measure)  # the per-node columns it reads
        self.graph = graph
        self.measure = measure
        self.alpha = alpha
        self.beta = beta
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.cache = cache
        self.admission_lock = threading.Lock()
        self._pending: "list[_Request]" = []
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._thread: "threading.Thread | None" = None
        # A deadline flush is running: the thread's own, or one a submitter
        # claimed at linger 0.  While it is set, queries queue for the next.
        self._busy = False
        self._closed = False

    def resident(self, nodes: np.ndarray) -> bool:
        """Whether the cache holds every column a query on ``nodes`` reads.

        A counter-free probe (:meth:`ColumnCache.contains`): it moves no
        hit or miss count and no recency, so the flush that reads the
        columns counts them exactly as a queued flush would.
        """
        return all(
            self.cache.contains(self.graph, kind, node, self.alpha)
            for kind in self._kinds
            for node in np.asarray(nodes).tolist()
        )

    def enqueue(
        self,
        nodes: np.ndarray,
        weights: np.ndarray,
        k: "int | None",
        trace: "obs.SpanContext | None",
    ) -> Future:
        """Queue one parsed query for the next flush; returns its future.

        A query that brings the queue to ``max_batch`` runs the size-trigger
        flush inline, in the calling thread, before this returns.
        """
        request = _Request(nodes, weights, k, Future(), time.monotonic(), trace)
        with self._lock:
            if self._closed:
                raise RuntimeError("lane is closed; its futures were flushed")
            self._pending.append(request)
            batch = self._drain() if len(self._pending) >= self.max_batch else None
            self._wakeup.notify_all()
        if batch:
            self._solve(batch, trigger="size")
        return request.future

    def serve_resident(
        self,
        nodes: np.ndarray,
        weights: np.ndarray,
        k: "int | None",
        trace: "obs.SpanContext | None",
    ) -> Future:
        """Flush one parsed query alone, now, in the calling thread.

        The resident trigger: the query never enters the queue, and its
        future is resolved when this returns.  It runs the flush every
        trigger runs, on a batch of one, so ``cache.get_many`` counts its
        hits and the result bits equal any flush's.  Meant for a query
        :meth:`resident` just accepted; a column evicted since that probe
        is re-solved here.  A closed lane serves it too: a query that is
        never queued cannot be stranded by :meth:`close`.
        """
        request = _Request(nodes, weights, k, Future(), time.monotonic(), trace)
        self._solve([request], trigger="resident")
        return request.future

    def claim(self) -> bool:
        """Take the next deadline flush for the calling thread, if it is free.

        Only at ``max_delay`` 0, on a started lane with no flush of the
        thread's or of another claim running and nothing queued.  A claim
        must be followed by :meth:`serve_claimed`; until that returns,
        queries queue for the thread's next flush.
        """
        with self._lock:
            if self.max_delay > 0 or self._thread is None or self._busy or self._pending:
                return False
            self._busy = True
            return True

    def serve_claimed(
        self,
        nodes: np.ndarray,
        weights: np.ndarray,
        k: "int | None",
        trace: "obs.SpanContext | None",
    ) -> Future:
        """Flush one parsed query alone, now, in the calling thread, after a
        successful :meth:`claim`; then hand the lane back to its thread.

        The deadline trigger at linger 0, run where the query arrived: its
        future is resolved when this returns, and queries queued meanwhile
        leave together in the thread's next flush.
        """
        request = _Request(nodes, weights, k, Future(), time.monotonic(), trace)
        try:
            self._solve([request], trigger="deadline")
        finally:
            self._release()
        return request.future

    def flush(self) -> int:
        """Solve everything pending right now; returns the batch size."""
        with self._lock:
            batch = self._drain()
        if batch:
            self._solve(batch, trigger="flush")
        return len(batch)

    def start(self) -> None:
        """Start the deadline-flush thread; a no-op once started or closed."""
        with self._lock:
            if self._closed or self._thread is not None:
                return
            self._thread = threading.Thread(
                target=self._deadline_loop, name="microbatcher-deadline", daemon=True
            )
            self._thread.start()

    def close(self) -> None:
        """Terminal and idempotent: stop the thread, then flush the queue.

        The closed flag is set under the admission lock, before the final
        flush: a submit that takes the lock afterwards sees it and picks
        another lane, so no query is queued after the flush that resolves
        the last futures.
        """
        with self.admission_lock, self._lock:
            if self._closed:
                return
            self._closed = True
            thread, self._thread = self._thread, None
            self._wakeup.notify_all()
        if thread is not None:
            thread.join()
        self.flush()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def pending(self) -> int:
        """Queries queued but not yet drained into a solve.

        A point-in-time snapshot: the queue may drain or grow the instant
        the lock is released.  Resident queries are never queued.
        """
        with self._lock:
            return len(self._pending)

    def _deadline_loop(self) -> None:
        # Idle contract: with an empty queue this thread blocks in the
        # *untimed* ``wait()`` below — no timeout, no periodic wakeup, no
        # solve.  Timed waits happen only while a request is pending (to
        # meet its deadline), and never at ``max_delay`` 0.  A claimed flush
        # (``_busy``, only at 0) holds the queue until it ends and wakes us.
        # ``repro_batcher_wakeups_total`` counts passes through this loop,
        # so tests can assert an idle lane never spins.
        while True:
            with self._lock:
                _OBS_WAKEUPS.inc()
                while (not self._pending or self._busy) and not self._closed:
                    self._wakeup.wait()
                if self._closed:
                    return
                remaining = self._pending[0].enqueued_at + self.max_delay - time.monotonic()
                if remaining > 0:
                    self._wakeup.wait(timeout=remaining)
                # Re-check under the same lock hold: a size flush may have
                # emptied the queue while we slept.
                batch = []
                if self._pending and (
                    self._pending[0].enqueued_at + self.max_delay <= time.monotonic()
                    or self._closed
                ):
                    batch = self._drain()
                    self._busy = True
            if batch:
                try:
                    self._solve(batch, trigger="deadline")
                finally:
                    self._release()

    def _release(self) -> None:
        """End a deadline flush; wake the thread for what queued meanwhile."""
        with self._lock:
            self._busy = False
            if self._pending:
                self._wakeup.notify_all()

    def _drain(self) -> "list[_Request]":
        """Take ownership of the pending queue (call with the lock held)."""
        batch, self._pending = self._pending, []
        return batch

    def _solve(self, batch: "list[_Request]", trigger: str) -> None:
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
        """Combine cached per-node columns; solve only the uncached nodes.

        Every measure served here is a function of per-node F/T columns
        (linearity for F/T, Proposition 2 / Eq. 12 for the round-trip
        measures), so the cache's single-node columns are fully general.
        RoundTripRank scores are normalized to sum to one per query.
        """
        union = sorted({int(v) for request in batch for v in request.nodes})
        columns = {
            kind: np.stack(self.cache.get_many(self.graph, kind, union, self.alpha), axis=1)
            for kind in self._kinds
        }
        parsed = [(request.nodes, request.weights) for request in batch]
        scores = combine_columns(
            self.measure, columns.get("f"), columns.get("t"), union, parsed, self.beta
        )
        if self.measure == "roundtriprank":
            scores = normalize_columns(scores, "RankGateway(roundtriprank)")
        return scores
