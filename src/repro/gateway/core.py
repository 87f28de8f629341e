"""The multi-tenant serving front: lane routing over shared serving state.

:class:`RankGateway` is the one object a service embeds.  It owns:

- a registry of named graphs (tenants address graphs by name, never by
  object);
- one shared :class:`repro.serving.ColumnCache` — every lane's flushes and
  local top-k escalations land in the same per-node column store, so a
  column solved for one tenant serves every tenant (columns are per-node
  facts, not per-tenant data);
- a bounded set of **lanes**: one private micro-batching
  :class:`repro.serving.batcher.Lane` per ``(graph, measure, alpha)``,
  created lazily on first use and evicted least-recently-used when
  ``max_lanes`` would be exceeded (an evicted lane is closed, which flushes
  and resolves its outstanding futures — eviction never strands a caller);
- an :class:`repro.gateway.admission.AdmissionController` consulted *before*
  enqueueing (or serving), so a shed query never owns a future;
- a :class:`repro.gateway.stats.GatewayStats` recording admissions, sheds,
  local fast-path outcomes, and per-lane latency quantiles.

A query whose columns are all in the shared cache is *resident*: it has
nothing to solve, so it resolves before :meth:`RankGateway.submit` returns
(:meth:`repro.serving.batcher.Lane.serve_resident`, a flush of that one
query in the submitting thread) instead of waiting for the lane's thread.
At the default linger of 0, so does a miss that finds its started lane
free (:meth:`repro.serving.batcher.Lane.serve_claimed`): it is solved in the
submitting thread, with no handoff to the lane's.  Every other query is
queued in its lane.

The per-lane queue-depth bound is *hard* and counts queued queries only:
each lane carries an admission lock held across the depth check and the
enqueue, so concurrent submitters cannot overshoot ``max_queue_depth``
(asserted under thread churn by the gateway test suite).  A resident query
(or a claimed miss) is admitted under the same lock (the rate limit
applies) but never queued, so it never counts toward the depth; it is
served after the lock is released.  The lock is per-lane — one lane's
inline size-trigger solve never blocks admission to other lanes.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, NamedTuple, Union

import numpy as np

from repro import obs
from repro.core.queries import Query, normalize_query
from repro.core.roundtrip_plus import DEFAULT_BETA
from repro.engine.batch import measure_kinds
from repro.gateway.admission import AdmissionConfig, AdmissionController, Shed
from repro.gateway.stats import GatewaySnapshot, GatewayStats, lane_key_to_str
from repro.graph.digraph import DiGraph
from repro.serving.batcher import Lane
from repro.serving.cache import ColumnCache
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_positive_int,
    check_probability,
)

_gateway_ids = itertools.count(1)


def _gateway_collector(ref: "weakref.ref[RankGateway]"):
    """An ``obs`` collector closure holding the gateway only weakly.

    Returning ``None`` (the gateway died without ``close()``) makes the
    exporter drop the registration, so test-created gateways cannot leak
    collector entries.
    """

    def collect() -> "dict | None":
        gateway = ref()
        if gateway is None or gateway.closed:
            return None
        return {
            "stats": gateway.stats.snapshot().to_jsonable(),
            "cache": gateway.cache.cache_info().to_jsonable(),
        }

    return collect


class LaneKey(NamedTuple):
    """Identity of one micro-batching lane."""

    graph: str
    measure: str
    alpha: float


class RankGateway:
    """Route multi-tenant ranking queries to shared-cache batcher lanes.

    Parameters
    ----------
    graphs:
        ``{name: DiGraph}`` (or a single graph, registered as ``"default"``).
        More graphs may be added later with :meth:`add_graph`.
    cache:
        The shared :class:`ColumnCache`; built with defaults when omitted.
        Its ``alpha`` is the gateway's default query alpha, and its solver
        settings (``tol``, ``max_iter``, ``method``) are the ones every
        lane and escalation solves with.  A flush of more than 32 missing
        columns is solved as column blocks on every usable core.
    admission:
        An :class:`AdmissionConfig` (or ready controller).  The default
        config rate-limits nothing and bounds lanes at 64 pending queries.
    max_lanes:
        Upper bound on simultaneously-live lanes; the least recently *used*
        lane is closed (flushing its futures) to admit a new one.
    max_batch, max_delay:
        Every lane's size and deadline triggers: a positive integer, and a
        finite number of seconds, at least 0.  At the default, 0, a started
        gateway solves a miss at once: in the submitting thread when its
        lane is free, and otherwise in the lane thread's next flush, which
        takes every query that queued while the lane was busy.  A positive
        ``max_delay`` holds each query up to that long for others to join
        its batch.
    beta:
        The ``roundtriprank_plus`` interpolation, in [0, 1], used by
        plus-measure lanes.
    local_topk:
        Enable the certified local top-k fast path for top-``k`` cache
        misses (:func:`repro.topk.local.local_topk`).  An eligible query —
        one with ``k`` given — skips the lanes entirely: it
        is solved inline after admission (queue depth 0 — nothing is ever
        enqueued), returning an already-resolved future.  Certified results
        carry unnormalized lower-estimate scores with the oracle's exact
        set and ranking and *never* write partial columns into the cache;
        escalated queries solve their full columns through the shared cache
        (warming it exactly like a lane miss) and match the lane path
        bit-for-bit.  Cached columns join the sweeps as zero-error states, so
        a warm cache makes the fast path cheaper, not divergent.
    clock:
        Injectable monotonic clock shared by admission and stats (tests).

    Lifecycle: :meth:`start` launches each lane's deadline thread (lanes
    created later start automatically); :meth:`close` is terminal — it
    closes every lane (resolving all outstanding futures) and makes further
    :meth:`submit` calls return ``Shed(reason="closed")``.
    """

    def __init__(
        self,
        graphs: "dict[str, DiGraph] | DiGraph",
        cache: "ColumnCache | None" = None,
        admission: "AdmissionConfig | AdmissionController | None" = None,
        max_lanes: int = 8,
        max_batch: int = 32,
        max_delay: float = 0.0,
        beta: float = DEFAULT_BETA,
        local_topk: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if isinstance(graphs, DiGraph):
            graphs = {"default": graphs}
        if not graphs:
            raise ValueError("at least one graph must be registered")
        self._graphs: "dict[str, DiGraph]" = dict(graphs)
        self.cache = cache if cache is not None else ColumnCache()
        if isinstance(admission, AdmissionController):
            self.admission = admission
        else:
            self.admission = AdmissionController(admission, clock=clock)
        self.max_lanes = check_positive_int(max_lanes, "max_lanes")
        # Checked here, not when the first lane is built inside a submit.
        self.max_batch = check_positive_int(max_batch, "max_batch")
        self.max_delay = check_positive(max_delay, "max_delay", strict=False)
        self.beta = check_probability(beta, "beta")
        self.local_topk = bool(local_topk)
        self.stats = GatewayStats()
        self._clock = clock
        self._lanes: "OrderedDict[LaneKey, Lane]" = OrderedDict()
        self._registry_lock = threading.Lock()
        self._started = False
        self._closed = False
        # Publish this gateway's stats + cache view into obs.snapshot();
        # unregistered on close() (or reaped weakly if close never runs).
        self._obs_name = f"gateway-{next(_gateway_ids)}"
        obs.register_collector(self._obs_name, _gateway_collector(weakref.ref(self)))

    # ------------------------------------------------------------------ #
    # Graph registry
    # ------------------------------------------------------------------ #

    def add_graph(self, name: str, graph: DiGraph) -> None:
        """Register another graph under ``name`` (names are immutable)."""
        with self._registry_lock:
            if name in self._graphs:
                raise ValueError(f"graph {name!r} is already registered")
            self._graphs[name] = graph

    def graph(self, name: "str | None" = None) -> DiGraph:
        """The named graph; with one graph registered, ``None`` selects it."""
        return self._resolve_graph(name)[1]

    def _resolve_graph(self, name: "str | None") -> "tuple[str, DiGraph]":
        """``(name, graph)`` under one registry-lock acquisition."""
        with self._registry_lock:
            if name is None:
                if len(self._graphs) == 1:
                    return next(iter(self._graphs.items()))
                raise ValueError(
                    f"graph name required: {sorted(self._graphs)} are registered"
                )
            try:
                return name, self._graphs[name]
            except KeyError:
                raise KeyError(
                    f"unknown graph {name!r}; registered: {sorted(self._graphs)}"
                ) from None

    # ------------------------------------------------------------------ #
    # Lane management
    # ------------------------------------------------------------------ #

    def _lane(self, key: LaneKey) -> "tuple[Lane | None, Lane | None]":
        """Get-or-create the lane for ``key``; returns ``(lane, evicted)``.

        Returns ``(None, None)`` when the gateway closed concurrently — a
        lane must never be created after ``close()`` swept the registry, or
        its futures could be stranded unflushed.  The evicted lane (if any)
        must be closed by the caller *outside* the registry lock — closing
        flushes, and a flush may solve.
        """
        with self._registry_lock:
            if self._closed:
                return None, None
            lane = self._lanes.get(key)
            if lane is not None:
                self._lanes.move_to_end(key)
                return lane, None
            lane = Lane(
                self._graphs[key.graph],
                key.measure,
                key.alpha,
                self.beta,
                self.max_batch,
                self.max_delay,
                self.cache,
            )
            if self._started:
                lane.start()
            self._lanes[key] = lane
            evicted = None
            if len(self._lanes) > self.max_lanes:
                _, evicted = self._lanes.popitem(last=False)
            return lane, evicted

    def lanes(self) -> "list[LaneKey]":
        """Live lane keys, least recently used first."""
        with self._registry_lock:
            return list(self._lanes)

    def total_pending(self) -> int:
        """Queries queued across all lanes (never the resident or local ones)."""
        with self._registry_lock:
            lanes = list(self._lanes.values())
        return sum(lane.pending for lane in lanes)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        query: Query,
        tenant: str = "default",
        graph: "str | None" = None,
        measure: str = "roundtriprank",
        alpha: "float | None" = None,
        k: "int | None" = None,
    ) -> "Union[Future, Shed]":
        """Admit one query and queue or serve it; a future, or a :class:`Shed`.

        A resident query (every column it reads is cached) is admitted at
        queue depth 0, so only the rate limit can shed it, and its future
        is already resolved when this returns.  Any other query is admitted
        against its lane's queue depth and queued for the lane's flush,
        unless at linger 0 it finds its started lane free: then it is solved
        before this returns.

        Invalid *queries* (unknown graph/measure, out-of-range nodes, an
        ``alpha`` outside (0, 1), a ``k`` that is not a positive integer)
        raise synchronously — they are caller bugs, not load, and must not
        be confused with shedding.
        An admitted query's future always resolves: to the score vector (or
        ``(indices, scores)`` when ``k`` is given), or to the solver's
        exception.
        """
        return self._submit(query, tenant, graph, measure, alpha, k)[0]

    def _submit(
        self,
        query: Query,
        tenant: str = "default",
        graph: "str | None" = None,
        measure: str = "roundtriprank",
        alpha: "float | None" = None,
        k: "int | None" = None,
    ) -> "tuple[Union[Future, Shed], Lane | None]":
        """:meth:`submit`, plus the lane that queued or served the query
        (``None`` on the local path and when shed)."""
        measure_kinds(measure)  # rejects an unknown measure before admission
        graph_name, graph_obj = self._resolve_graph(graph)
        if alpha is None:
            alpha = self.cache.alpha
        # The solvers' own check, before admission: an invalid alpha would
        # otherwise fail inside a flush, and a NaN one (NaN != NaN) would
        # open a fresh lane per submit, evicting healthy ones.
        alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False)
        key = LaneKey(graph_name, measure, alpha)
        # Validate before admission: a malformed query (or k) must raise even
        # when it would have been shed, and must never consume a rate token.
        nodes, weights = normalize_query(graph_obj, query)
        if k is not None:
            k = check_positive_int(k, "k")

        # Certified local fast path: only top-k requests (full vectors need
        # full columns anyway).
        if self.local_topk and k is not None:
            with obs.span(
                "gateway.submit",
                tenant=tenant,
                lane=lane_key_to_str(tuple(key)),
                k=int(k),
                path="local",
            ):
                local = self._submit_local(
                    query, tenant, graph_obj, key, measure, alpha, k, nodes, weights
                )
                return local, None

        with obs.span(
            "gateway.submit",
            tenant=tenant,
            lane=lane_key_to_str(tuple(key)),
            k=-1 if k is None else int(k),
            path="batcher",
        ) as root_span:
            while True:
                lane, evicted = self._lane(key)
                if lane is None:  # gateway closed
                    shed = Shed(reason="closed", tenant=tenant, lane=tuple(key))
                    self.stats.record_shed(tenant, shed.reason)
                    root_span.set_attributes(outcome="shed", reason=shed.reason)
                    return shed, None
                if evicted is not None:
                    evicted.close()
                # Probed before the admission lock: the probe takes the cache
                # lock, which other lanes hold across their miss solves.
                resident = lane.resident(nodes)
                with lane.admission_lock:
                    if lane.closed:
                        continue  # evicted between lookup and lock: retry fresh
                    # A resident query is never queued: it is admitted at
                    # depth 0, so only the rate limit can shed it.
                    depth = 0 if resident else lane.pending
                    with obs.span("gateway.admission", tenant=tenant, depth=depth) as adm:
                        shed = self.admission.admit(tenant, tuple(key), depth)
                        if shed is not None:
                            adm.set_attributes(outcome="shed", reason=shed.reason)
                        else:
                            adm.set_attributes(outcome="admitted")
                    if shed is not None:
                        self.stats.record_shed(tenant, shed.reason)
                        root_span.set_attributes(outcome="shed", reason=shed.reason)
                        return shed, None
                    started = self._clock()
                    # At linger 0 a miss that finds its started lane free
                    # claims the lane's next flush and is served like a
                    # resident query; queries that arrive meanwhile queue.
                    claimed = not resident and lane.claim()
                    # Queueing under the admission lock is the hard depth
                    # bound: admission-check and enqueue must be atomic or two
                    # racing callers can both pass the check and overfill the
                    # lane.  An enqueue that fills the batch runs the size
                    # flush here: that solve, and the done callbacks of the
                    # futures it resolves, run under this lane's lock (never
                    # another lane's).  The enqueue-time span context rides
                    # on the request so the flush joins this trace.
                    if not resident and not claimed:
                        with obs.span("gateway.lane", depth=depth) as lane_span:
                            future = lane.enqueue(nodes, weights, k, lane_span.context())
                break
            if resident:
                # Served after the admission lock is released, so submitters
                # queueing in this lane never wait behind a hit held up on
                # the cache lock.  A column evicted since the probe is
                # re-solved inline, as _submit_local's probe allows.
                with obs.span("gateway.lane", depth=0) as lane_span:
                    future = lane.serve_resident(nodes, weights, k, lane_span.context())
            elif claimed:
                # Also after the lock: submitters queue behind this solve.
                with obs.span("gateway.lane", depth=0) as lane_span:
                    future = lane.serve_claimed(nodes, weights, k, lane_span.context())
            root_span.set_attributes(outcome="admitted")

        self.stats.record_admitted(tenant)
        clock = self._clock

        def _record(_f: Future, lane_key=tuple(key), t0=started) -> None:
            self.stats.record_latency(lane_key, clock() - t0)

        future.add_done_callback(_record)
        return future, lane

    def _submit_local(
        self,
        query: Query,
        tenant: str,
        graph_obj: DiGraph,
        key: LaneKey,
        measure: str,
        alpha: float,
        k: int,
        nodes,
        weights,
    ) -> "Union[Future, Shed]":
        """Inline certified local top-k: admit, solve, resolve — no queue.

        Admission sees queue depth 0 (nothing is enqueued), so only the
        rate limit can shed.  The cache participates twice, read-only on
        the happy path: already-exact columns join the sweeps as zero-error
        states via ``column_probe``, and an escalation solves its full
        columns *through* ``cache.get_many`` — bit-identical arithmetic to
        a lane flush (:meth:`repro.serving.batcher.Lane._score_columns`),
        and the columns it stores are complete, so a partial sweep result
        can never poison the cache.
        """
        from repro.topk.local import local_topk as _local_topk

        if self._closed:
            shed = Shed(reason="closed", tenant=tenant, lane=tuple(key))
            self.stats.record_shed(tenant, shed.reason)
            return shed
        with obs.span("gateway.admission", tenant=tenant, depth=0) as adm:
            shed = self.admission.admit(tenant, tuple(key), 0)
            adm.set_attributes(outcome="admitted" if shed is None else "shed")
        if shed is not None:
            self.stats.record_shed(tenant, shed.reason)
            return shed
        started = self._clock()
        self.stats.record_admitted(tenant)
        cache = self.cache

        def probe(kind: str, node: int) -> "np.ndarray | None":
            # contains() is counter-free; a column evicted between the
            # probe and the get would simply be re-solved (correct, just
            # not free), so the race is benign.
            if cache.contains(graph_obj, kind, node, alpha):
                return cache.get(graph_obj, kind, node, alpha)
            return None

        def solve_columns(kind: str, node_list: "list[int]") -> np.ndarray:
            return np.stack(
                cache.get_many(graph_obj, kind, node_list, alpha), axis=1
            )

        future: Future = Future()
        try:
            result = _local_topk(
                graph_obj,
                query,
                k,
                alpha,
                measure=measure,
                beta=self.beta,
                solve_columns=solve_columns,
                column_probe=probe,
            )
        except BaseException as exc:  # noqa: B036 - delivered through the future
            self.stats.record_latency(tuple(key), self._clock() - started)
            future.set_exception(exc)
            return future
        self.stats.record_local(escalated=result.escalated)
        self.stats.record_latency(tuple(key), self._clock() - started)
        future.set_result((result.indices, result.scores))
        return future

    def ask(self, query: Query, **kwargs):
        """Synchronous convenience: submit, flush the lane, return scores.

        Only the query's own lane is flushed; other lanes keep their queues
        for their own triggers.  Raises ``RuntimeError`` if the query is
        shed — the synchronous caller has no queue to retry from.
        """
        result, lane = self._submit(query, **kwargs)
        if isinstance(result, Shed):
            raise RuntimeError(
                f"query shed ({result.reason}) for tenant {result.tenant!r}"
            )
        if lane is not None:
            lane.flush()
        return result.result()

    def flush_all(self) -> int:
        """Force-solve everything pending in every lane; total flushed."""
        with self._registry_lock:
            lanes = list(self._lanes.values())
        return sum(lane.flush() for lane in lanes)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "RankGateway":
        """Start deadline threads on all lanes, current and future."""
        with self._registry_lock:
            if self._closed:
                raise RuntimeError("RankGateway is closed and cannot be restarted")
            self._started = True
            lanes = list(self._lanes.values())
        for lane in lanes:
            lane.start()  # a lane evicted since the copy stays closed
        return self

    def close(self) -> None:
        """Terminal: close every lane (their futures resolve), shed new work."""
        with self._registry_lock:
            if self._closed:
                return
            self._closed = True
            lanes = list(self._lanes.values())
            self._lanes.clear()
        for lane in lanes:
            lane.close()
        obs.unregister_collector(self._obs_name)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "RankGateway":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def snapshot(self) -> GatewaySnapshot:
        """Current :class:`GatewaySnapshot` (see also ``cache.cache_info()``)."""
        return self.stats.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        snap = self.stats.snapshot()
        return (
            f"RankGateway(graphs={sorted(self._graphs)}, lanes={len(self._lanes)}/"
            f"{self.max_lanes}, admitted={snap.n_admitted}, shed={snap.n_shed})"
        )
