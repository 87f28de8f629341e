"""Span recording around the layer entry points, from outside the program.

The traced phase of a run replaces six public callables with timing
wrappers and restores them when the phase ends; nothing under ``src/``
changes and ``repro.obs`` stays disabled.  Wrapped boundaries:

=====================  ====================================================
span name              callable
=====================  ====================================================
``gateway.submit``     ``repro.gateway.RankGateway.submit``
``cache.get_many``     ``repro.serving.ColumnCache.get_many``
``engine.solve``       ``repro.engine.batch.power_iteration_batch``
``ops.matmat``         ``repro.ops.TransitionOperator.matmat``
``topk.local``         ``repro.topk.local.local_topk``
``topk.twosbound``     ``repro.topk.twosbound.twosbound_topk``
=====================  ====================================================

Each call records a :class:`Span` (name, start, end, parent, request id).
A span's parent is the innermost open span on the same thread.  A
micro-batcher flush on the ``microbatcher-deadline`` thread has no open
span there, so it is parented on the ``gateway.submit`` span of the first
request it serves, as ``repro.obs`` does.

Queue wait follows the ledger's definition: from the start of a request's
``gateway.submit`` to the start of the lane's next flush, where a flush
starts with the lane's ``cache.get_many(kind="f")``.  A submit that races
a flush starting inside it is charged to that flush.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field

DEADLINE_THREAD = "microbatcher-deadline"

#: ``LocalTopKResult`` / ``TopKResult`` fields summed into layer counts.
_LOCAL_FIELDS = ("certified", "escalated", "work", "rounds")
_TWOSBOUND_FIELDS = ("rounds", "seen_f", "seen_t", "seen_r")

#: Bytes of one CSR index entry (scipy builds int32 indices at these sizes).
_INDEX_BYTES = 4


@dataclass(eq=False)
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: "int | None" = None
    rid: "int | None" = None
    thread: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.queue_waits: "list[float]" = []
        #: ``(thread name, requests served)`` per batcher flush.
        self.flushes: "list[tuple[str, int]]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pending: "list[Span]" = []
        self._restore: "list[tuple[object, str, object]]" = []

    # ------------------------------------------------------------------ #
    # Span bookkeeping
    # ------------------------------------------------------------------ #

    def begin_request(self, rid: int) -> None:
        """Tag spans opened on this thread with no open parent as ``rid``."""
        self._local.rid = rid

    def _stack(self) -> "list[Span]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: "Span | None" = None, **attrs) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        rid = parent.rid if parent is not None else getattr(self._local, "rid", None)
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            parent=None if parent is None else parent.sid,
            rid=rid,
            thread=threading.current_thread().name,
            attrs=attrs,
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def _call(self, span: Span, fn, args, kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def _submit(self, original):
        tracer = self

        def submit(gateway, *args, **kwargs):
            span = tracer._open("gateway.submit")
            with tracer._lock:
                tracer._pending.append(span)
            return tracer._call(span, original, (gateway, *args), kwargs)

        return submit

    def _get_many(self, original):
        tracer = self

        def get_many(cache, graph, kind, nodes, *args, **kwargs):
            stack = tracer._stack()
            parent = None
            if kind == "f" and (not stack or stack[-1].name == "gateway.submit"):
                parent = tracer._flush_started(stack)
            elif not stack and threading.current_thread().name == DEADLINE_THREAD:
                parent = getattr(tracer._local, "flush_parent", None)
            span = tracer._open("cache.get_many", parent, kind=kind, nodes=len(nodes))
            return tracer._call(span, original, (cache, graph, kind, nodes, *args), kwargs)

        return get_many

    def _flush_started(self, stack: "list[Span]") -> "Span | None":
        """Charge queue wait to every request submitted since the last flush.

        Returns the parent for a flush on the deadline thread; ``None`` for
        an inline flush (its parent is the open submit) and for calls that
        are not batcher flushes (a direct ``ColumnCache.warm``).
        """
        thread = threading.current_thread().name
        if not stack and thread != DEADLINE_THREAD:
            return None
        now = time.perf_counter()
        with self._lock:
            batch, self._pending = self._pending, []
        self.queue_waits.extend(now - span.start for span in batch)
        self.flushes.append((thread, len(batch)))
        parent = batch[0] if batch and not stack else None
        self._local.flush_parent = parent
        return parent

    def _engine(self, original):
        tracer = self

        def power_iteration_batch(operator, teleports, *args, **kwargs):
            span = tracer._open("engine.solve", columns=int(teleports.shape[1]))
            return tracer._call(span, original, (operator, teleports, *args), kwargs)

        return power_iteration_batch

    def _matmat(self, original):
        tracer = self

        def matmat(operator, x, *args, **kwargs):
            n_rows, n_cols = operator.shape
            width = int(x.shape[1]) if getattr(x, "ndim", 0) == 2 else 1
            span = tracer._open(
                "ops.matmat",
                nnz=int(operator.nnz),
                rows=int(n_rows),
                cols=int(n_cols),
                width=width,
                itemsize=int(x.dtype.itemsize),
                accumulate=bool(kwargs.get("accumulate", False)),
            )
            return tracer._call(span, original, (operator, x, *args), kwargs)

        return matmat

    def _local_topk(self, original):
        tracer = self

        def local_topk(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].name == "gateway.submit":
                with tracer._lock:  # inline local path: never queued
                    tracer._pending = [s for s in tracer._pending if s is not stack[-1]]
            span = tracer._open("topk.local")
            result = tracer._call(span, original, args, kwargs)
            span.attrs.update(
                certified=int(result.certified),
                escalated=int(result.escalated),
                work=int(result.work),
                rounds=int(result.rounds),
            )
            return result

        return local_topk

    def _twosbound(self, original):
        tracer = self

        def twosbound_topk(*args, **kwargs):
            span = tracer._open("topk.twosbound")
            result = tracer._call(span, original, args, kwargs)
            span.attrs.update(
                rounds=result.rounds,
                seen_f=result.seen_f,
                seen_t=result.seen_t,
                seen_r=result.seen_r,
            )
            return result

        return twosbound_topk

    def install(self) -> "Tracer":
        from repro.engine import batch as engine_batch
        from repro.gateway import RankGateway
        from repro.ops import TransitionOperator
        from repro.serving import ColumnCache
        from repro.topk import local as topk_local
        from repro.topk import twosbound as topk_twosbound

        for owner, attr, wrap in (
            (RankGateway, "submit", self._submit),
            (ColumnCache, "get_many", self._get_many),
            (engine_batch, "power_iteration_batch", self._engine),
            (TransitionOperator, "matmat", self._matmat),
            (topk_local, "local_topk", self._local_topk),
            (topk_twosbound, "twosbound_topk", self._twosbound),
        ):
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        """Write every span as one JSON line (called once, at exit)."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "sid": s.sid,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "rid": s.rid,
                            "thread": s.thread,
                            **s.attrs,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------- #
# Per-layer breakdown
# ---------------------------------------------------------------------- #


def _covered(span: Span, children: "list[Span]") -> float:
    """Seconds of ``span``'s interval covered by the union of ``children``."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_seconds(spans: "list[Span]") -> "dict[str, float]":
    """Total self time per span name: duration minus child coverage."""
    children: "dict[int, list[Span]]" = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    totals: "dict[str, float]" = {}
    for s in spans:
        own = s.duration - _covered(s, children.get(s.sid, []))
        totals[s.name] = totals.get(s.name, 0.0) + own
    return totals


def matmat_bytes(span: Span) -> int:
    """Bytes one CSR matmat must move: matrix, operand, and output.

    Computed from nnz, n and width, not measured: values and column
    indices once, the row pointer once, the dense operand once, and the
    output written once (read and written when accumulating).
    """
    a = span.attrs
    item = a["itemsize"]
    matrix = a["nnz"] * (item + _INDEX_BYTES) + (a["rows"] + 1) * _INDEX_BYTES
    operand = a["cols"] * a["width"] * item
    output = a["rows"] * a["width"] * item * (2 if a["accumulate"] else 1)
    return matrix + operand + output


def _percentile_ms(values: "list[float]", q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return 1e3 * (ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def layer_metrics(tracer: Tracer, n_requests: int) -> "dict[str, float]":
    """Span-derived per-layer metrics (counts are totals over the phase;
    ``*_self_ms`` and ``*_busy_ms`` are per request)."""
    spans = tracer.spans
    own = self_seconds(spans)
    by_name: "dict[str, list[Span]]" = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    engine = by_name.get("engine.solve", [])
    matmat = by_name.get("ops.matmat", [])
    engine_ids = {s.sid for s in engine}
    engine_s = sum(s.duration for s in engine)
    matmat_s = sum(s.duration for s in matmat)
    columns = sum(s.attrs["columns"] for s in engine)
    nnz_cols = sum(s.attrs["nnz"] * s.attrs["width"] for s in matmat)
    local = by_name.get("topk.local", [])
    twosb = by_name.get("topk.twosbound", [])
    per_req = 1e3 / max(1, n_requests)
    n_flushes = len(tracer.flushes)
    deadline = sum(1 for thread, _ in tracer.flushes if thread == DEADLINE_THREAD)
    served = [size for _, size in tracer.flushes]
    return {
        "gateway.submit_self_ms": own.get("gateway.submit", 0.0) * per_req,
        "batcher.flushes": n_flushes,
        "batcher.batch_mean": sum(served) / n_flushes if n_flushes else 0.0,
        "batcher.deadline_share": deadline / n_flushes if n_flushes else 0.0,
        "batcher.queue_wait_p50_ms": _percentile_ms(tracer.queue_waits, 50),
        "batcher.queue_wait_p99_ms": _percentile_ms(tracer.queue_waits, 99),
        "cache.self_ms": own.get("cache.get_many", 0.0) * per_req,
        "engine.solves": len(engine),
        "engine.columns": columns,
        "engine.sweeps": sum(1 for s in matmat if s.parent in engine_ids),
        "engine.ms_per_column": 1e3 * engine_s / columns if columns else 0.0,
        "engine.self_ms": own.get("engine.solve", 0.0) * per_req,
        "ops.matmat_calls": len(matmat),
        "ops.busy_ms": matmat_s * per_req,
        "ops.ns_per_nnz_col": 1e9 * matmat_s / nnz_cols if nnz_cols else 0.0,
        "ops.bytes_moved": sum(matmat_bytes(s) for s in matmat) / max(1, n_requests),
        "ops.share_of_engine": matmat_s / engine_s if engine_s else 0.0,
        "local.calls": len(local),
        **{f"local.{key}": sum(s.attrs[key] for s in local) for key in _LOCAL_FIELDS},
        "local.self_ms": own.get("topk.local", 0.0) * per_req,
        **{f"twosbound.{key}": sum(s.attrs[key] for s in twosb) for key in _TWOSBOUND_FIELDS},
        "twosbound.busy_ms": sum(s.duration for s in twosb) * per_req,
    }
