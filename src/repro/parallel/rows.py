"""The last ``workers=`` routing decision, readable via :func:`active_route`.

A ``workers=``-carrying batch solve either column-shards across threads
(:func:`repro.parallel.pool.maybe_solve_batch_parallel`) or runs
sequentially because the batch is below the shards' crossover
(:func:`repro.parallel.effective_workers`).  Either way the decision and its
reason are recorded here, in the style of :func:`repro.ops.active_kernel`,
so ``workers=`` is never silently ignored.

The module keeps its historical path because readers import
:func:`active_route` from it: :func:`repro.obs.snapshot` and the ledger
harness's provenance record (``perfbench/run.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro import obs

_OBS_ROUTES = obs.counter(
    "repro_route_decisions_total",
    "Column-shard routing decisions of workers= batch solves by outcome.",
    labels=("routed",),
)


@dataclass(frozen=True)
class RouteReport:
    """One routing decision (cf. :class:`repro.ops.KernelReport`).

    ``routed`` with ``shards >= 2`` means the columns were split across
    that many threads; otherwise ``shards == 0`` and ``reason`` says why
    the solve stayed sequential.
    """

    routed: bool
    shards: int
    reason: "str | None"


_route_lock = threading.Lock()
_last_route: "RouteReport | None" = None


def record_route(report: RouteReport) -> None:
    """Record a routing decision for :func:`active_route` diagnostics."""
    global _last_route
    with _route_lock:
        _last_route = report
    _OBS_ROUTES.inc(routed="true" if report.routed else "false")


def active_route() -> "RouteReport | None":
    """The most recent ``workers=`` routing decision in this process.

    ``None`` until a batch entry point runs with ``workers`` set.
    """
    with _route_lock:
        return _last_route
