"""Gateway observability: counters and per-lane latency quantiles.

:class:`GatewayStats` is the single mutation point for everything the
gateway counts — admissions, sheds by reason, per-tenant traffic, local
fast-path outcomes — plus a bounded latency reservoir per lane from which snapshot
quantiles (p50/p90/p99) are computed.  All methods are thread-safe; reads
return plain frozen snapshots so callers can serialize them as-is.

The counters live on a private, ungated :class:`repro.obs.MetricsRegistry`
instance — one registry per ``GatewayStats``, so concurrent gateways never
share counts and recording stays exact whether or not global observability
is on; :meth:`GatewayStats.snapshot` reads them all under one lock
acquisition.  Latencies feed both the quantile reservoir (quantiles need
raw samples, the last :data:`DEFAULT_RESERVOIR` per lane) and a
fixed-bucket registry histogram keyed by the flattened lane, so the same
numbers are exportable through ``obs.render_prometheus``.

Lane-key format
---------------
``GatewaySnapshot.to_jsonable`` flattens ``(graph, measure, alpha)`` lane
tuples to the documented stable form ``graph/measure/alpha`` (e.g.
``"default/roundtriprank/0.25"``).  Graph names may themselves contain
``/``; measure names and the alpha rendering never do, so
:func:`lane_key_from_str` parses with ``rsplit("/", 2)`` and the mapping
round-trips exactly (``alpha`` is rendered with ``repr(float)``).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro import obs

#: Latency samples retained per lane; old samples fall off, so quantiles
#: describe recent behavior rather than the whole process lifetime.
DEFAULT_RESERVOIR = 4096

#: Latency histogram uppers (seconds): sub-millisecond serving through
#: multi-second cold solves.
LATENCY_BUCKETS_S = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def lane_key_to_str(lane: tuple) -> str:
    """Flatten a ``(graph, measure, alpha)`` lane tuple to its stable form."""
    graph, measure, alpha = lane
    return f"{graph}/{measure}/{float(alpha)!r}"


def lane_key_from_str(flat: str) -> tuple:
    """Parse the stable lane-key form back to ``(graph, measure, alpha)``.

    Splits from the right so graph names containing ``/`` survive the
    round trip (measure names and the alpha rendering never contain it).
    """
    graph, measure, alpha = flat.rsplit("/", 2)
    return (graph, measure, float(alpha))


@dataclass(frozen=True)
class LaneStats:
    """Latency summary of one lane at snapshot time (milliseconds)."""

    count: int
    p50_ms: float
    p90_ms: float
    p99_ms: float
    max_ms: float


@dataclass(frozen=True)
class GatewaySnapshot:
    """A point-in-time, serialization-friendly view of gateway activity."""

    n_admitted: int
    n_shed: int
    shed_by_reason: "dict[str, int]" = field(default_factory=dict)
    admitted_by_tenant: "dict[str, int]" = field(default_factory=dict)
    shed_by_tenant: "dict[str, int]" = field(default_factory=dict)
    n_local_certified: int = 0
    n_local_escalated: int = 0
    lanes: "dict[tuple, LaneStats]" = field(default_factory=dict)

    @property
    def shed_rate(self) -> float:
        total = self.n_admitted + self.n_shed
        return self.n_shed / total if total else 0.0

    def to_jsonable(self) -> dict:
        """The snapshot with lane tuples flattened to the stable key form.

        Lane keys are ``graph/measure/alpha`` per :func:`lane_key_to_str`;
        recover the tuples with :func:`lane_key_from_str`.
        """
        return {
            "n_admitted": self.n_admitted,
            "n_shed": self.n_shed,
            "shed_rate": self.shed_rate,
            "shed_by_reason": dict(self.shed_by_reason),
            "admitted_by_tenant": dict(self.admitted_by_tenant),
            "shed_by_tenant": dict(self.shed_by_tenant),
            "n_local_certified": self.n_local_certified,
            "n_local_escalated": self.n_local_escalated,
            "lanes": {
                lane_key_to_str(lane): {
                    "count": s.count,
                    "p50_ms": s.p50_ms,
                    "p90_ms": s.p90_ms,
                    "p99_ms": s.p99_ms,
                    "max_ms": s.max_ms,
                }
                for lane, s in self.lanes.items()
            },
        }


class GatewayStats:
    """Thread-safe counters + per-lane latency reservoirs.

    The counters are metrics on :attr:`registry` (an ungated per-instance
    :class:`repro.obs.MetricsRegistry`); the quantile reservoir keeps raw
    samples under its own leaf lock.  ``registry`` is public on purpose —
    a service can merge a gateway's metrics into its own exposition page
    with ``obs.render_metrics_text(stats.registry.snapshot())``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.registry = obs.MetricsRegistry()
        self._admitted = self.registry.counter(
            "repro_gateway_admitted_total", "Queries admitted", labels=("tenant",)
        )
        self._shed = self.registry.counter(
            "repro_gateway_shed_total", "Queries shed", labels=("tenant", "reason")
        )
        self._local = self.registry.counter(
            "repro_gateway_local_total", "Local fast-path outcomes", labels=("outcome",)
        )
        self._latency = self.registry.histogram(
            "repro_gateway_latency_seconds",
            "Submit-to-resolve latency",
            labels=("lane",),
            buckets=LATENCY_BUCKETS_S,
        )
        self._latencies: "dict[tuple, deque]" = {}

    def record_admitted(self, tenant: str) -> None:
        self._admitted.inc(tenant=tenant)

    def record_shed(self, tenant: str, reason: str) -> None:
        self._shed.inc(tenant=tenant, reason=reason)

    def record_latency(self, lane: tuple, seconds: float) -> None:
        seconds = float(seconds)
        self._latency.observe(seconds, lane=lane_key_to_str(lane))
        with self._lock:
            samples = self._latencies.get(lane)
            if samples is None:
                samples = self._latencies[lane] = deque(maxlen=DEFAULT_RESERVOIR)
            samples.append(seconds)

    def record_local(self, escalated: bool) -> None:
        """Count one local fast-path query by its outcome."""
        self._local.inc(outcome="escalated" if escalated else "certified")

    def snapshot(self) -> GatewaySnapshot:
        metrics = self.registry.snapshot()  # all counters under one lock

        def samples(name: str) -> list:
            return metrics[name]["samples"]

        admitted_by_tenant = {
            s["labels"]["tenant"]: int(s["value"])
            for s in samples("repro_gateway_admitted_total")
        }
        shed_by_reason: "dict[str, int]" = {}
        shed_by_tenant: "dict[str, int]" = {}
        for s in samples("repro_gateway_shed_total"):
            labels, count = s["labels"], int(s["value"])
            shed_by_reason[labels["reason"]] = shed_by_reason.get(labels["reason"], 0) + count
            shed_by_tenant[labels["tenant"]] = shed_by_tenant.get(labels["tenant"], 0) + count
        local = {
            s["labels"]["outcome"]: int(s["value"])
            for s in samples("repro_gateway_local_total")
        }

        with self._lock:
            lanes = {}
            for lane, reservoir in self._latencies.items():
                if not reservoir:
                    continue
                ms = np.asarray(reservoir, dtype=np.float64) * 1000.0
                lanes[lane] = LaneStats(
                    count=int(ms.size),
                    p50_ms=float(np.percentile(ms, 50)),
                    p90_ms=float(np.percentile(ms, 90)),
                    p99_ms=float(np.percentile(ms, 99)),
                    max_ms=float(ms.max()),
                )
        return GatewaySnapshot(
            n_admitted=sum(admitted_by_tenant.values()),
            n_shed=sum(shed_by_reason.values()),
            shed_by_reason=shed_by_reason,
            admitted_by_tenant=admitted_by_tenant,
            shed_by_tenant=shed_by_tenant,
            n_local_certified=local.get("certified", 0),
            n_local_escalated=local.get("escalated", 0),
            lanes=lanes,
        )
