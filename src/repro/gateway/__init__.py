"""The multi-tenant serving gateway: one front door over the serving layer.

PR 2 built the serving primitives (column cache, micro-batcher, fused
top-k) as single-tenant parts bound to one ``(graph, measure, alpha)``;
this package assembles them into a service front:

- :class:`~repro.gateway.core.RankGateway` — routes ``submit(query,
  tenant=, graph=, measure=, alpha=, k=)`` calls to per-``(graph, measure,
  alpha)`` :class:`~repro.serving.MicroBatcher` *lanes*, created lazily,
  bounded by ``max_lanes`` (LRU lane eviction closes the lane, resolving
  its futures), all sharing **one** :class:`~repro.serving.ColumnCache`
  and hence the :mod:`repro.ops` operator cache.  A query whose columns
  are all cached resolves before ``submit`` returns; only the others
  queue.
- :mod:`~repro.gateway.admission` — per-tenant token-bucket rate limiting
  plus per-lane queue-depth load shedding (the depth counts queued queries,
  so a query served from the cache is only rate-limited); rejected
  queries come back as a typed :class:`~repro.gateway.admission.Shed`,
  never a dangling future.
  The dual invariant: **every accepted future resolves** (lane close and
  gateway close both flush).
- :mod:`~repro.gateway.prefetch` — a background
  :class:`~repro.gateway.prefetch.Prefetcher` that watches per-tenant
  decayed query-frequency estimates
  (:class:`~repro.gateway.frequency.FrequencyEstimator`) and warms hot
  uncached columns through the batch engine during idle capacity
  (``workers=`` aware).
- :mod:`~repro.gateway.stats` — :class:`~repro.gateway.stats.GatewayStats`
  with admission/shed/prefetch counters and per-lane latency quantiles
  (``snapshot()`` → :class:`~repro.gateway.stats.GatewaySnapshot`).

Pair with ``ColumnCache(policy="gdsf")`` for popularity-aware eviction
under multi-tenant budget pressure (see :mod:`repro.serving.policies`).

Quickstart::

    from repro.gateway import AdmissionConfig, Prefetcher, RankGateway, Shed
    from repro.serving import ColumnCache

    gateway = RankGateway(
        {"qlog": graph},
        cache=ColumnCache(policy="gdsf", alpha=0.25),
        admission=AdmissionConfig(rate=200.0, burst=50, max_queue_depth=64),
    )
    with gateway, Prefetcher(gateway):
        result = gateway.submit(q, tenant="acme", graph="qlog", k=20)
        if not isinstance(result, Shed):
            indices, scores = result.result()
"""

from repro.gateway.admission import (
    AdmissionConfig,
    AdmissionController,
    Shed,
    TokenBucket,
)
from repro.gateway.core import LaneKey, RankGateway
from repro.gateway.frequency import FrequencyEstimator
from repro.gateway.prefetch import Prefetcher
from repro.gateway.stats import (
    GatewaySnapshot,
    GatewayStats,
    LaneStats,
    lane_key_from_str,
    lane_key_to_str,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "FrequencyEstimator",
    "GatewaySnapshot",
    "GatewayStats",
    "LaneKey",
    "LaneStats",
    "Prefetcher",
    "RankGateway",
    "Shed",
    "TokenBucket",
    "lane_key_from_str",
    "lane_key_to_str",
]
