"""The multi-tenant serving gateway: one front door over the serving layer.

The serving primitives (column cache, fused top-k) are single-tenant
parts; this package assembles them into the one serving front door:

- :class:`~repro.gateway.core.RankGateway` — routes ``submit(query,
  tenant=, graph=, measure=, alpha=, k=)`` calls to private per-``(graph,
  measure, alpha)`` micro-batching *lanes* (:mod:`repro.serving.batcher`),
  created lazily, bounded by ``max_lanes`` (LRU lane eviction closes the
  lane, resolving its futures), all sharing **one**
  :class:`~repro.serving.ColumnCache` and hence the :mod:`repro.ops`
  operator cache.  A query whose columns are all cached resolves before
  ``submit`` returns; only the others queue.  A single-graph caller uses
  ``RankGateway(graph)``.
- :mod:`~repro.gateway.admission` — per-tenant token-bucket rate limiting
  plus per-lane queue-depth load shedding (the depth counts queued queries,
  so a query served from the cache is only rate-limited); rejected
  queries come back as a typed :class:`~repro.gateway.admission.Shed`,
  never a dangling future.
  The dual invariant: **every accepted future resolves** (lane close and
  gateway close both flush).
- :mod:`~repro.gateway.stats` — :class:`~repro.gateway.stats.GatewayStats`
  with admission/shed/local-path counters and per-lane latency quantiles
  (``snapshot()`` → :class:`~repro.gateway.stats.GatewaySnapshot`).

Quickstart::

    from repro.gateway import AdmissionConfig, RankGateway, Shed
    from repro.serving import ColumnCache

    gateway = RankGateway(
        {"qlog": graph},
        cache=ColumnCache(alpha=0.25),
        admission=AdmissionConfig(rate=200.0, burst=50, max_queue_depth=64),
    )
    with gateway:
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
    "GatewaySnapshot",
    "GatewayStats",
    "LaneKey",
    "LaneStats",
    "RankGateway",
    "Shed",
    "TokenBucket",
    "lane_key_from_str",
    "lane_key_to_str",
]
