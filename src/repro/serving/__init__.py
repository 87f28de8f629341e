"""The serving layer: column caching, micro-batching, top-k selection.

PR 1's batch engine made *offline* multi-query solves cheap; this package
makes *online* serving cheap, where queries arrive one at a time, repeat
(query logs are Zipf-distributed), and usually only need their top results:

- :class:`~repro.serving.cache.ColumnCache` — byte-budgeted memoization of
  per-node F-Rank / T-Rank solution columns, warmable through the batch
  engine, with pluggable eviction (:mod:`repro.serving.policies`: ``"lru"``
  default, ``"gdsf"`` popularity x cost / size).  Because F/T are linear in
  the teleport vector, single-node columns compose into any multi-node query
  and any ``(f, t)``-derived measure, so one cache serves every measure in
  the library.
- :class:`~repro.serving.batcher.MicroBatcher` — queues individual queries
  and flushes them as one multi-column solve on a size-or-deadline trigger;
  synchronous ``ask``/``flush`` plus a thread-based ``submit``/future API.
  With a cache attached, a query whose columns are all cached is flushed
  alone at ``submit`` and never waits for the deadline.
- :func:`~repro.serving.topk.topk_select` — the one top-k selector:
  ``(indices, scores)`` of one score vector via ``np.argpartition``
  partial selection instead of a full-vector sort, ties broken by node id.
  Batcher flushes, local top-k and ``naive_topk`` all rank with it.

Cache key contract
------------------
``ColumnCache`` entries are keyed on ``(graph_id, kind, node, alpha, dtype)``
where ``graph_id`` is a process-unique token per live graph object (graphs
are immutable, so object identity is content identity; tokens are never
reused — see :func:`repro.serving.cache.graph_token`), ``kind`` is ``"f"``
or ``"t"``, ``alpha`` compares exactly as a float, and ``dtype`` is the
storage dtype.  Solver parameters (``tol`` / ``max_iter`` / ``method``) are
fixed per cache instance, so all entries of one cache are mutually
consistent.  A hit returns the stored array itself (read-only), i.e. results
are bit-exact across hits; ``current_bytes`` never exceeds ``max_bytes``.

Thread-safety guarantees
------------------------
``ColumnCache`` serializes all public methods behind one reentrant lock:
counters and byte accounting are exact under concurrency, and a miss solves
under the lock so concurrent readers never duplicate a solve.
``MicroBatcher`` accepts ``submit``/``flush``/``ask`` from any thread; the
queue lock is never held during a solve, futures resolve exactly once, and
solver failures propagate through ``Future.set_exception`` to every query of
the failed batch.  ``stop()`` pauses the deadline thread (restartable);
``close()`` is terminal and idempotent — it flushes every outstanding
future and makes ``submit``/``ask``/``start`` raise.  ``topk_select`` is
pure and hence trivially thread-safe.

Both ``ColumnCache`` and ``MicroBatcher`` take ``workers=`` to shard their
solves across :mod:`repro.parallel` threads; worker count never
changes results (it is deliberately not part of the cache key).
"""

from repro.serving.batcher import BatcherStats, MicroBatcher
from repro.serving.cache import DEFAULT_MAX_BYTES, CacheInfo, ColumnCache, graph_token
from repro.serving.policies import (
    EvictionPolicy,
    GDSFPolicy,
    LRUPolicy,
    available_policies,
    make_policy,
)
from repro.serving.topk import topk_select

__all__ = [
    "BatcherStats",
    "MicroBatcher",
    "CacheInfo",
    "ColumnCache",
    "DEFAULT_MAX_BYTES",
    "graph_token",
    "EvictionPolicy",
    "GDSFPolicy",
    "LRUPolicy",
    "available_policies",
    "make_policy",
    "topk_select",
]
