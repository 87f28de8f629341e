"""The serving layer: column caching, micro-batching, top-k selection.

The batch engine (:mod:`repro.engine`) makes *offline* multi-query solves
cheap; this package makes *online* serving cheap, where queries arrive one
at a time, repeat (query logs are Zipf-distributed), and usually only need
their top results:

- :class:`~repro.serving.cache.ColumnCache` — byte-budgeted LRU memoization
  of per-node F-Rank / T-Rank solution columns, warmable through the batch
  engine.  Because F/T are linear in the teleport vector, single-node
  columns compose into any multi-node query and any ``(f, t)``-derived
  measure, so one cache serves every measure in the library.
- :mod:`repro.serving.batcher` — the private micro-batching lane that
  :class:`repro.gateway.RankGateway`, the one public way to serve queries
  online, builds per ``(graph, measure, alpha)``; this package does not
  export it.  A lane queues queries and flushes them as one multi-column
  solve on a size-or-deadline trigger.  Every flush reads its per-node
  columns through the gateway's ``ColumnCache``.  A query whose columns
  are all cached is flushed alone at submit and never queues, and so, at
  the default linger of 0, is a miss that finds its started lane free.
- :func:`~repro.serving.topk.topk_select` — the one top-k selector:
  ``(indices, scores)`` of one score vector via ``np.partition``
  partial selection instead of a full-vector sort, ties broken by node id.
  Batcher flushes, local top-k and ``naive_topk`` all rank with it.

Cache key contract
------------------
``ColumnCache`` entries are keyed on ``(graph_id, kind, node, alpha)``
where ``graph_id`` is a process-unique token per live graph object (graphs
are immutable, so object identity is content identity; tokens are never
reused — see :func:`repro.serving.cache.graph_token`), ``kind`` is ``"f"``
or ``"t"``, and ``alpha`` compares exactly as a float.  Columns are stored
as the solver's float64.  Solver settings (``tol`` / ``max_iter`` /
``method``) are fixed per cache instance, so all entries of one cache are
mutually consistent; the cache is the only place they are set.  A hit
returns the stored array itself (read-only), i.e. results are bit-exact
across hits; ``current_bytes`` never exceeds ``max_bytes``.

Thread-safety guarantees
------------------------
``ColumnCache`` serializes all public methods behind one reentrant lock:
counters and byte accounting are exact under concurrency, and a miss solves
under the lock so concurrent readers never duplicate a solve.
A gateway lane takes queries from any thread; its queue lock is never held
during a solve, futures resolve exactly once, and solver failures propagate
through ``Future.set_exception`` to every query of the failed batch.  Its
``close()`` is terminal and idempotent: it flushes every outstanding
future.  ``topk_select`` is pure and hence trivially thread-safe.

A wide miss batch (more than 32 columns, as a bulk :meth:`ColumnCache.warm`
makes) is solved by the engine as column blocks on every usable core, with
the same bytes on any core count; there is no thread knob to set.
"""

from repro.serving.cache import DEFAULT_MAX_BYTES, CacheInfo, ColumnCache, graph_token
from repro.serving.topk import topk_select

__all__ = [
    "CacheInfo",
    "ColumnCache",
    "DEFAULT_MAX_BYTES",
    "graph_token",
    "topk_select",
]
