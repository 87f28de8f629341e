"""Column-sharded batch solves on threads: the ``workers=`` knob.

The batch engine runs a batch's columns in one multi-column sweep on one
core; this package splits the columns of a multi-query batch across
threads:

- :mod:`repro.parallel.pool` — the column-striped shard solver
  (:func:`solve_columns_parallel`, reusing
  :class:`repro.distributed.StripeMap` for assignment, one thread per
  shard against the graph's cached operator) and the
  :func:`effective_workers` crossover heuristic.
- :mod:`repro.parallel.rows` — the last routing decision of a
  ``workers=`` batch call (column-sharded, or sequential with the reason),
  readable via :func:`active_route`.

Callers rarely touch this package directly: the batch functions take a
``workers=`` argument that routes here —
``frank_batch(graph, queries, workers=4)``,
``roundtriprank_batch(..., workers=4)`` — and so does
``ColumnCache(workers=4)``, the one serving-side owner of solver settings:
the gateway and its lanes (``RankGateway(graph,
cache=ColumnCache(workers=4))``) and the evaluation runner's ``FTCache``
solve through a cache.  ``workers`` is ``None`` or a non-negative integer,
checked where it is given (the cache's constructor) and again by
:func:`effective_workers`.
``method="power"`` results are
bit-exact for any worker count; ``method="auto"`` stays within the verified
residual tolerance.  Small batches fall back to the sequential path
automatically (see :func:`effective_workers`).  Single-query solvers
(``frank_vector``/``trank_vector``) always run on the calling thread.
"""

from repro.parallel.pool import (
    PARALLEL_MIN_QUERIES,
    effective_workers,
    solve_columns_parallel,
)
from repro.parallel.rows import RouteReport, active_route

__all__ = [
    "PARALLEL_MIN_QUERIES",
    "RouteReport",
    "active_route",
    "effective_workers",
    "solve_columns_parallel",
]
