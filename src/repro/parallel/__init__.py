"""Multi-process execution layer: sharded batch solves over shared memory.

The single-process batch engine tops out at one core; this package lifts
the multi-query paths onto a process pool:

- :mod:`repro.parallel.shm` — publish the CSR operator once into
  ``multiprocessing.shared_memory``, float32 values segment included;
  workers attach zero-copy (:class:`SharedCSR` / :func:`attach_csr` /
  :func:`attach_operator` — which rebuilds a full
  :class:`repro.ops.TransitionOperator`, both precisions shared — and the
  picklable :class:`CSRHandle`).
- :mod:`repro.parallel.pool` — the ``spawn``-based worker pool, the
  column-striped shard solver (:func:`solve_columns_parallel`, reusing
  :class:`repro.distributed.StripeMap` for assignment), the
  :func:`effective_workers` crossover heuristic, and :func:`shutdown`
  (pool teardown + segment unlink, also wired to ``atexit``).
- :mod:`repro.parallel.rows` — the last routing decision of a
  ``workers=`` batch call (column-sharded, or sequential with the reason),
  readable via :func:`active_route`.
- :mod:`repro.parallel.walks` — :func:`sample_trip_terminals_parallel`,
  sharded Monte Carlo trips with per-shard ``SeedSequence.spawn`` streams
  (reproducible for fixed ``(seed, workers)``).

Callers rarely touch this package directly: every batch entry point grew a
``workers=`` knob that routes here —
``frank_batch(graph, queries, workers=4)``,
``roundtriprank_batch(..., workers=4)``,
``MicroBatcher(graph, workers=4)``, ``ColumnCache(workers=4)`` (whose
``warm(..., workers=)`` per-call override is how the gateway's background
:class:`repro.gateway.Prefetcher` shards its warming batches while
interactive misses stay sequential), ``run_task_suite(..., workers=4)``.
``method="power"`` results are
bit-exact for any worker count; ``method="auto"`` stays within the verified
residual tolerance.  Small batches fall back to the sequential path
automatically (see :func:`effective_workers`).  Single-query solvers
(``frank_vector``/``trank_vector``) always run in-process.
"""

from repro.parallel.pool import (
    PARALLEL_MIN_QUERIES,
    PoolRetiredError,
    WorkerPool,
    effective_workers,
    get_pool,
    shared_operator,
    shutdown,
    solve_columns_parallel,
)
from repro.parallel.rows import RouteReport, active_route
from repro.parallel.shm import (
    CSRHandle,
    SharedCSR,
    attach_csr,
    attach_operator,
    live_segment_names,
)
from repro.parallel.walks import PARALLEL_MIN_SAMPLES, sample_trip_terminals_parallel

__all__ = [
    "PARALLEL_MIN_QUERIES",
    "PARALLEL_MIN_SAMPLES",
    "RouteReport",
    "active_route",
    "PoolRetiredError",
    "WorkerPool",
    "effective_workers",
    "get_pool",
    "shared_operator",
    "shutdown",
    "solve_columns_parallel",
    "CSRHandle",
    "SharedCSR",
    "attach_csr",
    "attach_operator",
    "live_segment_names",
    "sample_trip_terminals_parallel",
]
