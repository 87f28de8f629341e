"""Thread-sharded batch solver: a batch's columns split across threads.

The batch engine (:mod:`repro.engine.batch`) advances every column of a
batch in one multi-column sweep on one core.  Each column is its own fixed
point (RoundTripRank splits into per-node F-Rank and T-Rank columns,
Proposition 2), so this module splits a multi-query batch *column-wise*
across threads:

- shard assignment reuses :class:`repro.distributed.striping.StripeMap`
  (round-robin over columns), which also balances convergence-heterogeneous
  columns across shards;
- every shard runs the engine's own solve
  (:func:`repro.engine.batch.solve_columns`) on its columns, against the
  graph's cached operator (:func:`repro.ops.get_operator`).  scipy's CSR
  products release the GIL, so the shards' sweeps overlap, and the
  operator's variant and damped caches take its lock.

Because the masked power iteration updates every column independently,
``method="power"`` results are **bit-exact** for any ``(workers, shard)``
split — ``workers=4`` equals ``workers=1`` equals the single-query solver,
bit for bit.  ``method="auto"`` verifies a float64 residual per column, so
shards agree to the solver tolerance (the Chebyshev stopping heuristics see
per-shard column maxima, hence bit-level differences are possible but bounded
by ``tol``).

Crossover heuristic
-------------------
Starting the shards' threads and the per-shard phases cost more than they
save on tiny batches, so :func:`effective_workers` falls back to the
sequential path unless the batch has at least
``max(PARALLEL_MIN_QUERIES, 2 * workers)`` columns; ``workers=None``/``0``/``1``
always mean "sequential".  Every decision of a ``workers=`` batch call, with
the reason when it stays sequential, is recorded for
:func:`repro.parallel.active_route`.

Lifetime
--------
Each call starts its own threads and joins them before it returns, so
nothing outlives a call.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.queries import Query, normalize_query
from repro.distributed.striping import StripeMap
from repro.engine.batch import solve_columns
from repro.graph.digraph import DiGraph
from repro.ops import TransitionOperator, get_operator
from repro.parallel.rows import RouteReport, record_route
from repro.utils.validation import check_in_range, check_positive

#: smallest batch worth sharding at all (see :func:`effective_workers`).
PARALLEL_MIN_QUERIES = 8


def effective_workers(n_queries: int, workers: "int | None") -> int:
    """Shard count actually used for an ``n_queries``-column batch.

    Returns ``0`` when the batch should take the sequential path:
    ``workers`` is ``None``/``0``/``1``, or the batch is below the crossover
    ``max(PARALLEL_MIN_QUERIES, 2 * workers)`` (each shard must amortize its
    overhead over at least two columns).  Never exceeds ``n_queries``.
    """
    if workers is None:
        return 0
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0 or None, got {workers}")
    if workers <= 1:
        return 0
    if n_queries < max(PARALLEL_MIN_QUERIES, 2 * workers):
        return 0
    return min(workers, n_queries)


def _solve_shard(
    top: TransitionOperator,
    teleports: "list[tuple[np.ndarray, np.ndarray]]",
    alpha: float,
    tol: float,
    max_iter: int,
    method: str,
) -> "tuple[np.ndarray, np.ndarray, int]":
    """Solve one column shard; returns ``(columns, residuals, sweeps)``.

    Stacks the shard's own teleports on its thread, then runs exactly
    :func:`repro.engine.batch.solve_columns` on them.
    """
    s = np.zeros((top.n_nodes, len(teleports)))
    for j, (nodes, weights) in enumerate(teleports):
        s[nodes, j] = weights
    return solve_columns(top, s, alpha, tol, max_iter, method)


def solve_columns_parallel(
    graph: DiGraph,
    parsed: "list[tuple[np.ndarray, np.ndarray]]",
    transpose: bool,
    alpha: float,
    tol: float,
    max_iter: int,
    method: str,
    n_shards: int,
) -> "tuple[np.ndarray, np.ndarray, int]":
    """Solve pre-parsed teleport columns across ``n_shards`` threads.

    ``parsed[j]`` is the ``(nodes, weights)`` teleport of column ``j`` (the
    output of :func:`repro.core.queries.normalize_query`).  Columns are
    striped over shards round-robin via :class:`StripeMap` and reassembled
    in place, so the columns are column-for-column what the sequential
    solver returns (bit-exact with ``method="power"``).  Returns
    ``(x, per_column_residual, sweeps)`` as
    :func:`repro.engine.batch.solve_columns` does, and like it does not
    warn: the batch entry points issue the one
    :class:`~repro.core.frank.ConvergenceWarning` for either path.  A
    shard's exception is re-raised here once every shard has finished.
    """
    alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False)
    check_positive(tol, "tol")
    if max_iter <= 0:
        raise ValueError(f"max_iter must be > 0, got {max_iter}")
    if method not in ("auto", "power"):
        raise ValueError(f"method must be 'auto' or 'power', got {method!r}")
    n_queries = len(parsed)
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    top = get_operator(graph, transpose=transpose)
    stripe = StripeMap(n_queries, n_shards)
    x = np.empty((graph.n_nodes, n_queries))
    norms = np.empty(n_queries)
    sweeps = 0
    with (
        obs.span("parallel.columns", queries=n_queries, shards=n_shards),
        ThreadPoolExecutor(max_workers=n_shards) as executor,
    ):
        shards = []
        for shard_id in range(n_shards):
            cols = stripe.owned_nodes(shard_id)
            if cols.size == 0:
                continue
            # One context per shard: a Context can be entered by one
            # thread at a time, and each copy parents the shard's
            # engine.solve span on parallel.columns.
            future = executor.submit(
                contextvars.copy_context().run,
                _solve_shard,
                top,
                [parsed[j] for j in cols],
                alpha,
                tol,
                max_iter,
                method,
            )
            shards.append((cols, future))
        for cols, future in shards:
            x[:, cols], norms[cols], shard_sweeps = future.result()
            sweeps = max(sweeps, shard_sweeps)
    return x, norms, sweeps


def maybe_solve_batch_parallel(
    graph: DiGraph,
    queries: Sequence[Query],
    transpose: bool,
    alpha: float,
    tol: float,
    max_iter: int,
    method: str,
    workers: "int | None",
) -> "tuple[np.ndarray, np.ndarray, int] | None":
    """Shard dispatch for ``frank_batch``/``trank_batch``-shaped calls.

    Returns ``None`` when the crossover heuristic picks the sequential path
    (the caller then runs its normal single-threaded solve); otherwise
    :func:`solve_columns_parallel`'s ``(x, per_column_residual, sweeps)``.
    Either way the decision is recorded for
    :func:`repro.parallel.active_route`.
    """
    n_shards = effective_workers(len(queries), workers)
    if n_shards == 0:
        if workers is not None and int(workers) > 1:
            crossover = max(PARALLEL_MIN_QUERIES, 2 * int(workers))
            reason = (
                f"batch of {len(queries)} is below the column-shard crossover "
                f"max(PARALLEL_MIN_QUERIES, 2 * workers) = {crossover}"
            )
        else:
            reason = f"workers={workers!r} selects the sequential path"
        record_route(RouteReport(False, 0, reason))
        return None
    record_route(RouteReport(True, n_shards, None))
    parsed = [normalize_query(graph, query) for query in queries]
    return solve_columns_parallel(
        graph, parsed, transpose, alpha, tol, max_iter, method, n_shards
    )
