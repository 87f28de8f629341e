"""Batched multi-query ranking: one power iteration, many teleport columns.

The single-query functions in :mod:`repro.core` solve one sparse fixed point
per query.  Serving many queries that way wastes the sparse operator: every
query re-streams the whole matrix.  This module stacks the teleport vectors
of ``q`` queries into an ``n x q`` matrix and solves *one* multi-column
fixed point

.. math::

    X = \\alpha S + (1 - \\alpha) \\, O \\, X

(``O = P^T`` for F-Rank, ``O = P`` for T-Rank), so each sweep over the
operator advances every query at once — the sparse-times-dense product
amortizes memory traffic across the batch.

Two solve methods share that multi-column sweep:

- ``method="power"`` — the reference multi-column power iteration with a
  per-column converged mask: finished columns are frozen and drop out of
  subsequent sweeps, so a batch is never slower than its slowest column
  requires.  Column ``j`` gets the same bits at any batch width, so
  :func:`repro.core.frank.power_iteration`, which solves its one column
  here, matches every batch bit for bit.
- ``method="auto"`` (default) — a mixed-precision accelerated path:
  Chebyshev semi-iteration (valid because the damped operator's spectral
  radius is at most ``1 - alpha``) runs the bulk of the sweeps in float32,
  then one or two float64 residual-correction rounds push the error to
  ``tol``.  A round after the first stops its float32 phase at the
  ``tol / scale`` relative accuracy it needs (``scale`` being the residual
  it corrects), not at the float32 floor.  The final iterate is *verified*
  against the true float64 residual; if the spectrum defeats Chebyshev
  (strongly directed graphs have complex eigenvalues) or float32 stalls,
  the solver falls back to the plain masked power iteration, which sweeps
  until every column verifies or the budget is spent, so accuracy never
  depends on the acceleration assumptions.  Its accelerated phases hold at
  most four float64 ``n x q`` blocks, the caller's teleports included (the
  fallback holds more).  Roughly 3-7x faster than sequential single-query
  solves on one core.

All operator products go through :class:`repro.ops.TransitionOperator` —
the per-graph prepared CSR (both orientations, per-dtype variants, damped
copies) and its matmat kernel live in :mod:`repro.ops`.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.core.frank import DEFAULT_ALPHA, ConvergenceWarning
from repro.core.queries import Query, normalize_query
from repro.graph.digraph import DiGraph
from repro.ops import TransitionOperator, as_operator, get_operator
from repro.utils.validation import check_in_range, check_positive

#: L1-delta floor reliably reachable by the float32 Chebyshev phases; below
#: this, progress must come from float64 residual correction.
_F32_FLOOR = 2e-6

#: Sweep budget for one float32 Chebyshev phase (a phase typically needs
#: ~20 sweeps; the budget only matters when float32 stalls).
_PHASE_BUDGET = 120

#: The per-node columns each served measure reads: F-Rank, T-Rank, or both
#: for RoundTripRank (their product, Proposition 2) and RoundTripRank+
#: (``f^(1-beta) * t^beta``, Eq. 12).  The gateway, its lanes and local
#: top-k check a measure and pick its columns here.
MEASURE_KINDS = {
    "roundtriprank": ("f", "t"),
    "roundtriprank_plus": ("f", "t"),
    "frank": ("f",),
    "trank": ("t",),
}
MEASURES = tuple(MEASURE_KINDS)

_OBS_SOLVES = obs.counter(
    "repro_engine_solves_total", "Batch solves by method.", labels=("method",)
)
_OBS_SWEEPS = obs.counter(
    "repro_engine_sweeps_total", "Total matvec sweeps spent in batch solves."
)


def _record_solve(span_, method: str, x: np.ndarray, norms: np.ndarray, sweeps: int) -> None:
    """Attach solver attributes (sweeps, residual, kernel, dtype) to a span."""
    if not obs.enabled():
        return
    from repro.ops.kernels import active_kernel

    report = active_kernel()
    span_.set_attributes(
        sweeps=int(sweeps),
        residual=float(np.max(norms)) if norms.size else 0.0,
        kernel=report.name,
        dtype=str(x.dtype),
    )
    with obs.span("ops.kernel", kernel=report.name, fallback=report.fallback_reason or ""):
        pass
    _OBS_SOLVES.inc(method=method)
    _OBS_SWEEPS.inc(int(sweeps))


def stack_teleports(graph: DiGraph, queries: Sequence[Query]) -> np.ndarray:
    """Stack the teleport vectors of ``queries`` into an ``n x q`` matrix.

    Each column is the weight-normalized teleport distribution of one query
    (single node, node sequence, or weighted mapping — see
    :func:`repro.core.queries.normalize_query`).
    """
    if len(queries) == 0:
        raise ValueError("queries must not be empty")
    s = np.zeros((graph.n_nodes, len(queries)))
    for j, query in enumerate(queries):
        nodes, weights = normalize_query(graph, query)
        s[nodes, j] = weights
    return s


def measure_kinds(measure: str) -> "tuple[str, ...]":
    """The columns ``measure`` reads (see :data:`MEASURE_KINDS`); rejects
    any other measure."""
    kinds = MEASURE_KINDS.get(measure)
    if kinds is None:
        raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")
    return kinds


def _jacobi_masked(top: TransitionOperator, base, damp, x, tol, budget):
    """Masked power iteration ``x <- base + damp * (top @ x)`` from ``x``.

    Columns whose L1 iterate delta falls below ``tol`` are frozen and leave
    the sweep.  While every column is active the sweep runs on the whole
    block and rebinds it, with no gather or scatter; either way each
    column gets the same bits.  Returns ``(x, per_column_delta,
    sweeps_used)``; the caller's ``x`` may be updated in place or not.
    """
    n_cols = base.shape[1]
    active = np.arange(n_cols)
    deltas = np.full(n_cols, np.inf)
    sweeps = 0
    while sweeps < budget and active.size:
        if active.size == n_cols:
            x_next = base + damp * top.matmat(x)
            step = np.abs(x_next - x).sum(axis=0)
            x = x_next
        else:
            x_active = x[:, active]
            x_next = base[:, active] + damp * top.matmat(x_active)
            step = np.abs(x_next - x_active).sum(axis=0)
            x[:, active] = x_next
        sweeps += 1
        deltas[active] = step
        active = active[step >= tol]
    return x, deltas, sweeps


def chebyshev_weights(damp: float) -> Iterator[float]:
    """Extrapolation weights of Chebyshev semi-iteration on ``[-damp, damp]``.

    Yields ``1.0`` for the plain first sweep, then ``2 / (2 - damp**2)`` and
    ``1 / (1 - damp**2 * omega / 4)`` for each later one: the weights of
    ``x_next = omega * (base + damp * O @ x) + (1 - omega) * x_prev``, whose
    error polynomial is the scaled Chebyshev polynomial, optimal when the
    spectrum of ``damp * O`` lies in the interval.  The engine's float32
    phases and the local top-k F-Rank sweeps (:mod:`repro.topk.local`) both
    take their weights from here.
    """
    yield 1.0
    omega = 2.0 / (2.0 - damp * damp)
    while True:
        yield omega
        omega = 1.0 / (1.0 - 0.25 * damp * damp * omega)


def _chebyshev_phase(damped_top: TransitionOperator, base, damp, tol, budget):
    """Chebyshev semi-iteration for ``x = base + damped_top @ x``.

    ``damped_top`` must already carry the ``damp`` factor (callers get it
    from :meth:`TransitionOperator.damped`, which caches the scaled float32
    copy per graph, keeping the sweep at four allocation-free dense passes).
    One dtype throughout (callers pass float32 for the bulk phases).  Valid
    when the damped operator's spectrum is (close to) real in
    ``[-damp, damp]`` — true for the mostly-undirected graphs this library
    targets; strongly directed spectra make it diverge, which the caller
    detects and handles.  Runs a fixed sweep schedule sized from the
    Chebyshev rate, then checks the iterate delta every few sweeps; bails
    out early on divergence or stagnation (float32 floor).

    Holds three ``base``-sized blocks: the two iterates and ``y``, which
    also serves as the delta scratch (between a sweep's swap and the next
    sweep it holds nothing live).

    Returns ``(x, sweeps_used, healthy)``; ``healthy=False`` flags
    divergence, *not* mere stagnation.
    """
    weights = chebyshev_weights(damp)
    next(weights)  # 1.0: the plain first sweep below
    x_old = base.copy()
    x = damped_top.matmat(x_old)
    x += base
    sweeps = 1
    # Asymptotic Chebyshev rate on [-damp, damp]; predicts when the target
    # delta is plausibly reached so most sweeps skip the delta computation.
    rate = damp / (1.0 + math.sqrt(1.0 - damp * damp))
    predicted = max(2, int(math.ceil(math.log(max(tol, 1e-300)) / math.log(rate))))
    y = np.empty_like(x)
    best = np.inf
    stalls = 0
    col_scale = 1.0
    scale_known = False
    k = 1
    while sweeps < budget:
        omega = next(weights)
        np.copyto(y, base)
        damped_top.matmat(x, out=y, accumulate=True)
        sweeps += 1
        y *= x.dtype.type(omega)
        x_old *= x.dtype.type(1.0 - omega)
        x_old += y
        x, x_old = x_old, x
        k += 1
        # One early guard check catches divergence; near the predicted sweep
        # count, check every other sweep.
        if k == 8 or (k >= predicted and k % 2 == 1) or sweeps >= budget:
            np.subtract(x, x_old, out=y)
            np.abs(y, out=y)
            delta = float(y.sum(axis=0).max())
            if not np.isfinite(delta) or delta > 1e4 * best + 1e4:
                return x, sweeps, False
            if not scale_known:
                # Scale-aware floor: wide solution columns raise the
                # reachable float32 delta proportionally.
                np.abs(x, out=y)
                col_scale = max(1.0, float(y.sum(axis=0).max()))
                scale_known = True
            if delta < tol * col_scale:
                return x, sweeps, True
            if delta > 0.5 * best:
                stalls += 1
                if stalls >= 3:  # at the precision floor; hand back
                    return x, sweeps, True
            else:
                stalls = 0
            best = min(best, delta)
    return x, sweeps, True


def _residual(top: TransitionOperator, teleports, alpha, x):
    """Float64 residual ``alpha * teleports + (1 - alpha) * (top @ x) - x``
    (one sweep; ``alpha * teleports`` is formed here, not held by callers)."""
    r = top.matmat(x)
    r *= 1.0 - alpha
    r += alpha * teleports
    r -= x
    return r


def _solve_auto(top: TransitionOperator, teleports, alpha, tol, max_iter):
    """Mixed-precision accelerated solve; falls back to masked power iteration.

    Returns ``(x, per_column_residual, sweeps_used)`` where the residual
    column norms are L1 and *verified* in float64 — the accuracy contract
    never rests on the float32/Chebyshev assumptions.  The float32 damped
    operator comes from the operator's own variant cache, so repeated solves
    (and column shards on other threads) never re-derive it.

    A float32 Chebyshev phase on ``alpha * teleports`` runs to the float32
    floor ``_F32_FLOOR`` (or to a looser ``tol``).  Each correction round
    solves ``d = r / scale + (1 - alpha) O d`` in float32, ``scale`` being
    the float64 residual's largest column norm, and adds ``scale * d``.  It
    needs only ``tol / scale`` relative accuracy, so rounds after the first
    stop at ``max(_F32_FLOOR, 0.1 * tol / scale)``; the first keeps the
    first phase's tolerance, so a solve that ends within two phases (most
    do) sweeps exactly as it would with every phase run to the floor.

    With ``B`` the float64 result's size, ``teleports`` and the iterate
    (``B`` each) live throughout; ``alpha * teleports`` is formed where it
    is used, and each phase's blocks are dropped before the next
    allocation, so a float32 phase (right-hand side, two iterates and
    ``y``, ``B/2`` each) and a residual (``B`` plus one temporary) both
    peak at ``4 B``.

    The masked power iteration stops on its step, the residual of the
    iterate *before* its last sweep; where ``O``'s column sums exceed one
    (T-Rank's ``P``), the iterate it returns can verify above ``tol``, so
    such columns sweep on while the budget lasts.  It starts from the
    accelerated iterate, except for columns whose verified residual grew
    from one correction round to the next: on strongly directed graphs a
    first phase can stall far from the fixed point and each correction
    then multiply its residual, so those columns restart from
    ``alpha * teleports`` as ``method="power"`` does (the flag reads the
    residuals the rounds compute anyway, at no extra product).
    """
    damp = 1.0 - alpha
    damped32 = top.damped(damp, np.float32)
    phase_tol = max(tol, _F32_FLOOR)
    sweeps_left = max_iter

    x = None
    # Columns whose verified residual grew from one correction round to the
    # next: their corrections diverge, so the fallback restarts them.
    grew = np.zeros(teleports.shape[1], dtype=bool)
    budget = min(_PHASE_BUDGET, sweeps_left)
    rhs32 = (alpha * teleports).astype(np.float32)
    x32, used, healthy = _chebyshev_phase(damped32, rhs32, damp, phase_tol, budget)
    # Each ``del`` drops a block before the next one is allocated; the
    # footprint above rests on them.
    del rhs32
    sweeps_left -= used
    if healthy:
        x = x32.astype(np.float64)
        del x32
        previous = None
        for correction in range(3):  # residual-correction rounds (typically one)
            if sweeps_left <= 0:
                break
            r = _residual(top, teleports, alpha, x)
            sweeps_left -= 1
            col_res = np.abs(r).sum(axis=0)
            if previous is not None:
                grew |= col_res > previous
            previous = col_res
            scale = float(col_res.max())
            if scale < tol:
                return x, col_res, max_iter - sweeps_left
            if correction:
                phase_tol = max(_F32_FLOOR, 0.1 * tol / scale)
            r *= 1.0 / scale
            rhs32 = r.astype(np.float32)
            del r
            budget = min(_PHASE_BUDGET, sweeps_left)
            d32, used, healthy = _chebyshev_phase(damped32, rhs32, damp, phase_tol, budget)
            del rhs32
            sweeps_left -= used
            if not healthy:
                break
            d = d32.astype(np.float64)
            del d32
            d *= scale
            x += d
            del d

    # Fallback / polish: the plain masked power iteration converges for any
    # substochastic operator regardless of spectrum.  Start from the best
    # iterate when the accelerated phases were healthy, else from scratch,
    # as also for the columns whose corrections made the residual grow.
    base = alpha * teleports
    if x is None:
        x = base.copy()
    elif grew.any():
        x[:, grew] = base[:, grew]
    col_res = np.empty(x.shape[1])
    cols = np.arange(x.shape[1])
    while True:
        x_cols, _, used = _jacobi_masked(
            top, base[:, cols], damp, x[:, cols], tol, max(0, sweeps_left)
        )
        sweeps_left -= used
        x[:, cols] = x_cols
        col_res[cols] = np.abs(_residual(top, teleports[:, cols], alpha, x_cols)).sum(axis=0)
        sweeps_left -= 1
        cols = cols[col_res[cols] >= tol]
        if cols.size == 0 or sweeps_left <= 0:
            return x, col_res, max_iter - sweeps_left


def solve_columns(operator, teleports, alpha, tol, max_iter, method):
    """The solve of :func:`power_iteration_batch`, without its warning.

    Validates the arguments as it does, runs the ``engine.solve`` span and
    returns ``(x, per_column_residual, sweeps)``; a caller that solves a
    batch in parts (:mod:`repro.parallel` runs one call per column shard)
    reassembles them and reports once through :func:`warn_unconverged`.
    """
    alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False)
    check_positive(tol, "tol")
    if max_iter <= 0:
        raise ValueError(f"max_iter must be > 0, got {max_iter}")
    if method not in ("auto", "power"):
        raise ValueError(f"method must be 'auto' or 'power', got {method!r}")
    top = as_operator(operator)
    teleports = np.asarray(teleports, dtype=np.float64)
    if teleports.ndim != 2:
        raise ValueError(f"teleports must be 2-D (n x q), got shape {teleports.shape}")
    if not np.isfinite(teleports).all():
        # A NaN column never fails ``delta >= tol``, so it would come back
        # "converged" with no warning.
        raise ValueError("teleports must be finite")
    n_queries = teleports.shape[1]

    with obs.span("engine.solve", method=method, queries=n_queries) as solve_span:
        # The masked loop returns a zero-width block without a sweep.
        if method == "power" or n_queries == 0:
            base = alpha * teleports
            x, norms, sweeps = _jacobi_masked(top, base, 1.0 - alpha, base.copy(), tol, max_iter)
        else:
            x, norms, sweeps = _solve_auto(top, teleports, alpha, tol, max_iter)
        _record_solve(solve_span, method, x, norms, sweeps)
    return x, norms, sweeps


def warn_unconverged(norms: np.ndarray, sweeps: int, max_iter: int, tol: float) -> None:
    """One :class:`ConvergenceWarning` if any column's residual is ``>= tol``.

    Attributed to the caller of the function that calls this one.
    """
    bad = norms >= tol
    if bad.any():
        warnings.warn(
            f"{int(bad.sum())} of {norms.size} batch columns did not converge in "
            f"{sweeps} sweeps (max_iter={max_iter}; worst residual "
            f"{norms.max():.3e} >= tol={tol:g})",
            ConvergenceWarning,
            stacklevel=3,
        )


def power_iteration_batch(
    operator,
    teleports: np.ndarray,
    alpha: float,
    tol: float = 1e-12,
    max_iter: int = 1000,
    method: str = "auto",
) -> np.ndarray:
    """Solve ``X = alpha * teleports + (1 - alpha) * operator @ X`` column-wise.

    ``operator`` is a :class:`repro.ops.TransitionOperator` or any scipy
    sparse matrix (wrapped on the fly; graph-backed callers should pass the
    cached operator from :func:`repro.ops.get_operator`).  ``teleports`` is
    ``n x q``; the result has the same shape.  With ``method="power"``,
    column ``j`` runs ``x <- alpha * s_j + (1 - alpha) * operator @ x`` from
    ``x = alpha * s_j`` until its L1 step falls below ``tol``, then leaves
    the sweep; its bits do not depend on the other columns or the batch
    width, so it is bit for bit what
    :func:`repro.core.frank.power_iteration` (a one-column call) returns
    for ``s_j``.  With
    ``method="auto"`` (the default) a mixed-precision Chebyshev-accelerated
    path produces columns whose *verified* float64 L1 residual is below
    ``tol`` — within ``tol / alpha`` of the exact fixed point, and within
    the same bound of the ``"power"`` result (far tighter than the 1e-10
    the test-suite parity checks require at the default ``tol``).  Its
    accelerated phases hold at most four float64 ``n x q`` blocks at once,
    ``teleports`` and the result included (see :func:`_solve_auto` for the
    layout and for how tightly each correction round solves).

    Columns still above ``tol`` when the sweep budget ``max_iter`` is
    exhausted trigger one :class:`repro.core.frank.ConvergenceWarning`
    that reports the sweeps run.  Non-finite ``teleports`` raise
    ``ValueError`` before any sweep.
    """
    x, norms, sweeps = solve_columns(operator, teleports, alpha, tol, max_iter, method)
    warn_unconverged(norms, sweeps, max_iter, tol)
    return x


def _solve_queries(
    graph: DiGraph,
    queries: Sequence[Query],
    transpose: bool,
    alpha: float,
    tol: float,
    max_iter: int,
    method: str,
    workers: "int | None",
) -> np.ndarray:
    """F-Rank (``transpose=True``) or T-Rank columns of ``queries``.

    Sharded across :mod:`repro.parallel` threads when ``workers`` clears
    the crossover, otherwise one :func:`power_iteration_batch` call (the
    engine entry point tracers wrap).  Either path issues at most one
    :class:`ConvergenceWarning` with the same text, attributed to this
    module.
    """
    if workers is not None:
        # Lazy: repro.parallel imports repro.engine at module level.
        from repro.parallel.pool import maybe_solve_batch_parallel

        solved = maybe_solve_batch_parallel(
            graph, queries, transpose, alpha, tol, max_iter, method, workers
        )
        if solved is not None:
            x, norms, sweeps = solved
            warn_unconverged(norms, sweeps, max_iter, tol)
            return x
    return power_iteration_batch(
        get_operator(graph, transpose=transpose),
        stack_teleports(graph, queries),
        alpha,
        tol=tol,
        max_iter=max_iter,
        method=method,
    )


def frank_batch(
    graph: DiGraph,
    queries: Sequence[Query],
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 1000,
    method: str = "auto",
    workers: "int | None" = None,
) -> np.ndarray:
    """F-Rank of every node for every query, as an ``n x q`` column stack.

    Column ``j`` equals ``frank_vector(graph, queries[j], alpha)`` (to the
    verified ``tol``; bit-exact with ``method="power"``).

    ``workers`` shards the columns across that many :mod:`repro.parallel`
    threads, all sweeping the graph's one cached operator.  Batches below
    the shards' crossover (see :func:`repro.parallel.effective_workers`) run
    the sequential path; either way the decision is recorded in
    :func:`repro.parallel.active_route`.  Results are independent of the
    worker count (bit-exact for ``method="power"``, within the verified
    residual ``tol`` for ``method="auto"``).
    """
    return _solve_queries(graph, queries, True, alpha, tol, max_iter, method, workers)


def trank_batch(
    graph: DiGraph,
    queries: Sequence[Query],
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 1000,
    method: str = "auto",
    workers: "int | None" = None,
) -> np.ndarray:
    """T-Rank of every node for every query, as an ``n x q`` column stack.

    Column ``j`` equals ``trank_vector(graph, queries[j], alpha)`` (to the
    verified ``tol``; bit-exact with ``method="power"``).  ``workers``
    behaves exactly as in :func:`frank_batch`.
    """
    return _solve_queries(graph, queries, False, alpha, tol, max_iter, method, workers)


def _per_node_ft(
    graph: DiGraph,
    parsed: "list[tuple[np.ndarray, np.ndarray]]",
    alpha: float,
    tol: float,
    max_iter: int,
    method: str,
    workers: "int | None" = None,
) -> "tuple[np.ndarray, np.ndarray, list[int]]":
    """Batched (F, T) columns for the union of single query nodes.

    RoundTripRank is *not* linear in the teleport vector — a multi-node query
    needs the per-node product ``f_i * t_i`` before the weighted sum — so the
    batch expands every distinct query node into its own column and solves
    all of them in two multi-column sweeps (one for F, one for T).  Returns
    the two stacks and the node of each column.
    """
    all_nodes = np.unique(np.concatenate([nodes for nodes, _ in parsed]))
    columns = [int(v) for v in all_nodes]
    f = frank_batch(graph, columns, alpha, tol, max_iter, method, workers)
    t = trank_batch(graph, columns, alpha, tol, max_iter, method, workers)
    return f, t, columns


def normalize_columns(scores: np.ndarray, what: str) -> np.ndarray:
    """Normalize each column to sum to one, warning on zero-mass columns.

    A zero-mass column cannot be a distribution; it is returned as all zeros
    and a ``RuntimeWarning`` is emitted so callers notice the broken
    "sums to one" contract instead of silently consuming zeros.

    Each total is summed over a contiguous copy of its column, so a
    column's bits do not depend on how many other columns share the stack
    (numpy adds a strided column in a different order than a lone one).
    """
    totals = np.asfortranarray(scores).sum(axis=0)
    zero = totals <= 0.0
    if zero.any():
        warnings.warn(
            f"{what}: {int(zero.sum())} of {scores.shape[1]} queries have zero "
            "total mass; their score vectors are all-zeros, not distributions",
            RuntimeWarning,
            stacklevel=3,
        )
    safe = np.where(zero, 1.0, totals)
    return scores / safe


def combine_columns(
    measure: str,
    f: "np.ndarray | None",
    t: "np.ndarray | None",
    columns: "Sequence[int]",
    parsed: "Sequence[tuple[np.ndarray, np.ndarray]]",
    beta: float = 0.5,  # mirrors repro.core.roundtrip_plus.DEFAULT_BETA
) -> np.ndarray:
    """Per-query scores from per-node F/T column stacks, as an ``n x q`` stack.

    ``f`` / ``t`` hold one solved column per node in ``columns`` (either may
    be ``None`` when ``measure`` does not read it); ``parsed`` holds the
    ``(nodes, weights)`` of each query (see
    :func:`repro.core.queries.normalize_query`).  Column ``j`` is the
    weighted sum over query ``j``'s nodes of ``f`` (``"frank"``), ``t``
    (``"trank"``), ``f * t`` (``"roundtriprank"``, Proposition 2) or
    ``f^(1-beta) * t^beta`` (``"roundtriprank_plus"``, Eq. 12).  Every path
    that serves these measures from per-node columns (the batch engine, the
    gateway's cached lanes and the local top-k escalation) combines them
    here, so equal columns give equal bits on every path.  Unnormalized.
    """
    # Imported lazily: roundtrip_plus rewires onto this module, so a
    # module-level import would be circular.
    from repro.core.roundtrip_plus import combine_beta

    col_of = {v: j for j, v in enumerate(columns)}
    n = (f if f is not None else t).shape[0]
    scores = np.zeros((n, len(parsed)))
    for j, (nodes, weights) in enumerate(parsed):
        cols = [col_of[int(v)] for v in nodes]
        if measure == "frank":
            scores[:, j] = f[:, cols] @ weights
        elif measure == "trank":
            scores[:, j] = t[:, cols] @ weights
        elif measure == "roundtriprank":
            scores[:, j] = (f[:, cols] * t[:, cols]) @ weights
        else:  # roundtriprank_plus
            for col, weight in zip(cols, weights.tolist()):
                scores[:, j] += weight * combine_beta(f[:, col], t[:, col], beta)
    return scores


def roundtriprank_batch(
    graph: DiGraph,
    queries: Sequence[Query],
    alpha: float = DEFAULT_ALPHA,
    normalize: bool = True,
    tol: float = 1e-12,
    max_iter: int = 1000,
    method: str = "auto",
    workers: "int | None" = None,
) -> np.ndarray:
    """RoundTripRank of every node for every query, as an ``n x q`` stack.

    Column ``j`` equals ``roundtriprank(graph, queries[j], alpha)``.  All
    distinct query nodes across the batch share two multi-column solves (F
    and T); per-query scores are the weighted per-node ``f * t`` products of
    Proposition 2.  ``workers`` shards both solves across
    :mod:`repro.parallel` threads as in :func:`frank_batch`.

    With ``normalize=True`` each column sums to one *when it has positive
    mass*; a zero-mass column stays all-zeros and triggers a
    ``RuntimeWarning`` (see :func:`repro.core.roundtrip.roundtriprank`).
    """
    if len(queries) == 0:
        raise ValueError("queries must not be empty")
    parsed = [normalize_query(graph, q) for q in queries]
    f, t, columns = _per_node_ft(graph, parsed, alpha, tol, max_iter, method, workers)
    scores = combine_columns("roundtriprank", f, t, columns, parsed)
    if normalize:
        scores = normalize_columns(scores, "roundtriprank_batch")
    return scores


def roundtriprank_plus_batch(
    graph: DiGraph,
    queries: Sequence[Query],
    beta: float = 0.5,  # mirrors repro.core.roundtrip_plus.DEFAULT_BETA
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 1000,
    method: str = "auto",
    workers: "int | None" = None,
) -> np.ndarray:
    """RoundTripRank+ (Eq. 12) of every node for every query, ``n x q``.

    Column ``j`` equals ``roundtriprank_plus(graph, queries[j], beta, alpha)``
    — the ``f^(1-beta) * t^beta`` combination, unnormalized as in the
    single-query function.  ``workers`` behaves as in :func:`frank_batch`.
    """
    if len(queries) == 0:
        raise ValueError("queries must not be empty")
    parsed = [normalize_query(graph, q) for q in queries]
    f, t, columns = _per_node_ft(graph, parsed, alpha, tol, max_iter, method, workers)
    return combine_columns("roundtriprank_plus", f, t, columns, parsed, beta)
