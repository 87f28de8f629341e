"""F-Rank: rank by reachability *from* the query (importance).

F-Rank is the probability that a trip of geometric length ``L ~ Geo(alpha)``
starting at the query ends at the target node (Eq. 1 of the paper), and is
identical to Personalized PageRank with teleporting probability ``alpha``
(Proposition 1, due to Fogaras et al.).

The iterative computation is Eq. 5:

.. math::

    f^{(i+1)}(q, v) = \\alpha I(q, v)
        + (1 - \\alpha) \\sum_{v' \\in In(v)} M_{v'v} f^{(i)}(q, v')

which in matrix form is the fixed point of ``f = alpha * s + (1-alpha) P^T f``
with ``s`` the teleport distribution.  Because ``(1-alpha) P^T`` is a strict
contraction in L1, power iteration converges geometrically.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.queries import Query, teleport_vector
from repro.graph.digraph import DiGraph
from repro.ops import as_operator, get_operator
from repro.utils.validation import check_in_range, check_positive

DEFAULT_ALPHA = 0.25  # the paper's setting throughout Sect. VI


class ConvergenceWarning(RuntimeWarning):
    """Power iteration exhausted ``max_iter`` before the residual fell below ``tol``."""


def power_iteration(
    operator,
    teleport: np.ndarray,
    alpha: float,
    tol: float = 1e-12,
    max_iter: int = 1000,
    warn_on_nonconvergence: bool = True,
) -> np.ndarray:
    """Solve ``x = alpha * teleport + (1 - alpha) * operator @ x`` by iteration.

    Shared by F-Rank (``operator = P^T``) and T-Rank (``operator = P``).
    ``operator`` is a :class:`repro.ops.TransitionOperator` or any scipy
    sparse matrix (wrapped on the fly); each sweep is the operator's
    single-vector ``matvec``.  Converges for any row-/column-substochastic
    operator because the update is an L1 contraction with factor
    ``1 - alpha``.

    If ``max_iter`` is exhausted while the L1 residual is still >= ``tol``,
    a :class:`ConvergenceWarning` is emitted (pass
    ``warn_on_nonconvergence=False`` to opt out) and the last iterate is
    returned as-is, so callers can detect and handle non-convergence.
    A non-finite ``teleport`` raises ``ValueError`` before any sweep.
    """
    alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False)
    check_positive(tol, "tol")
    if max_iter <= 0:
        raise ValueError(f"max_iter must be > 0, got {max_iter}")
    if not np.isfinite(teleport).all():
        # A NaN iterate never passes ``delta < tol``: all max_iter sweeps
        # would run and return NaN without a warning.
        raise ValueError("teleport must be finite")
    top = as_operator(operator)
    x = alpha * teleport
    base = alpha * teleport
    damp = 1.0 - alpha
    delta = np.inf
    for _ in range(max_iter):
        x_next = base + damp * top.matvec(x)
        delta = float(np.abs(x_next - x).sum())
        x = x_next
        if delta < tol:
            break
    if warn_on_nonconvergence and delta >= tol:
        warnings.warn(
            f"power iteration did not converge within max_iter={max_iter} "
            f"(final residual {delta:.3e} >= tol={tol:g})",
            ConvergenceWarning,
            stacklevel=2,
        )
    return x


def frank_vector(
    graph: DiGraph,
    query: Query,
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 1000,
    warn_on_nonconvergence: bool = True,
) -> np.ndarray:
    """F-Rank of every node for ``query`` (== Personalized PageRank).

    Returns a dense vector ``f`` with ``f[v] = f(q, v)``; entries are
    non-negative and sum to one.  For many queries at once use
    :func:`repro.engine.frank_batch`, which runs a single multi-column
    power iteration instead of one solve per query.
    """
    s = teleport_vector(graph, query)
    return power_iteration(
        get_operator(graph, transpose=True), s, alpha, tol=tol, max_iter=max_iter,
        warn_on_nonconvergence=warn_on_nonconvergence,
    )


def frank_constant_length(graph: DiGraph, query: Query, length: int) -> np.ndarray:
    """``p(W_L = v | W_0 ~ query)`` for a *constant* walk length ``L``.

    Used by the Fig. 4 toy-example oracle, where the paper assumes
    ``L = L' = 2`` for simplicity.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    dist = teleport_vector(graph, query)
    top = get_operator(graph, transpose=False)
    for _ in range(length):
        dist = top.rmatvec(dist)
    return dist


def ppr(graph: DiGraph, query: Query, alpha: float = DEFAULT_ALPHA, **kwargs) -> np.ndarray:
    """Alias for :func:`frank_vector` under its classical name (Prop. 1)."""
    return frank_vector(graph, query, alpha, **kwargs)
