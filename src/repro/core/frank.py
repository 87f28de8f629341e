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

import numpy as np

from repro.core.queries import Query, teleport_vector
from repro.graph.digraph import DiGraph
from repro.ops import get_operator

DEFAULT_ALPHA = 0.25  # the paper's setting throughout Sect. VI


class ConvergenceWarning(RuntimeWarning):
    """Power iteration exhausted ``max_iter`` before the residual fell below ``tol``."""


def power_iteration(
    operator,
    teleport: np.ndarray,
    alpha: float,
    tol: float = 1e-12,
    max_iter: int = 1000,
) -> np.ndarray:
    """Solve ``x = alpha * teleport + (1 - alpha) * operator @ x`` by iteration.

    Shared by F-Rank (``operator = P^T``) and T-Rank (``operator = P``).
    ``operator`` is a :class:`repro.ops.TransitionOperator` or any scipy
    sparse matrix (wrapped on the fly).  The solve is the one-column
    :func:`repro.engine.batch.power_iteration_batch` with
    ``method="power"``: sweeps from ``x = alpha * teleport`` until the L1
    step falls below ``tol``, bit for bit what any ``method="power"`` batch
    returns for this column.  Converges for any row-/column-substochastic operator because
    the update is an L1 contraction with factor ``1 - alpha``.

    If ``max_iter`` is exhausted while the L1 step is still >= ``tol``, a
    :class:`ConvergenceWarning` is emitted and the last iterate is returned
    as-is.  A ``teleport`` that is not one finite vector raises
    ``ValueError`` before any sweep.
    """
    # Imported here: the engine imports this module at load time.
    from repro.engine.batch import power_iteration_batch

    teleport = np.asarray(teleport, dtype=np.float64)
    if teleport.ndim != 1:
        raise ValueError(f"teleport must be 1-D, got shape {teleport.shape}")
    if not np.isfinite(teleport).all():
        raise ValueError("teleport must be finite")
    return power_iteration_batch(
        operator, teleport[:, None], alpha, tol=tol, max_iter=max_iter, method="power"
    )[:, 0]


def frank_vector(
    graph: DiGraph,
    query: Query,
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 1000,
) -> np.ndarray:
    """F-Rank of every node for ``query`` (== Personalized PageRank).

    Returns a dense vector ``f`` with ``f[v] = f(q, v)``; entries are
    non-negative and sum to one.  For many queries at once use
    :func:`repro.engine.frank_batch`, which runs a single multi-column
    power iteration instead of one solve per query.
    """
    s = teleport_vector(graph, query)
    return power_iteration(
        get_operator(graph, transpose=True), s, alpha, tol=tol, max_iter=max_iter
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

