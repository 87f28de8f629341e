"""T-Rank: rank by reachability *to* the query (specificity).

T-Rank is the probability that a walk of geometric length ``L' ~ Geo(alpha)``
starting at the target node ends at the query:
``t(q, v) = p(W_{L'} = q | W_0 = v)``.  The more likely the surfer returns to
the query from ``v``, the more specific ``v`` is to the query (Sect. III-A).

The iterative computation is Eq. 8, symmetric to F-Rank on out-neighbors:

.. math::

    t^{(i+1)}(q, v) = \\alpha I(q, v)
        + (1 - \\alpha) \\sum_{v' \\in Out(v)} M_{vv'} t^{(i)}(q, v')

i.e. the fixed point of ``t = alpha * s + (1 - alpha) P t``.  Note ``t`` is
*not* a distribution over ``v``: each entry is a per-source probability.
"""

from __future__ import annotations

import numpy as np

from repro.core.frank import DEFAULT_ALPHA, power_iteration
from repro.core.queries import Query, teleport_vector
from repro.graph.digraph import DiGraph
from repro.ops import get_operator


def trank_vector(
    graph: DiGraph,
    query: Query,
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 1000,
) -> np.ndarray:
    """T-Rank of every node for ``query``.

    Returns a dense vector ``t`` with ``t[v] = t(q, v)`` in [0, 1].  For a
    multi-node query, linearity applies: the result is the weighted
    combination of the single-node T-Rank vectors (equivalently, the
    probability of ending at a query node drawn from the query weights).
    """
    s = teleport_vector(graph, query)
    return power_iteration(
        get_operator(graph, transpose=False), s, alpha, tol=tol, max_iter=max_iter
    )


def trank_constant_length(graph: DiGraph, query: Query, length: int) -> np.ndarray:
    """``p(W_length = q | W_0 = v)`` for a *constant* walk length (Fig. 4 oracle)."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    x = teleport_vector(graph, query)
    top = get_operator(graph, transpose=False)
    for _ in range(length):
        x = top.matvec(x)
    return np.asarray(x).ravel()

