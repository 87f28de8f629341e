"""Naive exact top-K: full iterative F-Rank and T-Rank (the Fig. 11 baseline).

Runs the Eq. 5 and Eq. 8 power iterations over the entire graph and sorts —
no bounds, no locality, no early stopping.  2SBound is validated against
this oracle and benchmarked against it for speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.frank import DEFAULT_ALPHA, power_iteration
from repro.core.queries import Query, normalize_query, teleport_vector
from repro.graph.digraph import DiGraph
from repro.ops import get_operator
from repro.serving.topk import topk_select
from repro.utils.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class ExactTopK:
    """Exact top-K result with the full score vector for quality metrics."""

    nodes: list[int]
    scores: np.ndarray  # unnormalized r = f * t for every node

    def ranking(self) -> list[int]:
        """The top-K node ids, best first (a defensive copy)."""
        return list(self.nodes)


def naive_topk(
    graph: DiGraph,
    query: Query,
    k: int,
    alpha: float = DEFAULT_ALPHA,
    candidate_mask: "np.ndarray | None" = None,
    exclude: "frozenset[int] | set[int] | None" = None,
    tol: float = 1e-12,
) -> ExactTopK:
    """Exact top-K RoundTripRank by full iterative computation.

    ``candidate_mask`` / ``exclude`` mirror the 2SBound driver so results
    are directly comparable.  Ties break by node id.  Multi-node queries
    combine linearly per query node (``sum w_i * f_i * t_i``), matching
    :func:`repro.core.roundtriprank` — a round trip starts and ends at the
    *same* sampled query node.
    """
    k = check_positive_int(k, "k")
    check_positive(tol, "tol")
    nodes, weights = normalize_query(graph, query)
    # The oracle's full-graph fixed points run on the shared prepared
    # operators of repro.ops — identical arithmetic to frank_vector /
    # trank_vector, fetched once instead of per query node.
    f_op = get_operator(graph, transpose=True)
    t_op = get_operator(graph, transpose=False)
    scores = np.zeros(graph.n_nodes)
    for node, weight in zip(nodes.tolist(), weights.tolist()):
        s = teleport_vector(graph, node)
        f = power_iteration(f_op, s, alpha, tol=tol)
        t = power_iteration(t_op, s, alpha, tol=tol)
        scores += weight * f * t
    order, _ = topk_select(scores, k, exclude=exclude, candidate_mask=candidate_mask)
    return ExactTopK(nodes=order.tolist(), scores=scores)
