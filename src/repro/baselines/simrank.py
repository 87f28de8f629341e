"""SimRank (Jeh & Widom, KDD 2002) — a mono-sensed "closeness" baseline.

SimRank scores structural-context similarity:

.. math::

    s(a, b) = \\frac{C}{|In(a)||In(b)|}
        \\sum_{i \\in In(a)} \\sum_{j \\in In(b)} s(i, j), \\qquad s(a, a) = 1

Two computation paths are provided:

- :func:`simrank_matrix` — the exact iterative matrix form
  ``S <- max(C * W^T S W, I)`` with ``W`` the column-normalized (unweighted)
  in-neighbor matrix.  Dense ``n x n``; for small and mid-size graphs.
- :func:`simrank_single_source` — the Fogaras-style fingerprint Monte Carlo
  estimator: ``s(q, v) = E[C^{tau(q,v)}]`` with ``tau`` the first meeting
  time of two coupled reverse random walks.  Linear memory; used on graphs
  too large for the dense matrix.

The paper runs SimRank with ``C = 0.85`` ("as recommended, which we find
robust"), our default.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np
import scipy.sparse as sp

from repro.baselines.base import ProximityMeasure
from repro.core.queries import Query, normalize_query
from repro.graph.digraph import DiGraph
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_node_id, check_positive_int, check_probability

DEFAULT_C = 0.85
#: above this size the dense matrix would not fit comfortably; the measure
#: switches to the Monte Carlo estimator.
DENSE_NODE_LIMIT = 1500


def _in_neighbor_walk_matrix(graph: DiGraph) -> sp.csr_matrix:
    """Column-stochastic matrix ``W`` with ``W[i, a] = 1/|In(a)|`` for ``i in In(a)``.

    SimRank's walks are structural: each in-neighbor is equally likely,
    regardless of edge weight, per the original definition.
    """
    adj = (graph.weights > 0).astype(np.float64)  # unweighted structure
    in_deg = np.asarray(adj.sum(axis=0)).ravel()
    coo = adj.tocoo()
    inv = np.zeros(graph.n_nodes)
    nz = in_deg > 0
    inv[nz] = 1.0 / in_deg[nz]
    data = coo.data * inv[coo.col]
    return sp.csr_matrix((data, (coo.row, coo.col)), shape=adj.shape)


def simrank_matrix(
    graph: DiGraph,
    c: float = DEFAULT_C,
    max_iter: int = 10,
    tol: float = 1e-4,
) -> np.ndarray:
    """Exact SimRank similarity matrix by fixed-point iteration (dense).

    Iterates ``S <- C * W^T S W`` then resets the diagonal to one, starting
    from the identity; stops when the max-norm change drops below ``tol``.
    Raises on graphs with more than 20 000 nodes (dense blow-up guard).
    """
    c = check_probability(c, "c")
    max_iter = check_positive_int(max_iter, "max_iter")
    n = graph.n_nodes
    if n > 20000:
        raise ValueError(
            f"simrank_matrix is dense O(n^2); n={n} is too large — "
            "use simrank_single_source instead"
        )
    w = _in_neighbor_walk_matrix(graph)
    s = np.eye(n)
    for _ in range(max_iter):
        s_next = c * (w.T @ (w.T @ s).T)  # W^T S W exploiting symmetry of S
        np.fill_diagonal(s_next, 1.0)
        delta = float(np.max(np.abs(s_next - s)))
        s = s_next
        if delta < tol:
            break
    return s


def simrank_single_source(
    graph: DiGraph,
    query: int,
    c: float = DEFAULT_C,
    n_samples: int = 120,
    horizon: int = 8,
    seed: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Monte Carlo single-source SimRank ``s(query, v)`` for all ``v``.

    Runs ``n_samples`` coupled rounds; in each round every node performs one
    reverse random walk of up to ``horizon`` steps, all walks sharing the
    query's walk.  A walk pair contributes ``c^k`` when it first meets the
    query's walk at step ``k``.  The estimator is unbiased for
    horizon-truncated SimRank; ``c^horizon < 0.3%`` of mass is discarded at
    the defaults.
    """
    query = check_node_id(query, graph.n_nodes, "query")
    c = check_probability(c, "c")
    n_samples = check_positive_int(n_samples, "n_samples")
    horizon = check_positive_int(horizon, "horizon")
    rng = ensure_rng(seed)
    n = graph.n_nodes

    # Unweighted in-neighbor CSC arrays for uniform reverse steps.
    adj = (graph.weights > 0).astype(np.float64).tocsc()
    indptr, indices = adj.indptr, adj.indices
    in_deg = np.diff(indptr)

    scores = np.zeros(n)
    nodes = np.arange(n)
    for _ in range(n_samples):
        pos = nodes.copy()
        alive = np.ones(n, dtype=bool)
        met = np.zeros(n, dtype=bool)
        met[query] = True
        scores[query] += 1.0
        q_pos = query
        q_alive = True
        for step in range(1, horizon + 1):
            # Advance the query's reverse walk one step.
            if q_alive:
                deg_q = in_deg[q_pos]
                if deg_q == 0:
                    q_alive = False
                else:
                    q_pos = int(indices[indptr[q_pos] + rng.integers(deg_q)])
            if not q_alive:
                break
            # Advance all still-interesting walks one step, sharing the
            # query's step where positions coincide (coupled walks *are* the
            # same walk once they meet the same node — this coupling is what
            # makes first-meeting-time estimation correct).
            active = alive & ~met
            if not active.any():
                break
            act_idx = np.flatnonzero(active)
            deg = in_deg[pos[act_idx]]
            dead = deg == 0
            alive[act_idx[dead]] = False
            act_idx = act_idx[~dead]
            if act_idx.size == 0:
                continue
            deg = in_deg[pos[act_idx]]
            offsets = (rng.random(act_idx.size) * deg).astype(np.int64)
            pos[act_idx] = indices[indptr[pos[act_idx]] + offsets]
            just_met = act_idx[pos[act_idx] == q_pos]
            if just_met.size:
                met[just_met] = True
                scores[just_met] += c**step
    return scores / n_samples


class SimRankMeasure(ProximityMeasure):
    """SimRank as a ranking measure: rank ``v`` by ``s(q, v)``.

    Uses the exact dense computation up to :data:`DENSE_NODE_LIMIT` nodes and
    the Monte Carlo estimator beyond.  Multi-node queries average the
    single-node score vectors (linearity is not part of SimRank's
    definition, but averaging is the conventional extension).
    """

    name: ClassVar[str] = "SimRank"

    def __init__(
        self,
        c: float = DEFAULT_C,
        max_iter: int = 10,
        n_samples: int = 120,
        horizon: int = 8,
        seed: int = 997,
    ) -> None:
        self.c = check_probability(c, "c")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.n_samples = check_positive_int(n_samples, "n_samples")
        self.horizon = check_positive_int(horizon, "horizon")
        self.seed = seed

    def scores(self, graph: DiGraph, query: Query) -> np.ndarray:
        nodes, weights = normalize_query(graph, query)
        if graph.n_nodes <= DENSE_NODE_LIMIT:
            s = simrank_matrix(graph, self.c, self.max_iter)
            out = np.zeros(graph.n_nodes)
            for node, weight in zip(nodes.tolist(), weights.tolist()):
                out += weight * s[node]
            return out
        out = np.zeros(graph.n_nodes)
        for node, weight in zip(nodes.tolist(), weights.tolist()):
            out += weight * simrank_single_source(
                graph,
                node,
                self.c,
                n_samples=self.n_samples,
                horizon=self.horizon,
                seed=self.seed + node,
            )
        return out
