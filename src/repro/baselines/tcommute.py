"""Truncated commute time (Sarkar & Moore, UAI 2007) — dual-sensed baseline.

The truncated hitting time caps the horizon at ``T`` steps:

.. math::

    h^T(i, j) = \\begin{cases}
        0 & i = j \\\\
        1 + \\sum_k M_{ik} \\, h^{T-1}(k, j) & \\text{otherwise}
    \\end{cases}

with ``h^0 = 0`` (no steps left costs nothing more), which makes
``h^T(i, j) = E[min(\\text{hitting time}, T)]`` — an unreached target costs
the full horizon.  Truncated commute time is the symmetrization
``c^T(q, v) = h^T(q, v) + h^T(v, q)``; *smaller is closer*, so the measure
returns negated commute times.

Computation mirrors Sarkar & Moore:

- ``h^T(., q)`` (everyone *to* the query) is exact via ``T`` sparse
  matrix-vector products (:func:`hitting_time_to`);
- ``h^T(q, .)`` (query *to* everyone) has no such recursion, so it is
  estimated by sampling random walks from the query
  (:func:`hitting_time_from_sampled`), exactly the sampling scheme their
  papers propose; an exact dynamic program (:func:`hitting_time_from_exact`)
  over per-target DP is provided for validation on small graphs.

The paper uses ``T = 10`` ("as recommended, which we find robust").
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.baselines.base import BetaTunable, ProximityMeasure
from repro.core.queries import Query, normalize_query
from repro.graph.digraph import DiGraph
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_node_id, check_positive_int

DEFAULT_T = 10


def hitting_time_to(graph: DiGraph, target: int, horizon: int = DEFAULT_T) -> np.ndarray:
    """Exact truncated hitting time ``h^T(v, target)`` for every source ``v``.

    Dynamic program backward in horizon; ``horizon`` sparse mat-vecs.
    """
    target = check_node_id(target, graph.n_nodes, "target")
    horizon = check_positive_int(horizon, "horizon")
    p = graph.transition
    # h^0 = 0 everywhere: E[min(hit, 0)] = 0.  Each sweep adds one step of
    # lookahead; values stay in [0, horizon] with no explicit capping.
    h = np.zeros(graph.n_nodes)
    for _ in range(horizon):
        h = 1.0 + np.asarray(p @ h).ravel()
        h[target] = 0.0
    return h


def hitting_time_from_exact(
    graph: DiGraph, source: int, horizon: int = DEFAULT_T
) -> np.ndarray:
    """Exact truncated hitting time ``h^T(source, v)`` for every target ``v``.

    There is no shared recursion across targets, so this runs the per-target
    DP ``n`` times — O(n * horizon * |E|).  Use only on small graphs; the
    sampled estimator below is the scalable path.
    """
    source = check_node_id(source, graph.n_nodes, "source")
    out = np.empty(graph.n_nodes)
    for v in range(graph.n_nodes):
        out[v] = hitting_time_to(graph, v, horizon)[source]
    return out


def hitting_time_from_sampled(
    graph: DiGraph,
    source: int,
    horizon: int = DEFAULT_T,
    n_walks: int = 600,
    seed: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Sampled truncated hitting time ``h^T(source, v)`` for every target.

    Runs ``n_walks`` random walks of ``horizon`` steps from ``source``; for
    each walk, target ``v`` is charged its first-visit step (or ``horizon``
    when unvisited).  Unbiased for the truncated hitting time; standard
    error shrinks as ``1/sqrt(n_walks)``.
    """
    source = check_node_id(source, graph.n_nodes, "source")
    horizon = check_positive_int(horizon, "horizon")
    n_walks = check_positive_int(n_walks, "n_walks")
    rng = ensure_rng(seed)
    p = graph.transition
    indptr, indices, data = p.indptr, p.indices, p.data

    total = np.zeros(graph.n_nodes)
    for _ in range(n_walks):
        first_visit = np.full(graph.n_nodes, float(horizon))
        node = source
        first_visit[node] = 0.0
        for step in range(1, horizon):
            lo, hi = indptr[node], indptr[node + 1]
            probs = data[lo:hi]
            node = int(indices[lo + rng.choice(hi - lo, p=probs)])
            if first_visit[node] == horizon:
                first_visit[node] = float(step)
        total += first_visit
    return total / n_walks


def truncated_commute_time(
    graph: DiGraph,
    query: int,
    horizon: int = DEFAULT_T,
    n_walks: int = 600,
    seed: "int | np.random.Generator | None" = None,
    exact: bool = False,
) -> np.ndarray:
    """Truncated commute time ``c^T(query, v)`` for every node (small = close)."""
    h_to = hitting_time_to(graph, query, horizon)
    if exact:
        h_from = hitting_time_from_exact(graph, query, horizon)
    else:
        h_from = hitting_time_from_sampled(graph, query, horizon, n_walks, seed)
    return h_from + h_to


class TCommuteMeasure(ProximityMeasure):
    """Truncated commute time as a ranking measure (negated: higher = closer)."""

    name: ClassVar[str] = "TCommute"

    def __init__(
        self,
        horizon: int = DEFAULT_T,
        n_walks: int = 600,
        seed: int = 4242,
        exact: bool = False,
    ) -> None:
        self.horizon = check_positive_int(horizon, "horizon")
        self.n_walks = check_positive_int(n_walks, "n_walks")
        self.seed = seed
        self.exact = exact

    def scores(self, graph: DiGraph, query: Query) -> np.ndarray:
        nodes, weights = normalize_query(graph, query)
        out = np.zeros(graph.n_nodes)
        for node, weight in zip(nodes.tolist(), weights.tolist()):
            commute = truncated_commute_time(
                graph,
                node,
                self.horizon,
                self.n_walks,
                seed=self.seed + node,
                exact=self.exact,
            )
            out += weight * (-commute)
        return out


class TCommutePlusMeasure(BetaTunable, ProximityMeasure):
    """TCommute customized with a tunable trade-off (the paper's "TCommute+").

    The two sub-measures are the directional hitting times:
    ``(1 - beta) * h^T(q, v) + beta * h^T(v, q)`` (negated).  ``h(q, v)``
    plays the importance role (easy to reach from the query) and
    ``h(v, q)`` the specificity role (easy to return), mirroring how the
    paper splits every dual-sensed baseline into two weighted sub-measures.
    """

    name: ClassVar[str] = "TCommute+"

    def __init__(
        self,
        beta: float = 0.5,
        horizon: int = DEFAULT_T,
        n_walks: int = 600,
        seed: int = 4242,
        exact: bool = False,
    ) -> None:
        self.beta = beta
        self.horizon = check_positive_int(horizon, "horizon")
        self.n_walks = check_positive_int(n_walks, "n_walks")
        self.seed = seed
        self.exact = exact
        # (graph id, node) -> (h_from, h_to); shared across with_beta copies
        # (copy.copy keeps the same dict), so tuning sweeps the beta grid
        # without recomputing the hitting times.
        self._cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def _hitting_times(self, graph: DiGraph, node: int) -> tuple[np.ndarray, np.ndarray]:
        key = (id(graph), node)
        if key not in self._cache:
            h_to = hitting_time_to(graph, node, self.horizon)
            if self.exact:
                h_from = hitting_time_from_exact(graph, node, self.horizon)
            else:
                h_from = hitting_time_from_sampled(
                    graph, node, self.horizon, self.n_walks, seed=self.seed + node
                )
            if len(self._cache) > 4096:
                self._cache.clear()
            self._cache[key] = (h_from, h_to)
        return self._cache[key]

    def scores(self, graph: DiGraph, query: Query) -> np.ndarray:
        nodes, weights = normalize_query(graph, query)
        out = np.zeros(graph.n_nodes)
        for node, weight in zip(nodes.tolist(), weights.tolist()):
            h_from, h_to = self._hitting_times(graph, node)
            mixed = (1.0 - self.beta) * h_from + self.beta * h_to
            out += weight * (-mixed)
        return out
