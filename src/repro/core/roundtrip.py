"""RoundTripRank: importance and specificity in one coherent round trip.

A *round trip* (Definition 1) is a random walk of ``L + L'`` steps that
starts and ends at the query, with ``L, L'`` i.i.d. geometric; the node
after the first ``L`` steps is the *target*.  RoundTripRank (Definition 2)
is the probability that a completed round trip has target ``v``:

.. math::

    r(q, v) = p(W_L = v \\mid W_0 = W_{L+L'}, W_0 = q)

Proposition 2 decomposes it into two independently computable units:

.. math::

    r(q, v) \\propto f(q, v) \\cdot t(q, v)

where ``f`` is F-Rank (reachability from the query == importance) and ``t``
is T-Rank (reachability to the query == specificity).  With normalization by
:math:`\\sum_v f(q,v) t(q,v)` the proportionality becomes the exact
conditional probability of Definition 2, which is what
:func:`roundtriprank` returns by default.

This module also contains an exact path enumerator for tiny graphs used to
validate Proposition 2 and to regenerate the paper's Fig. 4 table.

All solves delegate to the batch engine with a single column, so every
operator product runs through the shared :mod:`repro.ops` subsystem (the
per-graph prepared CSR and its matmat kernel); the ``method="power"`` pin
below keeps single-query results bit-identical to the historical per-node
power iteration.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.frank import DEFAULT_ALPHA, frank_constant_length
from repro.core.queries import Query, normalize_query
from repro.core.trank import trank_constant_length
from repro.graph.digraph import DiGraph


def roundtriprank(
    graph: DiGraph,
    query: Query,
    alpha: float = DEFAULT_ALPHA,
    normalize: bool = True,
    tol: float = 1e-12,
    max_iter: int = 1000,
) -> np.ndarray:
    """RoundTripRank of every node for ``query`` (Definition 2 / Prop. 2).

    With ``normalize=True`` (default) the vector sums to one and equals the
    conditional probability of Definition 2 — *provided the total round-trip
    mass is positive*.  If every ``f * t`` product is zero (possible only in
    degenerate constructions; a valid query always holds ``f[q] >= alpha``
    and ``t[q] >= alpha``), no distribution exists: the all-zeros vector is
    returned and a ``RuntimeWarning`` is emitted rather than silently
    violating the sums-to-one contract.  With ``normalize=False`` the result
    is the rank-equivalent product ``f * t`` of Proposition 2.

    Multi-node queries combine linearly: a round trip starts at a query node
    drawn from the query weights and must return to that same node, so the
    unnormalized score is the weighted sum of per-node ``f * t`` products.

    This is a thin wrapper over :func:`repro.engine.roundtriprank_batch`
    with a single column; use the batch form to serve many queries per
    power iteration.
    """
    from repro.engine.batch import roundtriprank_batch

    # method="power" keeps the single-query result bit-identical to the
    # historical per-node power iteration; the accelerated path is for
    # multi-query batches.
    return roundtriprank_batch(
        graph, [query], alpha, normalize=normalize, tol=tol, max_iter=max_iter,
        method="power",
    )[:, 0]


def roundtriprank_constant_length(
    graph: DiGraph,
    query: Query,
    length_out: int,
    length_back: int,
    normalize: bool = True,
) -> np.ndarray:
    """RoundTripRank with *constant* walk lengths (the Fig. 4 setting).

    ``r(q, v) \\propto p(W_L = v | W_0 = q) * p(W_{L'} = q | W_0 = v)`` with
    ``L = length_out`` and ``L' = length_back`` fixed.

    Unlike the geometric-length measure, constant lengths *can* yield zero
    total mass on directed graphs with no return path of exactly
    ``length_back`` steps; with ``normalize=True`` that case returns the
    all-zeros vector and emits a ``RuntimeWarning`` (the sums-to-one
    contract cannot hold).
    """
    nodes, weights = normalize_query(graph, query)
    scores = np.zeros(graph.n_nodes)
    for node, weight in zip(nodes.tolist(), weights.tolist()):
        f = frank_constant_length(graph, node, length_out)
        t = trank_constant_length(graph, node, length_back)
        scores += weight * f * t
    if normalize:
        total = scores.sum()
        if total > 0:
            scores = scores / total
        else:
            warnings.warn(
                "roundtriprank_constant_length: total round-trip mass is zero; "
                "returning the all-zeros vector, not a distribution",
                RuntimeWarning,
                stacklevel=2,
            )
    return scores


def enumerate_round_trips(
    graph: DiGraph,
    query: int,
    length_out: int,
    length_back: int,
) -> dict[int, list[tuple[tuple[int, ...], float]]]:
    """Exhaustively enumerate all round trips from ``query`` (tiny graphs only).

    Returns ``{target: [(path, probability), ...]}`` where each path has
    ``length_out + length_back + 1`` nodes, starts and ends at ``query``, and
    ``target = path[length_out]``.  This is the brute-force oracle behind the
    paper's Fig. 4 table; cost grows exponentially with path length, so use
    only on toy graphs.
    """
    if length_out < 0 or length_back < 0:
        raise ValueError("walk lengths must be >= 0")
    total_len = length_out + length_back
    trips: dict[int, list[tuple[tuple[int, ...], float]]] = {}

    def extend(path: list[int], prob: float) -> None:
        if len(path) == total_len + 1:
            if path[-1] == query:
                target = path[length_out]
                trips.setdefault(target, []).append((tuple(path), prob))
            return
        neighbors, probs = graph.out_edges(path[-1])
        for nb, p in zip(neighbors.tolist(), probs.tolist()):
            path.append(nb)
            extend(path, prob * p)
            path.pop()

    extend([query], 1.0)
    return trips


def roundtriprank_by_enumeration(
    graph: DiGraph,
    query: int,
    length_out: int,
    length_back: int,
) -> np.ndarray:
    """Exact constant-length RoundTripRank via brute-force path enumeration.

    The normalized version of the Fig. 4 computation; agrees with
    :func:`roundtriprank_constant_length` (Proposition 2) and is used in the
    test suite as an independent oracle.
    """
    trips = enumerate_round_trips(graph, query, length_out, length_back)
    scores = np.zeros(graph.n_nodes)
    for target, paths in trips.items():
        scores[target] = sum(prob for _, prob in paths)
    total = scores.sum()
    if total > 0:
        scores /= total
    return scores
