"""Fused top-k extraction: partial selection instead of full-vector sorts.

Callers of :func:`repro.engine.roundtriprank_batch` used to receive full
``n``-vectors and re-rank them with an ``O(n log n)`` argsort per query even
when only the top ``k`` entries mattered.  The functions here fuse the
selection into the batch path with ``np.argpartition`` (``O(n + k log k)``)
and return ``(indices, scores)`` pairs.

Tie-breaking contract: results are *identical* to the library's full-vector
ranking convention (score descending, node id ascending — what
``np.argsort(-scores, kind="stable")`` and
:func:`repro.eval.metrics.ranking_from_scores` produce), including across
ties that straddle the ``k`` boundary.

``method="local"`` on any entry point here routes the query through the
certified early-stopped sweeps of :func:`repro.topk.local.local_topk`
instead of the batch engine: same top-k set and ranking (certified, or
escalated to the bit-identical exact solve), and an easy query stops after
the sweeps its certificate needs (F-Rank on the engine's Chebyshev
weights, T-Rank on plain sweeps).  Certified scores are unnormalized lower
bounds on the exact scores — see the exactness contract in
:mod:`repro.topk.local`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.frank import DEFAULT_ALPHA
from repro.core.queries import Query
from repro.engine.batch import roundtriprank_batch, roundtriprank_plus_batch
from repro.graph.digraph import DiGraph
from repro.utils.validation import check_candidate_mask, check_exclude


def topk_select(
    scores: np.ndarray,
    k: int,
    *,
    exclude: "set[int] | frozenset[int] | Sequence[int] | None" = None,
    candidate_mask: "np.ndarray | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Top-``k`` ``(indices, values)`` of a score vector by partial selection.

    Equivalent to ranking all eligible nodes with a stable descending sort
    and truncating to ``k`` — bit-identical indices, ties broken by node id —
    but via ``np.argpartition``, so the full-vector sort is avoided.  Fewer
    than ``k`` eligible nodes return all of them; ``k`` must be >= 1 and a
    ``candidate_mask`` must have one entry per score.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores, dtype=np.float64)
    idx = None
    if candidate_mask is not None or exclude:
        eligible = np.ones(scores.shape[0], dtype=bool)
        if candidate_mask is not None:
            eligible &= check_candidate_mask(candidate_mask, scores.shape[0])
        if exclude:
            eligible[check_exclude(exclude, scores.shape[0])] = False
        idx = np.flatnonzero(eligible)
        scores = scores[idx]

    m = scores.shape[0]
    if k < m:
        # Partition once, then resolve boundary ties by node id: every value
        # strictly above the k-th largest survives; values equal to it fill
        # the remaining slots in ascending-index order.
        part = np.argpartition(-scores, k - 1)
        kth_value = scores[part[k - 1]]
        above = np.flatnonzero(scores > kth_value)
        n_ties = k - above.size
        tied = np.flatnonzero(scores == kth_value)[:n_ties]
        chosen = np.concatenate([above, tied])
    else:
        chosen = np.arange(m)
    order = chosen[np.argsort(-scores[chosen], kind="stable")]
    values = scores[order]
    if idx is not None:
        order = idx[order]
    return order, values


def _batch_topk(
    n_queries: int,
    exclude: "Sequence | None",
    select: "Callable[[int, set | frozenset | None], tuple[np.ndarray, np.ndarray]]",
) -> "tuple[np.ndarray, np.ndarray]":
    """Stack ``select(j, exclude_j)`` — one query's top-k pair — over the batch.

    ``exclude`` is ``None``, one shared ``set``/``frozenset``, or a sequence
    of one entry (set or ``None``) per query.  Returns ``(indices, values)``
    shaped ``(q, k')`` with ``k'`` the smallest result length across queries
    (``k`` unless exclusions shrink a column below ``k``).
    """
    if exclude is None or isinstance(exclude, (set, frozenset)):
        per_query_exclude = [exclude] * n_queries
    else:
        per_query_exclude = list(exclude)
        if len(per_query_exclude) != n_queries:
            raise ValueError(
                f"exclude must be one shared set or one entry per query; got "
                f"{len(per_query_exclude)} entries for {n_queries} queries"
            )
    results = [select(j, excl) for j, excl in enumerate(per_query_exclude)]
    width = min(idx.shape[0] for idx, _ in results)
    indices = np.stack([idx[:width] for idx, _ in results])
    values = np.stack([val[:width] for _, val in results])
    return indices, values


def _columns_topk(
    score_columns: np.ndarray,
    k: int,
    exclude: "Sequence | None",
    candidate_mask: "np.ndarray | None",
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-column :func:`topk_select` over an ``n x q`` score stack."""
    return _batch_topk(
        score_columns.shape[1],
        exclude,
        lambda j, excl: topk_select(
            score_columns[:, j], k, exclude=excl, candidate_mask=candidate_mask
        ),
    )


def roundtriprank_topk(
    graph: DiGraph,
    query: Query,
    k: int,
    alpha: float = DEFAULT_ALPHA,
    normalize: bool = True,
    *,
    exclude: "set[int] | frozenset[int] | None" = None,
    candidate_mask: "np.ndarray | None" = None,
    **solver_kwargs,
) -> "tuple[np.ndarray, np.ndarray]":
    """Top-``k`` RoundTripRank ``(indices, scores)`` for one query.

    ``indices`` are best-first and identical to ranking the full
    :func:`repro.core.roundtriprank` vector; ``scores`` are the
    corresponding (normalized, by default) RoundTripRank values.
    ``exclude`` / ``candidate_mask`` filter before selection (e.g. drop the
    query node, keep one node type), mirroring
    :func:`repro.eval.metrics.ranking_from_scores`.
    """
    indices, values = roundtriprank_batch_topk(
        graph, [query], k, alpha, normalize,
        exclude=[exclude] if exclude is not None else None,
        candidate_mask=candidate_mask,
        **solver_kwargs,
    )
    return indices[0], values[0]


def roundtriprank_batch_topk(
    graph: DiGraph,
    queries: "Sequence[Query]",
    k: int,
    alpha: float = DEFAULT_ALPHA,
    normalize: bool = True,
    *,
    exclude: "Sequence | None" = None,
    candidate_mask: "np.ndarray | None" = None,
    **solver_kwargs,
) -> "tuple[np.ndarray, np.ndarray]":
    """Top-``k`` RoundTripRank for every query, as ``(q, k)`` index/score arrays.

    Fuses :func:`repro.engine.roundtriprank_batch` with per-column partial
    selection; row ``j`` matches the full-vector ranking of query ``j``.
    ``exclude`` is either one node set shared by all queries or a sequence of
    one set per query.  ``method="local"`` dispatches to the certified local
    top-k solver instead of the engine (identical set and ranking).
    """
    if solver_kwargs.get("method") == "local":
        return _local_batch_topk(
            graph, queries, k, alpha, "roundtriprank", 0.5, normalize,
            exclude, candidate_mask, solver_kwargs,
        )
    scores = roundtriprank_batch(graph, queries, alpha, normalize, **solver_kwargs)
    return _columns_topk(scores, k, exclude, candidate_mask)


def roundtriprank_plus_batch_topk(
    graph: DiGraph,
    queries: "Sequence[Query]",
    k: int,
    beta: float = 0.5,
    alpha: float = DEFAULT_ALPHA,
    *,
    exclude: "Sequence | None" = None,
    candidate_mask: "np.ndarray | None" = None,
    **solver_kwargs,
) -> "tuple[np.ndarray, np.ndarray]":
    """Top-``k`` RoundTripRank+ (Eq. 12) for every query, ``(q, k)`` arrays.

    Row ``j`` matches the full-vector ranking of
    ``roundtriprank_plus(graph, queries[j], beta, alpha)``.
    ``method="local"`` dispatches to the certified local top-k solver.
    """
    if solver_kwargs.get("method") == "local":
        return _local_batch_topk(
            graph, queries, k, alpha, "roundtriprank_plus", beta, False,
            exclude, candidate_mask, solver_kwargs,
        )
    scores = roundtriprank_plus_batch(graph, queries, beta, alpha, **solver_kwargs)
    return _columns_topk(scores, k, exclude, candidate_mask)


def _local_batch_topk(
    graph: DiGraph,
    queries: "Sequence[Query]",
    k: int,
    alpha: float,
    measure: str,
    beta: float,
    normalize: bool,
    exclude: "Sequence | None",
    candidate_mask: "np.ndarray | None",
    solver_kwargs: dict,
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-query local top-k dispatch behind ``method="local"``.

    Mirrors :func:`_columns_topk`'s exclude/width semantics; each query is an
    independent :func:`repro.topk.local.local_topk` call that stops at its
    own certificate.  ``workers=`` is accepted and ignored for symmetry with
    the engine signature.
    """
    from repro.topk.local import local_topk  # circular at module level

    kwargs = dict(solver_kwargs)
    kwargs.pop("method", None)
    kwargs.pop("workers", None)
    if len(queries) == 0:
        raise ValueError("queries must not be empty")

    def select(j: int, excl) -> "tuple[np.ndarray, np.ndarray]":
        result = local_topk(
            graph,
            queries[j],
            k,
            alpha,
            measure=measure,
            beta=beta,
            normalize=normalize,
            exclude=excl,
            candidate_mask=candidate_mask,
            **kwargs,
        )
        return result.indices, result.scores

    return _batch_topk(len(queries), exclude, select)
