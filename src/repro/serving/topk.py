"""Top-k selection: partial selection instead of full-vector sorts.

:func:`topk_select` is the library's one top-k selector.  It picks the top
``k`` of one score vector with ``np.argpartition`` (``O(n + k log k)``)
and returns ``(indices, scores)``.  The micro-batcher's ``k`` requests
(and so the gateway's), local top-k's claims and escalations and
``naive_topk`` (2SBound's exact oracle) all rank with it.  To rank a
batch, select over each column of :func:`repro.engine.roundtriprank_batch`
or any other batch solve.

Tie-breaking contract: results are *identical* to the library's full-vector
ranking convention (score descending, node id ascending — what
``np.argsort(-scores, kind="stable")`` and
:func:`repro.eval.metrics.ranking_from_scores` produce), including across
ties that straddle the ``k`` boundary.  Exact ties between twins (nodes
with identical rows and columns of ``P``) therefore rank in node-id order,
the order :mod:`repro.topk.local` certifies them in.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import check_candidate_mask, check_exclude, check_positive_int


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
    than ``k`` eligible nodes return all of them; ``k`` must be a positive
    integer (as for ``local_topk`` and ``naive_topk``) and a
    ``candidate_mask`` must have one entry per score.
    """
    k = check_positive_int(k, "k")
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
