"""ε-approximate top-K stopping conditions (Sect. V-A1, Eq. 13–14).

Given seen candidates sorted by lower bound, the candidate top-K ``TK`` is
accepted when

- Eq. 13 (membership): the K-th lower bound beats every other upper bound
  (seen beyond K, and the unseen bound) within slack ε, and
- Eq. 14 (ordering): each consecutive pair within ``TK`` is ordered within
  slack ε.

With ε = 0 the returned ``TK`` is the exact top-K; a positive ε may miss a
node only if its score is within ε of the K-th, and may swap two nodes only
if their scores differ by less than ε.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TopKCandidate:
    """A candidate ranking with the bound context needed to validate it."""

    #: node ids sorted by lower bound, best first (candidates only)
    order: np.ndarray
    #: lower/upper bounds aligned with ``order``
    lower: np.ndarray
    upper: np.ndarray
    #: common upper bound for all candidate nodes outside the seen set
    unseen_upper: float


def sort_candidates(
    nodes: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    unseen_upper: float,
    candidate_mask: "np.ndarray | None" = None,
    exclude: "frozenset[int] | set[int] | None" = None,
) -> TopKCandidate:
    """Filter to candidates and sort by lower bound (ties by node id)."""
    keep = np.ones(nodes.shape[0], dtype=bool)
    if candidate_mask is not None:
        keep &= np.asarray(candidate_mask, dtype=bool)[nodes]
    if exclude:
        keep &= ~np.isin(nodes, np.fromiter(exclude, dtype=np.int64))
    nodes = nodes[keep]
    lower = lower[keep]
    upper = upper[keep]
    order = np.argsort(-lower, kind="stable")  # nodes pre-sorted by id
    return TopKCandidate(
        order=nodes[order],
        lower=lower[order],
        upper=upper[order],
        unseen_upper=unseen_upper,
    )


def topk_conditions_met(candidate: TopKCandidate, k: int, epsilon: float) -> bool:
    """Check Eq. 13–14 for the first ``k`` entries of ``candidate``.

    When fewer than ``k`` candidates are seen, the conditions can still hold
    provided the unseen upper bound is within ε of zero: every unreturned
    node then has a score at most ε, which the ε-approximation already
    permits to drop.  (With ε = 0 this happens exactly when all remaining
    nodes provably score zero, e.g. nodes unreachable on the return leg.)
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not epsilon >= 0:  # NaN too: with it, the n < k test below always passes
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    n = candidate.order.shape[0]
    k_eff = min(k, n)
    if n < k and candidate.unseen_upper > epsilon:
        return False
    if n >= k:
        # Eq. 13: the K-th lower bound must beat the best upper bound among
        # the remaining seen candidates and the unseen bound.
        threshold = candidate.unseen_upper
        if n > k:
            threshold = max(threshold, float(candidate.upper[k:].max()))
        if not candidate.lower[k - 1] > threshold - epsilon:
            return False
    # Eq. 14: consecutive entries within TK must be ordered.
    for i in range(k_eff - 1):
        if not candidate.lower[i] > candidate.upper[i + 1] - epsilon:
            return False
    return True
