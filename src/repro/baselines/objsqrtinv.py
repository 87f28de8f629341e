"""ObjSqrtInv (Hristidis, Hwang & Papakonstantinou, TODS 2008).

The dual-sensed combination the paper benchmarks against: query ObjectRank
(importance) damped by the *square root* of Inverse ObjectRank
(specificity):

.. math::

    ObjSqrtInv(q, v) = OR(q, v) \\cdot \\sqrt{IOR(q, v)}

The square root deliberately under-weights the specificity term — a fixed,
importance-leaning trade-off, which is exactly the rigidity the paper's
RoundTripRank+ removes.  The customized "ObjSqrtInv+" of Fig. 10 replaces
the fixed exponents with ``(1 - beta, beta)``.

``d = 0.25`` is the paper's setting ("like alpha, the ranking is stable for
a wide range of d").
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.baselines.base import BetaTunable, ProximityMeasure
from repro.baselines.objectrank import DEFAULT_D, inverse_objectrank, objectrank
from repro.core.queries import Query
from repro.graph.digraph import DiGraph
from repro.utils.validation import check_in_range


def objsqrtinv_scores(graph: DiGraph, query: Query, d: float = DEFAULT_D) -> np.ndarray:
    """The fixed ObjSqrtInv combination ``OR * sqrt(IOR)``."""
    return objectrank(graph, query, d) * np.sqrt(inverse_objectrank(graph, query, d))


class ObjSqrtInvMeasure(ProximityMeasure):
    """ObjSqrtInv as a ranking measure (fixed trade-off)."""

    name: ClassVar[str] = "ObjSqrtInv"

    def __init__(self, d: float = DEFAULT_D) -> None:
        self.d = check_in_range(d, "d", 0.0, 1.0, inclusive_low=False, inclusive_high=False)

    def scores(self, graph: DiGraph, query: Query) -> np.ndarray:
        return objsqrtinv_scores(graph, query, self.d)


class ObjSqrtInvPlusMeasure(BetaTunable, ProximityMeasure):
    """ObjSqrtInv customized with tunable exponents (the paper's "ObjSqrtInv+").

    ``OR(q, v)^(1-beta) * IOR(q, v)^beta``; ``beta = 1/3`` recovers a
    monotone transform of the original (exponents in ratio 1 : 1/2).
    """

    name: ClassVar[str] = "ObjSqrtInv+"

    def __init__(self, beta: float = 1.0 / 3.0, d: float = DEFAULT_D) -> None:
        self.beta = beta
        self.d = check_in_range(d, "d", 0.0, 1.0, inclusive_low=False, inclusive_high=False)
        # (graph id, query key) -> (OR, IOR); shared across with_beta copies
        # so beta tuning reuses the two PPR computations per query.
        self._cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def _ranks(self, graph: DiGraph, query: Query) -> tuple[np.ndarray, np.ndarray]:
        from repro.core.queries import normalize_query

        nodes, weights = normalize_query(graph, query)
        key = (id(graph), tuple(nodes.tolist()), tuple(weights.tolist()))
        if key not in self._cache:
            if len(self._cache) > 4096:
                self._cache.clear()
            self._cache[key] = (
                objectrank(graph, query, self.d),
                inverse_objectrank(graph, query, self.d),
            )
        return self._cache[key]

    def scores(self, graph: DiGraph, query: Query) -> np.ndarray:
        orank, iorank = self._ranks(graph, query)
        if self.beta == 0.0:
            return orank.copy()
        if self.beta == 1.0:
            return iorank.copy()
        return np.power(orank, 1.0 - self.beta) * np.power(iorank, self.beta)
