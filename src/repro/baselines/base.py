"""The uniform proximity-measure interface used by the evaluation harness.

Every measure — RoundTripRank itself and all baselines of Sect. VI — is a
:class:`ProximityMeasure`: given a graph and a query it returns a dense
score vector where *higher means closer* (distance-like measures negate).

Many measures are functions of the F-Rank/T-Rank pair ``(f, t)`` of each
query node.  Those derive from :class:`FTMeasure`; the experiment runner
computes each node's ``(f, t)`` once and shares it across all such
measures, which keeps the Fig. 8–10 sweeps tractable.

Measures with a tunable specificity bias implement :class:`BetaTunable`
(Fig. 10 gives every baseline this customization; the paper stresses the
customizations are implemented by the RoundTripRank authors, as here).
"""

from __future__ import annotations

import abc
import copy
from typing import ClassVar, Sequence

import numpy as np

from repro.core.frank import DEFAULT_ALPHA, frank_vector
from repro.core.queries import Query, normalize_query
from repro.core.trank import trank_vector
from repro.graph.digraph import DiGraph
from repro.utils.validation import check_in_range, check_probability


class ProximityMeasure(abc.ABC):
    """A graph-proximity ranking measure (higher score = closer to query)."""

    #: short name used in result tables.
    name: ClassVar[str] = "measure"
    #: whether :meth:`scores_from_ft` can be used with shared (f, t).
    uses_ft: ClassVar[bool] = False

    @abc.abstractmethod
    def scores(self, graph: DiGraph, query: Query) -> np.ndarray:
        """Score every node of ``graph`` for ``query``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class FTMeasure(ProximityMeasure):
    """A measure that is a pointwise function of F-Rank and T-Rank.

    :meth:`combine` scores one query node from its own ``(f_i, t_i)``.  A
    multi-node query with weights ``w_i`` scores ``sum_i w_i *
    combine(f_i, t_i)``, never ``combine`` of the weighted sums: a round
    trip starts at a query node drawn from the weights and returns to that
    same node, which is how :func:`repro.core.roundtriprank`,
    :func:`repro.core.roundtriprank_plus` and every serving path combine a
    multi-node query.  The mean baselines follow the same rule.  A
    single-node query scores exactly ``combine(f, t)``.
    """

    uses_ft: ClassVar[bool] = True

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        self.alpha = check_in_range(
            alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False
        )

    @abc.abstractmethod
    def combine(self, f: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Combine one query node's F-Rank and T-Rank vectors into scores."""

    def scores(self, graph: DiGraph, query: Query) -> np.ndarray:
        nodes, weights = normalize_query(graph, query)
        f = [frank_vector(graph, v, self.alpha) for v in nodes.tolist()]
        t = [trank_vector(graph, v, self.alpha) for v in nodes.tolist()]
        return self.scores_from_ft(weights, f, t)

    def scores_from_ft(
        self,
        weights: "Sequence[float]",
        f_columns: "Sequence[np.ndarray]",
        t_columns: "Sequence[np.ndarray]",
    ) -> np.ndarray:
        """``sum_i w_i * combine(f_i, t_i)`` over a query's nodes, from their
        shared per-node columns (see the class docstring and the runner)."""
        scores = None
        for weight, f, t in zip(np.asarray(weights).tolist(), f_columns, t_columns):
            term = weight * self.combine(f, t)
            scores = term if scores is None else scores + term
        return scores


class BetaTunable:
    """Mixin marking a measure whose trade-off parameter ``beta`` is tunable.

    ``beta`` is a weight in [0, 1], checked on every assignment (the
    constructor's included).  ``with_beta`` returns a copy with the new
    bias so tuning never mutates a measure another experiment is using.
    """

    @property
    def beta(self) -> float:
        return self._beta

    @beta.setter
    def beta(self, value: float) -> None:
        self._beta = check_probability(value, "beta")

    def with_beta(self, beta: float):
        """A copy of this measure with the specificity bias set to ``beta``."""
        clone = copy.copy(self)
        clone.beta = beta
        return clone
