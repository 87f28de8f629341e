"""2SBound (Algorithm 1): online ε-approximate top-K RoundTripRank.

The driver alternates the two-stage bounds-updating framework on the f- and
t-neighborhoods, combines their bounds (Eq. 15–16), and stops as soon as the
candidate top-K satisfies the ε-approximate conditions (Eq. 13–14) — or when
both sides are exhausted, at which point the bounds are exact.

Four named *schemes* configure the bound machinery, reproducing the paper's
Fig. 11(a) comparison:

=========  =======================  ==========================
scheme     f-side                   t-side
=========  =======================  ==========================
2sbound    Prop. 4 + fixed point    Eq. 22 + fixed point
g+s        Gupta bounds, no refine  single-sweep refine
gupta      Gupta bounds, no refine  Eq. 22 + fixed point
sarkar     Prop. 4 + fixed point    single-sweep refine
=========  =======================  ==========================

(``gupta``/``sarkar`` each replace exactly one side with our two-stage
realization, matching the paper's ablation.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.frank import DEFAULT_ALPHA
from repro.graph.digraph import DiGraph
from repro.topk.bounds import CombinedBounds, combine_bounds
from repro.topk.conditions import sort_candidates, topk_conditions_met
from repro.topk.fbound import FBoundSide
from repro.topk.graphaccess import GraphAccess, LocalGraphAccess
from repro.topk.tbound import TBoundSide
from repro.utils.validation import (
    check_candidate_mask,
    check_exclude,
    check_node_id,
    check_positive_int,
)

#: the paper's expansion granularities (Sect. V-A3).
DEFAULT_M_F = 100
DEFAULT_M_T = 5

SCHEMES = ("2sbound", "g+s", "gupta", "sarkar")


@dataclass(frozen=True)
class SchemeConfig:
    """Bound-machinery configuration derived from a scheme name."""

    f_bound_style: str
    f_refine: str
    t_refine: str

    @classmethod
    def from_name(cls, scheme: str) -> "SchemeConfig":
        if scheme == "2sbound":
            return cls("prop4", "fixpoint", "fixpoint")
        if scheme == "g+s":
            return cls("gupta", "off", "single")
        if scheme == "gupta":
            return cls("gupta", "off", "fixpoint")
        if scheme == "sarkar":
            return cls("prop4", "fixpoint", "single")
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


@dataclass
class TopKResult:
    """Result of a 2SBound query."""

    nodes: list[int]
    #: lower/upper RoundTripRank bounds for the returned nodes, in order
    lower: np.ndarray
    upper: np.ndarray
    converged: bool
    rounds: int
    seen_f: int
    seen_t: int
    seen_r: int
    scheme: str
    #: diagnostics appended by instrumented/distributed runs
    stats: dict = field(default_factory=dict)

    def ranking(self) -> list[int]:
        """The top-K node ids, best first (a defensive copy)."""
        return list(self.nodes)


#: nodes above this degree are handled lazily (see fbound/tbound docs); the
#: value comfortably exceeds typical paper/author degrees while keeping hub
#: venue/term adjacency out of the active set.
DEFAULT_HEAVY_DEGREE = 256


def twosbound_topk(
    graph: "DiGraph | GraphAccess",
    query: int,
    k: int,
    epsilon: float = 0.01,
    alpha: float = DEFAULT_ALPHA,
    m_f: int = DEFAULT_M_F,
    m_t: int = DEFAULT_M_T,
    scheme: str = "2sbound",
    candidate_mask: "np.ndarray | None" = None,
    exclude: "frozenset[int] | set[int] | None" = None,
    heavy_degree: "int | None" = DEFAULT_HEAVY_DEGREE,
    max_rounds: int = 100000,
) -> TopKResult:
    """Run Algorithm 1 and return an ε-approximate top-K ranking.

    Parameters mirror the paper: ``k`` desired results, slack ``epsilon``
    (Sect. V-A1), expansion granularities ``m_f``/``m_t`` (100 and 5 in the
    paper), and ``scheme`` selecting the bound machinery (see module
    docstring).  ``candidate_mask`` (one boolean per node) and ``exclude``
    optionally restrict the ranked universe (e.g. to a node type), as the
    evaluation tasks do.  ``max_rounds`` must be >= 1.

    The returned result is exact whenever both neighborhoods exhausted
    before the conditions fired (``converged`` is True either way; it is
    False only if ``max_rounds`` was hit).

    Only single-node queries are supported online, matching the paper's
    Sect. V (its multi-node story is the offline Linearity Theorem).  For a
    multi-node query, run one top-K per query node with a small ``k``
    head-room and combine the exact scores, or use
    :func:`repro.topk.naive.naive_topk` with the full measure.
    """
    access = graph if isinstance(graph, GraphAccess) else LocalGraphAccess(graph)
    query = check_node_id(query, access.n_nodes, "query")
    k = check_positive_int(k, "k")
    if not epsilon >= 0:  # NaN too (see topk_conditions_met)
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    max_rounds = check_positive_int(max_rounds, "max_rounds")
    if candidate_mask is not None:
        candidate_mask = check_candidate_mask(candidate_mask, access.n_nodes)
    if exclude:
        check_exclude(exclude, access.n_nodes)
    config = SchemeConfig.from_name(scheme)

    f_side = FBoundSide(
        access,
        query,
        alpha,
        m=m_f,
        bound_style=config.f_bound_style,
        refine=config.f_refine,
        heavy_degree=heavy_degree,
    )
    t_side = TBoundSide(
        access, query, alpha, m=m_t, refine=config.t_refine, heavy_degree=heavy_degree
    )

    rounds = 0
    converged = False
    combined: CombinedBounds = combine_bounds(f_side, t_side)
    while rounds < max_rounds:
        rounds += 1
        f_side.expand()
        f_side.refine()
        t_side.expand()
        t_side.refine()
        combined = combine_bounds(f_side, t_side)
        candidate = sort_candidates(
            combined.nodes,
            combined.lower,
            combined.upper,
            combined.unseen_upper,
            candidate_mask=candidate_mask,
            exclude=exclude,
        )
        if topk_conditions_met(candidate, k, epsilon):
            converged = True
            break
        if f_side.exhausted and t_side.exhausted:
            # Terminal: bounds are exact once every seen node has been
            # refined against the final neighborhood structure.
            f_side.finalize()
            t_side.finalize()
            combined = combine_bounds(f_side, t_side)
            converged = True
            break

    candidate = sort_candidates(
        combined.nodes,
        combined.lower,
        combined.upper,
        combined.unseen_upper,
        candidate_mask=candidate_mask,
        exclude=exclude,
    )
    top = min(k, candidate.order.shape[0])
    return TopKResult(
        nodes=candidate.order[:top].tolist(),
        lower=candidate.lower[:top].copy(),
        upper=candidate.upper[:top].copy(),
        converged=converged,
        rounds=rounds,
        seen_f=len(f_side.seen_list),
        seen_t=len(t_side.seen_list),
        seen_r=int(combined.nodes.shape[0]),
        scheme=scheme,
    )
