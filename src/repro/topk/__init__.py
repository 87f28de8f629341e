"""Online top-K processing (Sect. V): 2SBound and its ablation schemes."""

from repro.topk.bca import BCAState
from repro.topk.bounds import CombinedBounds, combine_bounds
from repro.topk.conditions import TopKCandidate, sort_candidates, topk_conditions_met
from repro.topk.fbound import FBoundSide
from repro.topk.graphaccess import (
    GraphAccess,
    InstrumentedGraphAccess,
    LocalGraphAccess,
)
from repro.topk.local import (
    ColumnPush,
    LocalTopKResult,
    local_topk,
)
from repro.topk.naive import ExactTopK, naive_topk
from repro.topk.tbound import TBoundSide
from repro.topk.twosbound import (
    DEFAULT_HEAVY_DEGREE,
    DEFAULT_M_F,
    DEFAULT_M_T,
    SCHEMES,
    SchemeConfig,
    TopKResult,
    twosbound_topk,
)

__all__ = [
    "BCAState",
    "CombinedBounds",
    "combine_bounds",
    "TopKCandidate",
    "sort_candidates",
    "topk_conditions_met",
    "FBoundSide",
    "TBoundSide",
    "GraphAccess",
    "LocalGraphAccess",
    "InstrumentedGraphAccess",
    "ColumnPush",
    "LocalTopKResult",
    "local_topk",
    "ExactTopK",
    "naive_topk",
    "DEFAULT_HEAVY_DEGREE",
    "DEFAULT_M_F",
    "DEFAULT_M_T",
    "SCHEMES",
    "SchemeConfig",
    "TopKResult",
    "twosbound_topk",
]
