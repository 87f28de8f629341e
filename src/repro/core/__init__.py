"""The paper's primary contribution (Sect. III–IV).

- :func:`frank_vector` — F-Rank / Personalized PageRank (importance);
- :func:`trank_vector` — T-Rank (specificity);
- :func:`roundtriprank` — the unified dual-sensed measure (Prop. 2);
- :func:`roundtriprank_plus` — the customizable trade-off (Eq. 12);
- :class:`HybridSurfers` — the Ω composition model behind ``beta``;
- Monte Carlo estimators that simulate the walk definitions directly.
"""

from repro.core.frank import (
    DEFAULT_ALPHA,
    ConvergenceWarning,
    frank_constant_length,
    frank_vector,
    power_iteration,
)
from repro.core.montecarlo import (
    estimate_frank_mc,
    estimate_roundtrip_mc,
    estimate_trank_mc,
    sample_geometric_length,
    walk_steps,
)
from repro.core.queries import Query, normalize_query, teleport_vector
from repro.core.roundtrip import (
    enumerate_round_trips,
    roundtriprank,
    roundtriprank_by_enumeration,
    roundtriprank_constant_length,
)
from repro.core.roundtrip_plus import (
    DEFAULT_BETA,
    combine_beta,
    roundtriprank_for_surfers,
    roundtriprank_plus,
)
from repro.core.surfers import HybridSurfers
from repro.core.trank import trank_constant_length, trank_vector

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
    "ConvergenceWarning",
    "Query",
    "HybridSurfers",
    "frank_vector",
    "frank_constant_length",
    "power_iteration",
    "trank_vector",
    "trank_constant_length",
    "roundtriprank",
    "roundtriprank_constant_length",
    "roundtriprank_by_enumeration",
    "enumerate_round_trips",
    "roundtriprank_plus",
    "roundtriprank_for_surfers",
    "combine_beta",
    "normalize_query",
    "teleport_vector",
    "estimate_frank_mc",
    "estimate_trank_mc",
    "estimate_roundtrip_mc",
    "sample_geometric_length",
    "walk_steps",
]
