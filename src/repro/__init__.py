"""repro — a full reproduction of RoundTripRank (Fang, Chang & Lauw, ICDE 2013).

Dual-sensed graph proximity integrating *importance* (reachability from the
query) and *specificity* (reachability back to the query) in one coherent
random walk, plus the 2SBound online top-K algorithm and its distributed
variant, all baselines, synthetic datasets, and the full evaluation harness.

Quickstart::

    from repro.datasets import toy_bibliographic_graph
    from repro.core import roundtriprank

    graph = toy_bibliographic_graph()
    scores = roundtriprank(graph, graph.node_by_label("t1"))

Serving many queries?  The batch engine computes an ``n x q`` column stack
in one multi-column power iteration instead of ``q`` separate solves::

    from repro.engine import roundtriprank_batch

    columns = roundtriprank_batch(graph, [q1, q2, q3])

See README.md for the architecture overview and its Datasets section for
the synthetic substitutes of the paper's data.
"""

from repro.core import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    HybridSurfers,
    frank_vector,
    roundtriprank,
    roundtriprank_plus,
    trank_vector,
)
from repro.engine import (
    frank_batch,
    roundtriprank_batch,
    roundtriprank_plus_batch,
    trank_batch,
)
from repro.graph import DiGraph, GraphBuilder

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
    "HybridSurfers",
    "DiGraph",
    "GraphBuilder",
    "frank_vector",
    "trank_vector",
    "roundtriprank",
    "roundtriprank_plus",
    "frank_batch",
    "trank_batch",
    "roundtriprank_batch",
    "roundtriprank_plus_batch",
]
