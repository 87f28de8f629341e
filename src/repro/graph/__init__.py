"""Graph substrate: storage, construction, typing, snapshots.

Public surface:

- :class:`DiGraph` — immutable CSR-backed directed weighted graph, with the
  row-stochastic transition matrix every measure walks on;
- :class:`GraphBuilder` / :func:`graph_from_edges` — construction;
- :func:`apply_type_weights` — heterogeneous edge-type weighting;
- growth snapshots for the Sect. VI experiments.
"""

from repro.graph.builder import GraphBuilder, graph_from_edges
from repro.graph.digraph import DiGraph
from repro.graph.hetero import (
    DEFAULT_BIBNET_TYPE_WEIGHTS,
    apply_type_weights,
    edge_type_counts,
)
from repro.graph.snapshots import Snapshot, growth_rates, take_snapshots

__all__ = [
    "DiGraph",
    "GraphBuilder",
    "graph_from_edges",
    "DEFAULT_BIBNET_TYPE_WEIGHTS",
    "apply_type_weights",
    "edge_type_counts",
    "Snapshot",
    "growth_rates",
    "take_snapshots",
]
