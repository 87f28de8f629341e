"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro import obs
from repro.datasets import (
    BibNetConfig,
    QLogConfig,
    TenantSpec,
    generate_bibnet,
    generate_qlog,
    sample_multitenant_queries,
    toy_bibliographic_graph,
)
from repro.graph import DiGraph, graph_from_edges


@pytest.fixture()
def obs_enabled():
    """Enable global observability for one test, restoring the off state.

    The switch and the span ring are process state: every test that turns
    observability on goes through here, so the switch is always restored
    and the ring never leaks spans into a neighbour test.
    """
    obs.clear_spans()
    obs.enable()
    try:
        yield
    finally:
        obs.disable()
        obs.clear_spans()


@pytest.fixture(scope="session")
def toy_graph() -> DiGraph:
    """The paper's Fig. 2 toy graph."""
    return toy_bibliographic_graph()


@pytest.fixture(scope="session")
def small_bibnet():
    """A small deterministic BibNet shared across tests."""
    return generate_bibnet(BibNetConfig(n_papers=300, n_authors=120, seed=13))


@pytest.fixture(scope="session")
def bibnet_2200():
    """BibNet-2200 (4,784 nodes), the graph of the BibNet ledger workloads."""
    return generate_bibnet(BibNetConfig(n_papers=2200, n_authors=740, seed=29))


@pytest.fixture(scope="session")
def bibnet_14000():
    """The paper-scale BibNet (29,846 nodes) of Fig. 11's efficiency runs."""
    return generate_bibnet(BibNetConfig(n_papers=14000, n_authors=4500, seed=42))


@pytest.fixture(scope="session")
def small_qlog():
    """A small deterministic QLog shared across tests."""
    return generate_qlog(QLogConfig(n_concepts=120, seed=13))


@pytest.fixture(scope="session")
def qlog_60():
    """QLog-60 (498 nodes, 209 phrases): the graph of the fixed replay counts."""
    return generate_qlog(QLogConfig(n_concepts=60, seed=13))


@pytest.fixture(scope="session")
def tenant_log(qlog_60):
    """500 queries over QLog-60's phrases from three Zipf tenants, one bursting 25x."""
    tenants = [
        TenantSpec("alpha-heavy", weight=2.0, s=1.1),
        TenantSpec("beta-steady", weight=1.0, s=1.3),
        TenantSpec("cold-burst", weight=0.25, s=1.3, burst_phases=(3,), burst_multiplier=25.0),
    ]
    return sample_multitenant_queries(qlog_60.phrase_nodes, 500, tenants, n_phases=4, seed=23)


@pytest.fixture()
def line_graph() -> DiGraph:
    """0 -> 1 -> 2 -> 3 with a back edge 3 -> 0 (strongly connected)."""
    return graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture()
def star_graph() -> DiGraph:
    """Undirected star: hub 0 connected to 1..4."""
    return graph_from_edges(5, [(0, i) for i in range(1, 5)], directed=False)


def random_digraph_strategy(
    max_nodes: int = 10,
    max_edges: int = 30,
    min_nodes: int = 2,
) -> st.SearchStrategy[DiGraph]:
    """Hypothesis strategy building small weighted digraphs.

    Every node gets at least one outgoing edge (to keep walks alive without
    relying on the dangling self-loop convention) and the graph may contain
    cycles, parallel intents (merged), and asymmetric structure.
    """

    @st.composite
    def build(draw: st.DrawFn) -> DiGraph:
        n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
        # Guarantee out-degree >= 1: one forced edge per node.
        forced = [
            (v, draw(st.integers(min_value=0, max_value=n - 1)))
            for v in range(n)
        ]
        extra_count = draw(st.integers(min_value=0, max_value=max_edges))
        extras = [
            (
                draw(st.integers(min_value=0, max_value=n - 1)),
                draw(st.integers(min_value=0, max_value=n - 1)),
            )
            for _ in range(extra_count)
        ]
        edges = []
        for u, v in forced + extras:
            weight = draw(
                st.floats(min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False)
            )
            edges.append((u, v, weight))
        return graph_from_edges(n, edges, directed=True)

    return build()


def connected_undirected_strategy(
    max_nodes: int = 10,
) -> st.SearchStrategy[DiGraph]:
    """Strategy for connected undirected (bidirectional) graphs.

    Built as a random spanning tree plus random extra undirected edges, so
    the graph is strongly connected — the paper's irreducibility setting.
    """

    @st.composite
    def build(draw: st.DrawFn) -> DiGraph:
        n = draw(st.integers(min_value=2, max_value=max_nodes))
        edges = []
        for v in range(1, n):
            parent = draw(st.integers(min_value=0, max_value=v - 1))
            weight = draw(st.floats(min_value=0.5, max_value=4.0))
            edges.append((parent, v, weight))
        extra = draw(st.integers(min_value=0, max_value=n))
        for _ in range(extra):
            u = draw(st.integers(min_value=0, max_value=n - 1))
            v = draw(st.integers(min_value=0, max_value=n - 1))
            if u != v:
                edges.append((u, v, draw(st.floats(min_value=0.5, max_value=4.0))))
        return graph_from_edges(n, edges, directed=False)

    return build()


def brute_force_frank(graph: DiGraph, query: int, alpha: float, horizon: int = 120) -> np.ndarray:
    """Independent F-Rank oracle: sum of alpha*(1-alpha)^l * (M^T)^l e_q."""
    p = graph.transition
    dist = np.zeros(graph.n_nodes)
    dist[query] = 1.0
    acc = np.zeros(graph.n_nodes)
    weight = alpha
    for _ in range(horizon + 1):
        acc += weight * dist
        dist = np.asarray(dist @ p).ravel()
        weight *= 1.0 - alpha
    return acc


def brute_force_trank(graph: DiGraph, query: int, alpha: float, horizon: int = 120) -> np.ndarray:
    """Independent T-Rank oracle: sum of alpha*(1-alpha)^l * (M^l e_q)."""
    p = graph.transition
    x = np.zeros(graph.n_nodes)
    x[query] = 1.0
    acc = np.zeros(graph.n_nodes)
    weight = alpha
    for _ in range(horizon + 1):
        acc += weight * x
        x = np.asarray(p @ x).ravel()
        weight *= 1.0 - alpha
    return acc
