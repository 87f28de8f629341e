"""One independent oracle for every solve route: the dense linear solve.

F-Rank and T-Rank are the fixed points of ``x = alpha s + (1 - alpha) O x``
(Eq. 5 with ``O = P^T``, Eq. 8 with ``O = P``), so at small ``n`` the exact
answer is ``alpha (I - (1 - alpha) O)^{-1} s``, computed here with a dense
LU solve that shares no code with the library's sparse sweeps.  On random
small digraphs with dangling nodes, self-loops and disconnected components:

- the single-query solvers land within ``tol / alpha`` of the dense solve
  (the power iteration stops once the L1 step drops below ``tol``, which
  bounds the remaining error by ``tol (1 - alpha) / alpha``);
- ``method="power"`` batch columns equal the single-query vectors bit for
  bit;
- ``method="auto"`` batch columns land within ``tol / alpha`` of the dense
  solve (their float64 L1 residual is verified below ``tol``).

Errors are compared entry-wise (max-abs), where both bounds hold for both
orientations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import frank_vector, trank_vector
from repro.engine import frank_batch, trank_batch
from repro.graph import graph_from_edges

TOL = 1e-12


@st.composite
def oracle_cases(draw):
    """``(graph, queries, alpha)`` on a small digraph with awkward structure."""
    n = draw(st.integers(min_value=1, max_value=12))
    # Two components when split > 0: no edge crosses the split.
    split = draw(st.integers(min_value=0, max_value=n - 1))
    dangling = set(draw(st.lists(st.integers(0, n - 1), max_size=max(1, n // 3))))
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u = draw(st.integers(0, n - 1))
        if split and u < split:
            v = draw(st.integers(0, split - 1))
        else:
            v = draw(st.integers(split, n - 1))
        if u not in dangling:
            edges.append((u, v, draw(st.floats(min_value=0.1, max_value=10.0))))
    for u in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        if u not in dangling:
            edges.append((u, u, 1.0))  # explicit self-loops
    graph = graph_from_edges(n, edges, directed=True)
    queries = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    alpha = draw(st.sampled_from([0.15, 0.25, 0.5, 0.85]))
    return graph, queries, alpha


def dense_solution(graph, query: int, alpha: float, transpose: bool) -> np.ndarray:
    p = graph.transition.toarray()
    operator = p.T if transpose else p
    s = np.zeros(graph.n_nodes)
    s[query] = 1.0
    return alpha * np.linalg.solve(np.eye(graph.n_nodes) - (1.0 - alpha) * operator, s)


SOLVERS = (
    ("F", True, frank_vector, frank_batch),
    ("T", False, trank_vector, trank_batch),
)


@settings(max_examples=60, deadline=None)
@given(case=oracle_cases())
def test_every_route_agrees_with_the_dense_solve(case):
    graph, queries, alpha = case
    bound = TOL / alpha
    for name, transpose, single, batch in SOLVERS:
        power = batch(graph, queries, alpha, tol=TOL, method="power")
        auto = batch(graph, queries, alpha, tol=TOL, method="auto")
        for j, q in enumerate(queries):
            exact = dense_solution(graph, q, alpha, transpose)
            vector = single(graph, q, alpha, tol=TOL)
            assert np.abs(vector - exact).max() <= bound, f"{name}-Rank single query {q}"
            assert np.array_equal(power[:, j], vector), f"{name}-Rank power column {j}"
            assert np.abs(auto[:, j] - exact).max() <= bound, f"{name}-Rank auto column {j}"
