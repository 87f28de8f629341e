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

The serving routes are checked against the same dense columns:

- a :class:`~repro.serving.ColumnCache` miss lands within ``tol / alpha``
  of its column (plus a float32 store's rounding), and the hit that
  follows returns the same bits;
- a :class:`~repro.serving.MicroBatcher` flush, the resident path that
  serves a query from cached columns at submit, and the fused top-k give,
  for every measure, the scores composed from the dense columns.

The certified local route (:mod:`repro.topk.local`) is checked against the
same dense columns:

- after every single sweep, each F and T sweep state brackets its column:
  ``estimate <= exact <= estimate + error()``;
- a certified ``local_topk`` result, for every local measure, is the dense
  scores' top-k and its ``[scores, scores + bound]`` brackets their values;
  an escalated result is bit-identical to the batch entry point.  Twins
  (nodes other than the query whose rows and columns of ``P`` are
  identical) tie exactly and rank by id, so each twin class gets one dense
  value before the top-k is taken, and some examples must certify such a
  tie.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import combine_beta, frank_vector, trank_vector
from repro.engine import frank_batch, roundtriprank_batch, roundtriprank_plus_batch, trank_batch
from repro.engine.batch import MEASURES
from repro.graph import graph_from_edges
from repro.serving import ColumnCache, MicroBatcher
from repro.serving.topk import topk_select
from repro.topk import ColumnPush, local_topk
from repro.topk.local import MAX_SWEEPS

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
    # A hub: up to five extra leaves wired to one node, both ways, with one
    # weight.  The leaves' rows and columns are alike, so every leaf but the
    # query scores exactly the same.
    hub = draw(st.integers(0, n - 1))
    weight = draw(st.floats(min_value=0.1, max_value=10.0))
    leaves = range(n, n + draw(st.integers(min_value=0, max_value=5)))
    for leaf in leaves:
        if hub not in dangling:
            edges.append((hub, leaf, weight))
        edges.append((leaf, hub, weight))
    n += len(leaves)
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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@settings(max_examples=40, deadline=None)
@given(case=oracle_cases(), method=st.sampled_from(["auto", "power"]))
def test_cache_miss_and_hit_land_on_the_dense_column(case, method, dtype):
    graph, queries, alpha = case
    cache = ColumnCache(tol=TOL, method=method, dtype=dtype)
    for kind, transpose in (("f", True), ("t", False)):
        missed = cache.get_many(graph, kind, queries, alpha)
        hit = cache.get_many(graph, kind, queries, alpha)
        for q, miss_column, hit_column in zip(queries, missed, hit):
            exact = dense_solution(graph, q, alpha, transpose)
            # A float32 store adds its rounding to the solver's tol / alpha.
            bound = TOL / alpha + np.finfo(dtype).eps * np.abs(exact)
            assert miss_column.dtype == dtype
            assert np.all(np.abs(miss_column - exact) <= bound), f"{kind} miss {q}"
            assert np.array_equal(hit_column, miss_column), f"{kind} hit {q}"
    info = cache.cache_info()
    assert info.misses == 2 * len(set(queries))
    assert info.hits == 4 * len(queries) - info.misses


#: Slack of the local-route brackets: the dense LU solve's own round-off.
SLACK = 1e-12

BETA = 0.5


def dense_scores(graph, query: int, alpha: float) -> dict:
    """Every measure's scores for ``query``, composed from dense columns."""
    # LU round-off can leave -1e-17 where a true entry is 0, which the
    # fractional powers of roundtriprank_plus would turn into NaN.
    f = np.maximum(dense_solution(graph, query, alpha, transpose=True), 0.0)
    t = np.maximum(dense_solution(graph, query, alpha, transpose=False), 0.0)
    return {
        "frank": f,
        "trank": t,
        "roundtriprank": f * t,
        "roundtriprank_plus": combine_beta(f, t, BETA),
    }


def score_bound(measure: str, alpha: float) -> float:
    """Max-abs error of a measure composed from columns ``eps`` off each.

    With entries in [0, 1]: ``f t`` moves by at most ``2 eps``, and since
    ``|x^p - y^p| <= |x - y|^p`` for ``p`` in (0, 1],
    ``f^(1-beta) t^beta`` by at most ``eps^(1-beta) + eps^beta``.
    """
    eps = TOL / alpha
    return {
        "frank": eps,
        "trank": eps,
        "roundtriprank": 2 * eps,
        "roundtriprank_plus": eps ** (1 - BETA) + eps**BETA,
    }[measure]


@pytest.mark.parametrize("measure", MEASURES)
@settings(max_examples=30, deadline=None)
@given(case=oracle_cases())
def test_batcher_flush_and_resident_path_give_the_dense_scores(case, measure):
    graph, queries, alpha = case
    bound = score_bound(measure, alpha)
    batcher = MicroBatcher(
        graph,
        measure=measure,
        alpha=alpha,
        beta=BETA,
        normalize=False,
        max_batch=len(queries) + 1,
        cache=ColumnCache(tol=TOL),
    )
    flushed = [batcher.enqueue(q) for q in queries]
    assert batcher.flush() == len(queries)
    for q, future in zip(queries, flushed):
        expected = dense_scores(graph, q, alpha)[measure]
        assert np.abs(future.result() - expected).max() <= bound, f"flush {q}"
        # Every column is cached now, so submit serves the query at once.
        resident = batcher.submit(q)
        assert resident.done(), f"query {q} was queued"
        assert np.abs(resident.result() - expected).max() <= bound, f"resident {q}"
    batcher.close()


@pytest.mark.parametrize("measure", MEASURES)
@settings(max_examples=30, deadline=None)
@given(case=oracle_cases(), k=st.integers(min_value=1, max_value=4))
def test_batcher_topk_carries_the_dense_top_scores(case, measure, k):
    graph, queries, alpha = case
    bound = score_bound(measure, alpha)
    batcher = MicroBatcher(
        graph,
        measure=measure,
        alpha=alpha,
        beta=BETA,
        normalize=False,
        max_batch=len(queries) + 1,
        cache=ColumnCache(tol=TOL),
    )
    flushed = [batcher.enqueue(q, k=k) for q in queries]
    batcher.flush()
    for q, future in zip(queries, flushed):
        expected = dense_scores(graph, q, alpha)[measure]
        indices, scores = future.result()
        _, top = topk_select(expected, k)
        # Tied or near-tied nodes may swap places, but the k values are the
        # dense top-k values, and each returned node's dense score is its own.
        assert np.abs(scores - top).max() <= bound, f"top-{k} values {q}"
        assert np.abs(scores - expected[indices]).max() <= bound, f"top-{k} nodes {q}"
    batcher.close()


@settings(max_examples=60, deadline=None)
@given(case=oracle_cases())
def test_every_sweep_brackets_the_dense_column(case):
    graph, queries, alpha = case
    for kind, transpose in (("f", True), ("t", False)):
        for q in queries:
            exact = dense_solution(graph, q, alpha, transpose)
            state = ColumnPush(graph, q, alpha, kind)
            # A t-side residual can vanish exactly (a node without in-edges).
            while state.drive() > 0.0 and not state.drained and state.work < MAX_SWEEPS:
                state.advance(0.0, state.work + 1)
                assert np.all(state.estimate <= exact + SLACK), kind
                assert np.all(exact <= state.estimate + state.error() + SLACK), kind


def batch_topk(graph, query, k, alpha, measure):
    """The full-solve entry point ``local_topk`` escalates to, per measure."""
    if measure == "roundtriprank":
        scores = roundtriprank_batch(graph, [query], alpha, normalize=False)
    elif measure == "roundtriprank_plus":
        scores = roundtriprank_plus_batch(graph, [query], BETA, alpha)
    else:
        solve = frank_batch if measure == "frank" else trank_batch
        scores = solve(graph, [query], alpha)
    return topk_select(scores[:, 0], k)


def dense_twins(graph, query: "int | None" = None) -> np.ndarray:
    """Twin labels for ``query``'s ranking (or of the graph), from the dense ``P``.

    Nodes other than the query whose rows and columns of ``P`` are
    identical score exactly alike, and the exact ranking orders them by id;
    ``labels[v]`` is the smallest id of ``v``'s class, or -1.
    """
    p = graph.transition.toarray()
    labels = np.full(graph.n_nodes, -1)
    for v in range(graph.n_nodes):
        same = [
            u
            for u in range(graph.n_nodes)
            if u != query and np.array_equal(p[u], p[v]) and np.array_equal(p[:, u], p[:, v])
        ]
        if v != query and len(same) > 1:
            labels[v] = min(same)
    return labels


def claims_twin_tie(indices: np.ndarray, labels: np.ndarray) -> bool:
    """Whether a top-k holds two twins, or leaves out a twin of its last node."""
    if np.any((labels[indices[:-1]] >= 0) & (labels[indices[:-1]] == labels[indices[1:]])):
        return True
    last = indices[-1]
    return bool(labels[last] >= 0 and np.any(labels[last + 1 :] == labels[last]))


def test_local_topk_is_certified_exact_or_escalated_bit_identical():
    twin_ties = []

    @settings(max_examples=60, deadline=None)
    @given(case=oracle_cases(), k=st.integers(min_value=1, max_value=4))
    def check(case, k):
        graph, queries, alpha = case
        for q in queries:
            # LU round-off can leave -1e-17 where a true entry is 0, which the
            # fractional powers of roundtriprank_plus would turn into NaN.
            f = np.maximum(dense_solution(graph, q, alpha, transpose=True), 0.0)
            t = np.maximum(dense_solution(graph, q, alpha, transpose=False), 0.0)
            dense = {
                "frank": f,
                "trank": t,
                "roundtriprank": f * t,
                "roundtriprank_plus": combine_beta(f, t, BETA),
            }
            # Twins tie exactly, which LU round-off need not reproduce.
            labels = dense_twins(graph, q)
            for scores in dense.values():
                scores[labels >= 0] = scores[labels[labels >= 0]]
            for measure in MEASURES:
                result = local_topk(graph, q, k, alpha, measure=measure, beta=BETA, normalize=False)
                assert result.certified != result.escalated
                if result.certified:
                    expected, values = topk_select(dense[measure], k)
                    assert result.indices.tolist() == expected.tolist(), measure
                    assert np.all(result.scores <= values + SLACK), measure
                    assert np.all(values <= result.scores + result.bound + SLACK), measure
                    twin_ties.append(claims_twin_tie(result.indices, labels))
                else:
                    idx, val = batch_topk(graph, q, k, alpha, measure)
                    assert np.array_equal(result.indices, idx), measure
                    assert np.array_equal(result.scores, val), measure

    check()
    assert any(twin_ties), "no example certified a tie between twins"
