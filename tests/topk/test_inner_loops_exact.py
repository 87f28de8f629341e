"""Bit-exactness oracle for 2SBound's inner loops.

``BCAState.expand`` reads a batch's out-lists in one bulk call and the
Stage-II sweeps multiply raw CSR arrays into preallocated buffers.  Both
must reproduce, bit for bit, the straightforward forms they replace:

- ``expand(m)`` against ``select_best_benefit(m)`` followed by ``process``
  on each selected node in order, and against the same steps through the
  reference ``process`` below (per-node ``out_edges`` reads, the frontier
  grown from a generator of ``int``);
- ``FBoundSide.refine`` / ``TBoundSide.refine`` against the reference
  loops below (scipy ``@`` products, a dense ``base`` vector, the
  external-mass product formed every sweep, ``np.max(..., initial=0.0)``).

``test_golden.py`` pins 2SBound's decisions; this module pins its bounds.
"""

import functools
import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import graph_from_edges
from repro.topk import SCHEMES, BCAState, GraphAccess, LocalGraphAccess, twosbound_topk
from repro.topk.bca import MIN_RESIDUAL
from repro.topk.fbound import MAX_REFINE_ITERS, REFINE_TOL, FBoundSide
from repro.topk.tbound import TBoundSide

ALPHA = 0.25
K = 10
EPSILON = 0.005
#: small-BibNet queries from the golden table (120 stops after two rounds)
BIBNET_QUERIES = (47, 120, 452, 713)


# ---------------------------------------------------------------------- #
# BCA
# ---------------------------------------------------------------------- #


class _RetiringAccess(LocalGraphAccess):
    """Dangling nodes have an empty out-list (no self-loop convention), so
    BCA retires their residual.  Reads node by node: ``out_rows`` is the
    base-class default."""

    def out_edges(self, node):
        if self.graph.out_degrees[node] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return super().out_edges(node)

    out_rows = GraphAccess.out_rows


@st.composite
def _digraph_queries(draw):
    """A small digraph (self-loops and dangling nodes allowed), a query and
    a batch size."""
    n = draw(st.integers(min_value=2, max_value=10))
    node = st.integers(min_value=0, max_value=n - 1)
    weight = st.floats(min_value=0.1, max_value=10.0)
    edges = draw(st.lists(st.tuples(node, node, weight), max_size=30))
    return graph_from_edges(n, edges), draw(node), draw(st.integers(min_value=1, max_value=4))


def _reference_process(state, node):
    amount = state.mu[node]
    if amount < MIN_RESIDUAL:
        return
    state.rho[node] += state.alpha * amount
    state.total_residual -= state.alpha * amount
    state.mu[node] = 0.0
    state._nonzero.discard(node)
    neighbors, probs = state.access.out_edges(node)
    if neighbors.size:
        np.add.at(state.mu, neighbors, (1.0 - state.alpha) * amount * probs)
        grown = neighbors[state.mu[neighbors] >= MIN_RESIDUAL]
        state._nonzero.update(int(v) for v in grown.tolist())
    else:
        state.total_residual -= (1.0 - state.alpha) * amount


def _frontier_max(state):
    if state.exhausted:
        return 0.0
    return float(state.mu[state._nonzero_array()].max())


def _assert_states_equal(got, want):
    assert np.array_equal(got.rho, want.rho)
    assert np.array_equal(got.mu, want.mu)
    assert got.total_residual == want.total_residual
    assert list(got._nonzero) == list(want._nonzero)
    assert got.max_residual == _frontier_max(want)


def _assert_expand_matches_process(access_type, graph, query, m, max_expansions):
    batched = BCAState(access_type(graph), query, ALPHA)
    stepped = BCAState(access_type(graph), query, ALPHA)
    reference = BCAState(access_type(graph), query, ALPHA)
    for _ in range(max_expansions):
        if batched.exhausted:
            break
        expected = reference.select_best_benefit(m)
        for node in expected:
            _reference_process(reference, node)
        assert stepped.select_best_benefit(m) == expected
        for node in expected:
            stepped.process(node)
        assert batched.expand(m) == expected
        _assert_states_equal(batched, reference)
        _assert_states_equal(stepped, reference)
    assert batched.exhausted == stepped.exhausted == reference.exhausted


class TestBCAExpand:
    @settings(max_examples=40, deadline=None)
    @given(_digraph_queries())
    def test_matches_process_on_digraphs(self, case):
        graph, query, m = case
        for access_type in (LocalGraphAccess, _RetiringAccess):
            _assert_expand_matches_process(access_type, graph, query, m, max_expansions=200)

    @pytest.mark.parametrize("m", [7, 100])
    def test_matches_process_on_bibnet(self, small_bibnet, m):
        for query in BIBNET_QUERIES:
            _assert_expand_matches_process(
                LocalGraphAccess, small_bibnet.graph, query, m, max_expansions=12
            )


# ---------------------------------------------------------------------- #
# Stage II: the reference loops
# ---------------------------------------------------------------------- #


def _as_scipy(sub, size):
    indptr, indices, data = sub
    return sp.csr_matrix((data, indices, indptr), shape=(size, size))


def _reference_f_refine(self, force_fixpoint=False):
    if self.refine_mode == "off" or not self.seen_list:
        return 0
    self._maybe_rebuild()
    size = self._built_size
    sub = _as_scipy(self._sub, size)
    nodes = np.asarray(self.seen_list[:size])
    low = self.lower[nodes]
    up = self.upper[nodes]
    base = np.zeros(size)
    q_pos = self._index[self.query]
    if 0 <= q_pos < size:
        base[q_pos] = self.alpha
    damp = 1.0 - self.alpha
    post = np.asarray(self.seen_list[size:], dtype=np.int64)
    post_max = float(self.upper[post].max()) if post.size else 0.0
    unseen_up = max(self.unseen_upper, post_max)
    max_iters = 1 if (self.refine_mode == "single" and not force_fixpoint) else MAX_REFINE_ITERS
    frozen = self._frozen
    iters = 0
    for _ in range(max_iters):
        new_low = np.maximum(low, base + damp * (sub @ low))
        new_up = np.minimum(up, base + damp * (sub @ up + self._ext * unseen_up))
        if frozen.any():
            new_low[frozen] = low[frozen]
            new_up[frozen] = up[frozen]
        delta = max(
            float(np.max(new_low - low, initial=0.0)),
            float(np.max(up - new_up, initial=0.0)),
        )
        low, up = new_low, new_up
        iters += 1
        if delta < REFINE_TOL:
            break
    self.lower[nodes] = np.maximum(self.lower[nodes], low)
    self.upper[nodes] = np.minimum(self.upper[nodes], up)
    return iters


def _reference_t_refine(self, force_fixpoint=False):
    if (self.refine_mode == "off" and not force_fixpoint) or not self.seen_list:
        return 0
    self._maybe_rebuild()
    nodes = self._matrix_nodes
    size = nodes.shape[0]
    if size == 0:
        return 0
    sub = _as_scipy(self._sub, size)
    low = self.lower[nodes]
    up = self.upper[nodes]
    base = np.zeros(size)
    q_pos = self._matrix_pos[self.query]
    if q_pos >= 0:
        base[q_pos] = self.alpha
    damp = 1.0 - self.alpha
    in_matrix = self._matrix_pos >= 0
    post = self.seen & ~in_matrix & ~self._is_heavy
    post_max = float(self.upper.max(where=post, initial=0.0))
    heavy_cap = float(self.upper.max(where=self.seen & self._is_heavy, initial=0.0))
    border = self.border
    border_pos = self._matrix_pos[border]
    border_static_max = float(self.upper[border[border_pos < 0]].max(initial=0.0))
    border_pos = border_pos[border_pos >= 0]
    max_iters = 1 if (self.refine_mode == "single" and not force_fixpoint) else MAX_REFINE_ITERS
    iters = 0
    for _ in range(max_iters):
        cap = max(self.unseen_upper, post_max)
        new_low = np.maximum(low, base + damp * (sub @ low))
        new_up = np.minimum(
            up,
            base + damp * (sub @ up + self._ext_unseen * cap + self._ext_heavy * heavy_cap),
        )
        delta = max(
            float(np.max(new_low - low, initial=0.0)),
            float(np.max(up - new_up, initial=0.0)),
        )
        low, up = new_low, new_up
        iters += 1
        in_matrix_max = float(up[border_pos].max()) if border_pos.size else 0.0
        self.unseen_upper = min(
            self.unseen_upper,
            (1.0 - self.alpha) * max(in_matrix_max, border_static_max),
        )
        if delta < REFINE_TOL:
            break
    self.lower[nodes] = np.maximum(self.lower[nodes], low)
    self.upper[nodes] = np.minimum(self.upper[nodes], up)
    self._recompute_unseen_upper()
    return iters


# ---------------------------------------------------------------------- #
# Stage II: side by side
# ---------------------------------------------------------------------- #


def _assert_sides_equal(fast, reference):
    assert np.array_equal(fast.lower, reference.lower)
    assert np.array_equal(fast.upper, reference.upper)
    assert fast.unseen_upper == reference.unseen_upper


def _twin_sides(make_side, reference_refine, rounds):
    """Drive a side and its reference twin through ``rounds`` expansions
    and a finalize, comparing every bound after each step."""
    fast, reference = make_side(), make_side()
    reference.refine = types.MethodType(reference_refine, reference)
    for _ in range(rounds):
        assert fast.expand() == reference.expand()
        assert fast.refine() == reference.refine()
        _assert_sides_equal(fast, reference)
    fast.finalize()
    reference.finalize()
    _assert_sides_equal(fast, reference)


@pytest.mark.parametrize("heavy_degree", [256, 3, None])
class TestStageIISides:
    @pytest.mark.parametrize(
        ("bound_style", "refine"), [("prop4", "fixpoint"), ("prop4", "single"), ("gupta", "off")]
    )
    def test_f_side_matches_reference(self, small_bibnet, heavy_degree, bound_style, refine):
        access = LocalGraphAccess(small_bibnet.graph)
        options = dict(m=40, bound_style=bound_style, refine=refine, heavy_degree=heavy_degree)
        for query in BIBNET_QUERIES:
            make = functools.partial(FBoundSide, access, query, ALPHA, **options)
            _twin_sides(make, _reference_f_refine, rounds=6)

    @pytest.mark.parametrize("refine", ["fixpoint", "single", "off"])
    def test_t_side_matches_reference(self, small_bibnet, heavy_degree, refine):
        access = LocalGraphAccess(small_bibnet.graph)
        options = dict(m=5, refine=refine, heavy_degree=heavy_degree)
        for query in BIBNET_QUERIES:
            make = functools.partial(TBoundSide, access, query, ALPHA, **options)
            _twin_sides(make, _reference_t_refine, rounds=6)


def _fingerprint(result):
    bounds = (result.lower.tobytes(), result.upper.tobytes())
    return result.nodes, result.rounds, result.seen_f, result.seen_t, result.seen_r, bounds


@pytest.mark.parametrize("heavy_degree", [256, 3])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_twosbound_bits_match_reference_loops(
    small_bibnet, toy_graph, monkeypatch, scheme, heavy_degree
):
    # The toy query runs to exhaustion (epsilon 0, k = n), so finalize runs;
    # it is heavy under heavy_degree=3, leaving the t-side query outside its
    # own matrix.
    runs = [(small_bibnet.graph, q, K, EPSILON) for q in (47, 120, 713)]
    runs.append((toy_graph, 0, toy_graph.n_nodes, 0.0))
    finalized = []
    finalize = FBoundSide.finalize

    def counting_finalize(side):
        finalized.append(side.query)
        finalize(side)

    monkeypatch.setattr(FBoundSide, "finalize", counting_finalize)

    def run_all():
        results = []
        for g, q, k, eps in runs:
            r = twosbound_topk(g, q, k, epsilon=eps, scheme=scheme, heavy_degree=heavy_degree)
            results.append(_fingerprint(r))
        return results

    fast = run_all()
    assert finalized == [0]
    monkeypatch.setattr(FBoundSide, "refine", _reference_f_refine)
    monkeypatch.setattr(TBoundSide, "refine", _reference_t_refine)
    assert run_all() == fast
