"""The lean certification check against a transcription of the dense one.

Each round of :func:`repro.topk.local.local_topk` checks its claim with the
points and upper bounds combined over every node, but the lower bounds only
at the k claimed nodes, and each state's upper bound clamped at zero rather
than at its lower bound.  The reference below is the dense check this
replaced, transcribed: every state's ``(lower, point, upper)`` over every
node, combined, ranked and certified.  On every round of every query the
two must agree bit for bit (a zero's sign aside) on the claim, the
certified flag, the binding gap ``needed``, the bound width and the dense
point and upper scores.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import combine_beta, frank_vector, normalize_query
from repro.engine.batch import MEASURES
from repro.serving.topk import topk_select
from repro.topk import local as local_module
from repro.topk import local_topk
from tests.engine.test_dense_oracle import oracle_cases
from tests.topk_local.test_twins import hub_graph

BETA = 0.5
CERT_MARGIN = local_module.CERT_MARGIN


def reference_views(state):
    """A state's dense ``(lower, point, upper)``, as the dense check formed them."""
    if isinstance(state, local_module._ExactColumn):
        return state.estimate, state.estimate, state.estimate
    coef = state.inmass if state.inmass is not None else 1.0
    lower = state._x - state._neg * coef
    np.maximum(lower, 0.0, out=lower)
    upper = state._x + state._pos * coef
    np.maximum(upper, lower, out=upper)
    return lower, np.maximum(state._x, 0.0), upper


def reference_combine(measure, beta, weights, f_states, t_states, n):
    combined = (np.zeros(n), np.zeros(n), np.zeros(n))
    for i, w in enumerate(weights.tolist()):
        fv = reference_views(f_states[i]) if f_states is not None else None
        tv = reference_views(t_states[i]) if t_states is not None else None
        for j, total in enumerate(combined):
            if measure == "frank":
                total += w * fv[j]
            elif measure == "trank":
                total += w * tv[j]
            elif measure == "roundtriprank":
                total += w * (fv[j] * tv[j])
            else:
                total += w * combine_beta(fv[j], tv[j], beta)
    return combined


def reference_certify(lower, upper, point, order, low_vals, exclude, candidate_mask, twins):
    if order.size == 0:
        return True, 0.0
    rest_upper = upper.copy()
    if candidate_mask is not None:
        rest_upper[~np.asarray(candidate_mask, dtype=bool)] = -np.inf
    if exclude:
        rest_upper[list(exclude)] = -np.inf
    last = order[-1]
    if twins[last] >= 0:
        tied = np.flatnonzero(twins == twins[last])
        rest_upper[tied[tied > last]] = -np.inf
    rest_point = np.where(np.isneginf(rest_upper), -np.inf, point)
    rest_upper[order] = -np.inf
    rest_point[order] = -np.inf
    rest_up = float(rest_upper.max()) if rest_upper.size else -np.inf
    set_ok = not np.isfinite(rest_up) or low_vals[-1] > rest_up + CERT_MARGIN
    head, tail = order[:-1], order[1:]
    ordered = (low_vals[:-1] > upper[tail] + CERT_MARGIN) | (
        (twins[head] >= 0) & (twins[head] == twins[tail]) & (head < tail)
    )
    order_ok = bool(np.all(ordered))
    if set_ok and order_ok:
        return True, 0.0
    gaps = []
    if not set_ok and np.isfinite(rest_up):
        rest_best = float(rest_point.max())
        if np.isfinite(rest_best):
            gaps.append(float(point[last]) - rest_best)
    if not order_ok:
        failing = (point[head] - point[tail])[~ordered]
        gaps.append(float(failing.min()))
    positive = [g for g in gaps if g > 0.0]
    return False, min(positive) if positive else 0.0


def bits(value) -> bytes:
    """The float64 bits of ``value``, a zero's sign aside (adding 0.0 clears it)."""
    return (np.asarray(value, dtype=np.float64) + 0.0).tobytes()


class CheckedRounds:
    """Runs ``local_topk`` with every round's lean check compared to the reference."""

    def __init__(self, monkeypatch):
        self.rounds = self.failed = 0
        self._states, self._query = [], None
        make_state, certify = local_module._make_state, local_module._certify

        def recording_make_state(*args):
            state = make_state(*args)
            self._states.append(state)
            return state

        def checked_certify(upper, point, order, low_vals, exclude, candidate_mask, twins, **kw):
            verdict = certify(upper, point, order, low_vals, exclude, candidate_mask, twins, **kw)
            self._compare(upper, point, order, low_vals, verdict)
            return verdict

        monkeypatch.setattr(local_module, "_make_state", recording_make_state)
        monkeypatch.setattr(local_module, "_certify", checked_certify)

    def __call__(self, graph, query, k, alpha, **kwargs):
        self._states.clear()
        self._query = (graph, query, k, kwargs)
        rounds = self.rounds
        result = local_topk(graph, query, k, alpha, **kwargs)
        assert self.rounds - rounds == result.rounds
        return result

    def _compare(self, upper, point, order, low_vals, verdict):
        graph, query, k, kwargs = self._query
        measure = kwargs.get("measure", "roundtriprank")
        exclude, mask = kwargs.get("exclude"), kwargs.get("candidate_mask")
        nodes, weights = normalize_query(graph, query)
        f_states = [s for s in self._states if s.kind == "f"] or None
        t_states = [s for s in self._states if s.kind == "t"] or None
        ref_lower, ref_point, ref_upper = reference_combine(
            measure, kwargs.get("beta", BETA), weights, f_states, t_states, graph.n_nodes
        )
        ref_order, _ = topk_select(ref_point, k, exclude=exclude, candidate_mask=mask)
        ref_low = ref_lower[ref_order]
        twins = local_module._query_twins(graph, nodes)
        ref_verdict = reference_certify(
            ref_lower, ref_upper, ref_point, ref_order, ref_low, exclude, mask, twins
        )
        assert bits(point) == bits(ref_point)
        assert bits(upper) == bits(ref_upper)
        assert order.tolist() == ref_order.tolist()
        assert bits(low_vals) == bits(ref_low)
        assert verdict[0] is ref_verdict[0]
        assert bits(verdict[1]) == bits(ref_verdict[1])
        if order.size:
            width = np.max(upper[order] - low_vals)
            assert bits(width) == bits(np.max(ref_upper[ref_order] - ref_low))
        self.rounds += 1
        self.failed += not verdict[0]


@pytest.fixture()
def checked(monkeypatch):
    return CheckedRounds(monkeypatch)


def test_dense_oracle_graphs_every_measure(monkeypatch):
    checked = CheckedRounds(monkeypatch)

    @settings(max_examples=60, deadline=None)
    @given(
        case=oracle_cases(),
        k=st.integers(min_value=1, max_value=4),
        weights=st.lists(st.floats(0.5, 3.0), min_size=2, max_size=2),
        drop=st.integers(min_value=0, max_value=16),
    )
    def check(case, k, weights, drop):
        graph, queries, alpha = case
        n = graph.n_nodes
        mask = np.ones(n, dtype=bool)
        mask[drop % n] = False
        pair = dict(zip(queries[:2], weights))
        for measure in MEASURES:
            for query, extra in (
                (queries[0], {}),
                (pair, {}),
                (queries[-1], {"exclude": {queries[0]}}),
                (queries[0], {"candidate_mask": mask}),
            ):
                checked(graph, query, k, alpha, measure=measure, beta=BETA, **extra)

    check()
    assert checked.failed > 0


@pytest.mark.parametrize("measure", MEASURES)
def test_twin_hubs(checked, measure):
    for graph in (
        hub_graph(),
        hub_graph(dangling_leaves=True),
        hub_graph(leaf_edges=[(1, 2, 2.0)]),
    ):
        for query in (0, 1, {1: 1.0, 3: 2.0}, {2: 1.0, 5: 1.0}):
            for k in (2, 3, 4, 5):
                checked(graph, query, k, 0.25, measure=measure, beta=BETA, normalize=False)
        mask = np.arange(graph.n_nodes) != 2
        checked(graph, 0, 3, 0.25, measure=measure, exclude={1}, candidate_mask=mask)


def test_exact_columns_join_the_check(checked, small_bibnet):
    graph = small_bibnet.graph
    a, b = (int(v) for v in small_bibnet.paper_nodes[:2])

    def probe(kind, node):  # one exact F column; every other column sweeps
        return frank_vector(graph, node, 0.25) if (kind, node) == ("f", a) else None

    result = checked(graph, {a: 1.0, b: 2.0}, 10, 0.25, column_probe=probe)
    assert result.certified


def test_cold_papers_of_the_ledger_graph(checked, bibnet_2200):
    graph = bibnet_2200.graph
    papers = np.random.default_rng(101).permutation(bibnet_2200.paper_nodes)[:33]
    for node in papers.tolist():
        assert checked(graph, node, 10, 0.25).certified
    assert (checked.rounds, checked.failed) == (97, 64)
