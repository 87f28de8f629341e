"""Near-tied scores: the certified local route against the dense oracle.

:mod:`test_dense_oracle` draws hubs whose leaves tie exactly, which the
local route can only escalate.  Here leaf ``i`` of the hub carries weight
``w * (1 + i * eps)`` both ways, with ``eps`` drawn from 1e-12 to 1e-6, so
the leaves' scores differ by a relative gap of about ``eps``: from far
below ``CERT_MARGIN``, which no certificate may claim to resolve, to gaps
the sweep bounds separate within their budget.  For every local measure:

- a certified ``local_topk`` result is the dense scores' top-k, set and
  order, and ``[scores, scores + bound]`` brackets their values;
- an escalated result is bit-identical to the batch entry point.

A fixed star pins both sides of the margin for F-Rank.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dense_oracle import BETA, SLACK, batch_topk, dense_scores

from repro.engine.batch import MEASURES
from repro.graph import graph_from_edges
from repro.serving.topk import topk_select
from repro.topk import local_topk
from repro.topk.local import CERT_MARGIN


@st.composite
def near_tie_cases(draw):
    """``(graph, query, alpha)``: a small digraph with a near-tied hub."""
    n = draw(st.integers(min_value=1, max_value=10))
    edges = [
        (
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            draw(st.floats(min_value=0.1, max_value=10.0)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3 * n)))
    ]
    hub = draw(st.integers(0, n - 1))
    weight = draw(st.floats(min_value=0.1, max_value=10.0))
    eps = 10.0 ** draw(st.floats(min_value=-12.0, max_value=-6.0))
    leaves = draw(st.integers(min_value=2, max_value=6))
    for i in range(leaves):
        w = weight * (1.0 + i * eps)
        edges += [(hub, n + i, w), (n + i, hub, w)]
    n += leaves
    graph = graph_from_edges(n, edges, directed=True)
    # The leaves rank near the top for queries at or beside the hub.
    query = draw(st.one_of(st.just(hub), st.integers(0, n - 1)))
    alpha = draw(st.sampled_from([0.15, 0.25, 0.5, 0.85]))
    return graph, query, alpha


def assert_certified_exact_or_escalated_bit_identical(graph, query, k, alpha, measure):
    dense = dense_scores(graph, query, alpha)[measure]
    result = local_topk(graph, query, k, alpha, measure=measure, beta=BETA, normalize=False)
    assert result.certified != result.escalated
    if result.certified:
        expected, values = topk_select(dense, k)
        assert result.indices.tolist() == expected.tolist(), measure
        assert np.all(result.scores <= values + SLACK), measure
        assert np.all(values <= result.scores + result.bound + SLACK), measure
    else:
        idx, val = batch_topk(graph, query, k, alpha, measure)
        assert np.array_equal(result.indices, idx), measure
        assert np.array_equal(result.scores, val), measure
    return result


@settings(max_examples=80, deadline=None)
@given(case=near_tie_cases(), k=st.integers(min_value=1, max_value=6))
def test_near_ties_are_certified_exact_or_escalated_bit_identical(case, k):
    graph, query, alpha = case
    for measure in MEASURES:
        assert_certified_exact_or_escalated_bit_identical(graph, query, k, alpha, measure)


def star(eps: float):
    """Hub 0 with leaves 1-4 (leaf ``i`` weighted ``1 + i * eps``) and a 3-cycle."""
    edges = [(0, 5, 1.0), (5, 6, 1.0), (6, 0, 1.0)]
    for i in range(1, 5):
        edges += [(0, i, 1.0 + i * eps), (i, 0, 1.0 + i * eps)]
    return graph_from_edges(7, edges, directed=True)


@pytest.mark.parametrize(("eps", "certified"), [(1e-12, False), (1e-6, True)])
def test_the_star_certifies_only_gaps_above_the_margin(eps, certified):
    # From the hub the leaves' F-Rank scores sit about 0.1 apart from the
    # rest and about 0.1 * eps from each other: 1e-13 is below CERT_MARGIN,
    # so the query escalates; 1e-7 is not, and the bounds resolve it.
    graph = star(eps)
    f = dense_scores(graph, 0, 0.5)["frank"]
    gap = float(np.min(np.abs(np.diff(f[1:5]))))
    assert (gap > CERT_MARGIN) == certified
    result = assert_certified_exact_or_escalated_bit_identical(graph, 0, 3, 0.5, "frank")
    assert result.certified == certified
