"""Hypothesis property suite for the certified local top-k solver.

Two invariants over random weighted digraphs and alphas:

- *oracle parity*: a certified result's top-k set and order equal the
  full-solve oracle's exactly (certification proves the true ordering
  with a margin far above the oracle's 1e-12 solve tolerance); an
  escalated result is bit-identical to the exact batch-engine path, and
  its picked items' true scores equal the oracle's top-k values — order
  may legitimately differ from the per-vector oracle only where true
  scores are tied below solver tolerance, where any two exact solvers
  rank arbitrarily;
- *bound soundness*: a certified result's reported score bounds bracket
  the true scores, and every sweep state's residual error bound dominates
  the true remaining error of its column.

Edge weights are drawn continuous, so *exact* score ties have measure
zero, but near-ties below double-precision solver tolerance do occur on
random graphs (observed relative gaps down to 1e-16); structural
danglers, self-loops, and near-empty rows all occur too.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import frank_vector, trank_vector
from repro.engine import roundtriprank_batch, roundtriprank_plus_batch
from repro.graph import DiGraph
from repro.serving.topk import topk_select
from repro.topk import ColumnPush, local_topk

from test_local_topk import oracle_scores


def assert_oracle_parity(result, truth, expected, expected_vals, engine):
    """The outcome-dependent exactness contract (module docstring)."""
    if result.certified:
        assert result.indices.tolist() == expected.tolist()
        assert np.all(result.scores <= expected_vals + 1e-12)
        assert np.all(expected_vals <= result.scores + result.bound + 1e-12)
    else:
        engine_idx, engine_val = engine()
        assert np.array_equal(result.indices, engine_idx)
        assert np.array_equal(result.scores, engine_val)
        # order may swap only inside sub-tolerance ties, so the picked
        # items' true scores must still equal the oracle's top-k values
        np.testing.assert_allclose(
            truth[result.indices], expected_vals, rtol=1e-9, atol=1e-12
        )


@st.composite
def graph_and_query(draw):
    n = draw(st.integers(min_value=2, max_value=32))
    density = draw(st.floats(min_value=0.05, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    keep_loops = draw(st.booleans())
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n))
    dense[rng.random((n, n)) > density] = 0.0
    if not keep_loops:
        np.fill_diagonal(dense, 0.0)
    graph = DiGraph(sp.csr_matrix(dense))
    alpha = draw(st.floats(min_value=0.05, max_value=0.9))
    k = draw(st.integers(min_value=1, max_value=5))
    query = draw(st.integers(min_value=0, max_value=n - 1))
    return graph, alpha, k, query


class TestLocalTopKProperties:
    @settings(max_examples=40, deadline=None)
    @given(case=graph_and_query())
    def test_topk_matches_exact_oracle(self, case):
        graph, alpha, k, query = case
        result = local_topk(
            graph, query, k, alpha, measure="roundtriprank", normalize=False
        )
        truth = oracle_scores(graph, query, "roundtriprank", alpha=alpha)
        expected, expected_vals = topk_select(truth, k)
        assert_oracle_parity(
            result,
            truth,
            expected,
            expected_vals,
            lambda: topk_select(
                roundtriprank_batch(graph, [query], alpha, normalize=False)[:, 0], k
            ),
        )

    @settings(max_examples=25, deadline=None)
    @given(case=graph_and_query())
    def test_residual_bound_dominates_true_error(self, case):
        graph, alpha, _, query = case
        # Stop the sweeps mid-flight at a loose target: the invariant must
        # hold in every intermediate state, not only at convergence.
        f_push = ColumnPush(graph, query, alpha, "f")
        f_push.advance(1e-2, 10**9)
        f_true = frank_vector(graph, query, alpha)
        f_err = np.abs(f_true - f_push.estimate)
        assert np.all(f_push.estimate <= f_true + 1e-10)
        assert np.all(f_err <= f_push.error() + 1e-10)

        t_push = ColumnPush(graph, query, alpha, "t")
        t_push.advance(1e-2, 10**9)
        t_true = trank_vector(graph, query, alpha)
        t_err = np.abs(t_true - t_push.estimate)
        assert np.all(t_push.estimate <= t_true + 1e-10)
        assert np.all(t_err <= t_push.error() + 1e-10)

    @settings(max_examples=15, deadline=None)
    @given(case=graph_and_query(), beta=st.floats(min_value=0.1, max_value=0.9))
    def test_plus_measure_matches_oracle(self, case, beta):
        graph, alpha, k, query = case
        result = local_topk(
            graph, query, k, alpha,
            measure="roundtriprank_plus", beta=beta, normalize=False,
        )
        truth = oracle_scores(graph, query, "roundtriprank_plus", beta=beta, alpha=alpha)
        expected, expected_vals = topk_select(truth, k)
        assert_oracle_parity(
            result,
            truth,
            expected,
            expected_vals,
            # the + measure is unnormalized by construction (Eq. 12)
            lambda: topk_select(roundtriprank_plus_batch(graph, [query], beta, alpha)[:, 0], k),
        )
