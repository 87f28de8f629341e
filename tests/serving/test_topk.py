"""Tests for top-k selection: parity with full-vector ranking."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import roundtriprank_batch, roundtriprank_plus_batch
from repro.eval.metrics import ranking_from_scores
from repro.serving import topk_select


def full_ranking(scores, k):
    return np.argsort(-scores, kind="stable")[:k]


# Few distinct values, so most vectors tie at the k boundary; both zeros,
# both infinities and NaN, which the stable sort ranks below -inf.
TIE_VALUES = (0.0, -0.0, 0.25, 1.0, -1.0, np.inf, -np.inf, np.nan)


@st.composite
def selection_cases(draw):
    """``(scores, k, exclude, candidate_mask)`` over a tie-heavy vector."""
    n = draw(st.integers(min_value=1, max_value=40))
    scores = np.array(draw(st.lists(st.sampled_from(TIE_VALUES), min_size=n, max_size=n)))
    k = draw(st.integers(min_value=1, max_value=n + 2))
    exclude = draw(st.sets(st.integers(0, n - 1), max_size=n))
    mask = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))
    return scores, k, exclude, mask


class TestTopkSelect:
    @pytest.mark.parametrize("k", [1, 2, 5, 11, 12, 20])
    def test_parity_on_toy_roundtrip_scores(self, toy_graph, k):
        for q in range(toy_graph.n_nodes):
            scores = roundtriprank_batch(toy_graph, [q])[:, 0]
            indices, values = topk_select(scores, k)
            expected = full_ranking(scores, k)
            assert np.array_equal(indices, expected)
            assert np.array_equal(values, scores[expected])

    def test_tie_break_by_node_id_across_boundary(self):
        # Six tied scores straddling every k: selection must keep the
        # ascending-id prefix, exactly like the stable full sort.
        scores = np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.9, 0.1])
        for k in range(1, 9):
            indices, _ = topk_select(scores, k)
            assert np.array_equal(indices, full_ranking(scores, k))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_vectors_with_heavy_ties(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 6, size=200).astype(float) / 5.0
        for k in (1, 7, 50, 199, 200):
            indices, values = topk_select(scores, k)
            expected = full_ranking(scores, k)
            assert np.array_equal(indices, expected)
            assert np.array_equal(values, scores[expected])

    def test_exclude_and_mask_match_ranking_from_scores(self, toy_graph):
        scores = roundtriprank_batch(toy_graph, [0])[:, 0]
        mask = toy_graph.type_mask("venue")
        indices, _ = topk_select(scores, 3, exclude={0}, candidate_mask=mask)
        expected = ranking_from_scores(scores, exclude={0}, candidate_mask=mask, limit=3)
        assert indices.tolist() == expected

    def test_k_larger_than_eligible_returns_all(self):
        scores = np.array([3.0, 1.0, 2.0])
        indices, values = topk_select(scores, 10)
        assert indices.tolist() == [0, 2, 1]
        assert values.tolist() == [3.0, 2.0, 1.0]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            topk_select(np.ones(3), 0)

    @settings(max_examples=200, deadline=None)
    @given(case=selection_cases())
    # The k-th largest is NaN, which no comparison keeps; ranked [1, 0].
    @example(case=(np.array([np.nan, 1.0, np.nan]), 2, set(), None))
    def test_equals_the_stable_sort_on_every_input(self, case):
        scores, k, exclude, mask = case
        indices, values = topk_select(scores, k, exclude=exclude, candidate_mask=mask)
        eligible = np.ones(scores.size, dtype=bool) if mask is None else mask.copy()
        eligible[sorted(exclude)] = False
        nodes = np.flatnonzero(eligible)
        expected = nodes[full_ranking(scores[nodes], k)]
        assert indices.tolist() == expected.tolist()
        assert values.tobytes() == scores[expected].tobytes()  # the zeros' signs too

    @pytest.mark.parametrize("k", [7.5, 2.5, np.float64(3.0)])
    def test_non_integer_k_rejected(self, k):
        # Rejected as local_topk and naive_topk reject it.  A fractional k
        # at or above the eligible count used to return every node, and a
        # smaller one failed inside numpy's partition.
        with pytest.raises(TypeError, match="k must be an integer"):
            topk_select(np.arange(5.0), k)


class TestBatchColumns:
    """``topk_select`` over the columns of the batch engine's measures."""

    def test_roundtriprank_columns_match_full(self, toy_graph):
        for q in range(toy_graph.n_nodes):
            full = roundtriprank_batch(toy_graph, [q])[:, 0]
            indices, values = topk_select(full, 20)
            expected = full_ranking(full, 20)
            assert np.array_equal(indices, expected)
            assert np.allclose(values, full[expected])

    def test_batch_rows_match_single(self, toy_graph):
        queries = [0, 3, 7, 11]
        batch = roundtriprank_batch(toy_graph, queries)
        for j, q in enumerate(queries):
            indices, values = topk_select(batch[:, j], 5)
            assert indices.shape == (5,) and values.shape == (5,)
            single_idx, single_val = topk_select(roundtriprank_batch(toy_graph, [q])[:, 0], 5)
            assert np.array_equal(indices, single_idx)
            assert np.allclose(values, single_val)

    def test_plus_batch_matches_full(self, toy_graph):
        queries = [1, 6]
        full = roundtriprank_plus_batch(toy_graph, queries, beta=0.7)
        for j in range(len(queries)):
            indices, values = topk_select(full[:, j], 4)
            expected = full_ranking(full[:, j], 4)
            assert np.array_equal(indices, expected)
            assert np.allclose(values, full[:, j][expected])

    def test_per_query_exclude(self, toy_graph):
        queries = [0, 1]
        scores = roundtriprank_batch(toy_graph, queries)
        for j, q in enumerate(queries):
            indices, _ = topk_select(scores[:, j], 3, exclude={q})
            assert q not in indices

    def test_multi_node_query(self, toy_graph):
        query = {0: 1.0, 1: 2.0}
        full = roundtriprank_batch(toy_graph, [query])[:, 0]
        indices, _ = topk_select(full, 6)
        assert np.array_equal(indices, full_ranking(full, 6))
