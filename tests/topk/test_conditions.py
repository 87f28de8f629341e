"""Tests for the ε-approximate top-K conditions (Eq. 13–14)."""

import numpy as np
import pytest

from repro.topk import TopKCandidate, sort_candidates, topk_conditions_met


def candidate(order, lower, upper, unseen):
    return TopKCandidate(
        order=np.asarray(order),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        unseen_upper=unseen,
    )


class TestSortCandidates:
    def test_sorts_by_lower_desc(self):
        c = sort_candidates(
            np.array([0, 1, 2]),
            np.array([0.1, 0.9, 0.5]),
            np.array([0.2, 1.0, 0.6]),
            0.05,
        )
        assert c.order.tolist() == [1, 2, 0]
        assert c.lower.tolist() == [0.9, 0.5, 0.1]

    def test_candidate_mask(self):
        mask = np.array([True, False, True])
        c = sort_candidates(
            np.array([0, 1, 2]),
            np.array([0.1, 0.9, 0.5]),
            np.array([0.2, 1.0, 0.6]),
            0.05,
            candidate_mask=mask,
        )
        assert c.order.tolist() == [2, 0]

    def test_exclude(self):
        c = sort_candidates(
            np.array([0, 1]),
            np.array([0.9, 0.5]),
            np.array([1.0, 0.6]),
            0.0,
            exclude={0},
        )
        assert c.order.tolist() == [1]

    def test_tie_breaks_by_node_id(self):
        c = sort_candidates(
            np.array([3, 5, 7]),
            np.array([0.5, 0.5, 0.5]),
            np.array([0.5, 0.5, 0.5]),
            0.0,
        )
        assert c.order.tolist() == [3, 5, 7]


class TestConditions:
    def test_clear_separation_accepts(self):
        c = candidate([1, 2, 3], [0.9, 0.7, 0.2], [0.95, 0.75, 0.25], unseen=0.1)
        assert topk_conditions_met(c, 2, 0.0)

    def test_unseen_bound_blocks(self):
        c = candidate([1, 2], [0.9, 0.7], [0.95, 0.75], unseen=0.8)
        assert not topk_conditions_met(c, 2, 0.0)

    def test_seen_tail_blocks(self):
        c = candidate([1, 2, 3], [0.9, 0.7, 0.2], [0.95, 0.75, 0.72], unseen=0.0)
        assert not topk_conditions_met(c, 2, 0.0)

    def test_epsilon_relaxes_membership(self):
        c = candidate([1, 2, 3], [0.9, 0.7, 0.2], [0.95, 0.75, 0.71], unseen=0.0)
        assert not topk_conditions_met(c, 2, 0.0)
        assert topk_conditions_met(c, 2, 0.02)

    def test_ordering_condition(self):
        # membership fine (both lowers beat the tail), but the first two
        # entries' intervals overlap: lower[0]=0.72 < upper[1]=0.75.
        c = candidate([1, 2, 3], [0.72, 0.7, 0.1], [0.95, 0.75, 0.15], unseen=0.0)
        assert not topk_conditions_met(c, 2, 0.0)
        assert topk_conditions_met(c, 2, 0.04)
        # with separated intervals the same shape passes at epsilon = 0
        c2 = candidate([1, 2, 3], [0.8, 0.7, 0.1], [0.95, 0.75, 0.15], unseen=0.0)
        assert topk_conditions_met(c2, 2, 0.0)

    def test_fewer_candidates_than_k(self):
        c = candidate([1], [0.9], [0.95], unseen=0.5)
        assert not topk_conditions_met(c, 3, 0.0)
        # but acceptable when nothing unseen can score above epsilon
        c2 = candidate([1], [0.9], [0.95], unseen=0.0)
        assert topk_conditions_met(c2, 3, 0.0)
        c3 = candidate([1], [0.9], [0.95], unseen=0.05)
        assert topk_conditions_met(c3, 3, 0.1)

    def test_empty_candidates(self):
        c = candidate([], [], [], unseen=0.0)
        assert topk_conditions_met(c, 1, 0.0)
        c2 = candidate([], [], [], unseen=0.2)
        assert not topk_conditions_met(c2, 1, 0.0)

    def test_validation(self):
        c = candidate([1], [0.5], [0.5], unseen=0.0)
        with pytest.raises(ValueError):
            topk_conditions_met(c, 0, 0.0)
        with pytest.raises(ValueError):
            topk_conditions_met(c, 1, -0.1)
        with pytest.raises(ValueError):
            topk_conditions_met(c, 1, float("nan"))
