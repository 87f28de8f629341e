"""Tests for the paper-family measure wrappers."""

import numpy as np
import pytest

from repro.baselines import (
    FRankMeasure,
    RoundTripRankMeasure,
    RoundTripRankPlusMeasure,
    TRankMeasure,
)
from repro.core import frank_vector, roundtriprank, roundtriprank_plus, trank_vector

#: A two-node query: the per-node rule and the composed pair disagree on it.
TWO_NODES = {203: 1.0, 206: 2.0}


class TestWrappersMatchCore:
    def test_frank(self, toy_graph):
        assert np.allclose(
            FRankMeasure().scores(toy_graph, 0), frank_vector(toy_graph, 0)
        )

    def test_trank(self, toy_graph):
        assert np.allclose(
            TRankMeasure().scores(toy_graph, 0), trank_vector(toy_graph, 0)
        )

    def test_roundtrip(self, toy_graph):
        scores = RoundTripRankMeasure().scores(toy_graph, 0)
        f = frank_vector(toy_graph, 0)
        t = trank_vector(toy_graph, 0)
        assert np.allclose(scores, f * t)

    def test_plus(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        m = RoundTripRankPlusMeasure(beta=0.3)
        assert np.allclose(
            m.scores(toy_graph, q), roundtriprank_plus(toy_graph, q, beta=0.3)
        )


class TestSharedFTPath:
    def test_scores_from_ft_consistent(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        f = frank_vector(toy_graph, q)
        t = trank_vector(toy_graph, q)
        for measure in (
            FRankMeasure(),
            TRankMeasure(),
            RoundTripRankMeasure(),
            RoundTripRankPlusMeasure(beta=0.7),
        ):
            assert measure.uses_ft
            assert np.allclose(
                measure.scores_from_ft([1.0], [f], [t]), measure.scores(toy_graph, q)
            )

    def test_with_beta_does_not_mutate(self):
        m = RoundTripRankPlusMeasure(beta=0.5)
        m2 = m.with_beta(0.8)
        assert m.beta == 0.5
        assert m2.beta == 0.8
        assert type(m2) is RoundTripRankPlusMeasure


class TestMultiNodeQueries:
    """A multi-node query scores per node, as ``repro.core`` defines it."""

    @pytest.mark.parametrize(
        "measure, core",
        [
            (RoundTripRankMeasure(), lambda g, q: roundtriprank(g, q, normalize=False)),
            (RoundTripRankPlusMeasure(beta=0.3), lambda g, q: roundtriprank_plus(g, q, 0.3)),
        ],
        ids=["roundtriprank", "roundtriprank_plus"],
    )
    def test_two_node_query_matches_core(self, small_bibnet, measure, core):
        graph = small_bibnet.graph
        expected = core(graph, TWO_NODES)
        np.testing.assert_allclose(measure.scores(graph, TWO_NODES), expected, rtol=1e-12, atol=0)
