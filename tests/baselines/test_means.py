"""Tests for mean-based F/T combinations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines import (
    ArithmeticMeasure,
    ArithmeticPlusMeasure,
    HarmonicMeasure,
    HarmonicPlusMeasure,
    arithmetic_mean,
    harmonic_mean,
    weighted_arithmetic_mean,
    weighted_harmonic_mean,
)

positive_vectors = arrays(
    np.float64,
    5,
    elements=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
)


class TestMeanFormulas:
    def test_harmonic(self):
        f = np.array([0.5]); t = np.array([0.25])
        assert harmonic_mean(f, t)[0] == pytest.approx(2 * 0.5 * 0.25 / 0.75)

    def test_harmonic_zero_handling(self):
        f = np.array([0.0, 0.5]); t = np.array([0.0, 0.0])
        out = harmonic_mean(f, t)
        assert out.tolist() == [0.0, 0.0]

    def test_arithmetic(self):
        f = np.array([0.5]); t = np.array([0.25])
        assert arithmetic_mean(f, t)[0] == pytest.approx(0.375)

    @settings(max_examples=30, deadline=None)
    @given(positive_vectors, positive_vectors)
    def test_mean_inequality_chain(self, f, t):
        """harmonic <= geometric <= arithmetic, pointwise."""
        h = harmonic_mean(f, t)
        g = np.sqrt(f * t)
        a = arithmetic_mean(f, t)
        assert np.all(h <= g + 1e-12)
        assert np.all(g <= a + 1e-12)


class TestWeightedMeans:
    def test_weighted_harmonic_extremes(self):
        f = np.array([0.5, 0.1]); t = np.array([0.2, 0.4])
        assert np.array_equal(weighted_harmonic_mean(f, t, 0.0), f)
        assert np.array_equal(weighted_harmonic_mean(f, t, 1.0), t)

    def test_weighted_harmonic_half_is_harmonic(self):
        f = np.array([0.5]); t = np.array([0.25])
        assert weighted_harmonic_mean(f, t, 0.5)[0] == pytest.approx(
            harmonic_mean(f, t)[0]
        )

    def test_weighted_harmonic_zero_component(self):
        f = np.array([0.0]); t = np.array([0.5])
        assert weighted_harmonic_mean(f, t, 0.5)[0] == 0.0

    def test_weighted_arithmetic(self):
        f = np.array([1.0]); t = np.array([0.0])
        assert weighted_arithmetic_mean(f, t, 0.25)[0] == pytest.approx(0.75)

    @settings(max_examples=30, deadline=None)
    @given(
        positive_vectors,
        positive_vectors,
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_weighted_means_bounded_by_components(self, f, t, beta):
        wh = weighted_harmonic_mean(f, t, beta)
        wa = weighted_arithmetic_mean(f, t, beta)
        lo = np.minimum(f, t) - 1e-12
        hi = np.maximum(f, t) + 1e-12
        assert np.all((wh >= lo) & (wh <= hi))
        assert np.all((wa >= lo) & (wa <= hi))


class TestMeasureWrappers:
    def test_harmonic_measure(self, toy_graph):
        from repro.core import frank_vector, trank_vector

        q = 0
        m = HarmonicMeasure()
        f = frank_vector(toy_graph, q); t = trank_vector(toy_graph, q)
        assert np.allclose(m.scores(toy_graph, q), harmonic_mean(f, t))

    def test_arithmetic_measure_uses_ft(self):
        assert ArithmeticMeasure.uses_ft
        assert HarmonicPlusMeasure.uses_ft

    def test_plus_measures_tunable(self):
        m = HarmonicPlusMeasure(beta=0.5)
        assert m.with_beta(0.9).beta == 0.9
        m2 = ArithmeticPlusMeasure(beta=0.5)
        assert m2.with_beta(0.1).beta == 0.1

    def test_plus_combines_from_shared_ft(self):
        f = np.array([0.2, 0.4]); t = np.array([0.4, 0.2])
        m = ArithmeticPlusMeasure(beta=0.25)
        assert np.allclose(m.scores_from_ft([1.0], [f], [t]), 0.75 * f + 0.25 * t)
