"""Tests for the paired t-test wrapper."""

import numpy as np
import pytest

from repro.eval import paired_t_test


class TestPairedTTest:
    def test_identical_samples_p_one(self):
        r = paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert r.p_value == 1.0
        assert not r.significant()

    def test_clear_difference_significant(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0.4, 0.6, size=200)
        better = base + 0.1 + rng.normal(0, 0.01, size=200)
        r = paired_t_test(better, base)
        assert r.significant(0.01)
        assert r.mean_difference == pytest.approx(0.1, abs=0.01)
        assert r.t_statistic > 0

    def test_means_reported(self):
        r = paired_t_test([1.0, 2.0], [0.0, 1.0])
        assert r.mean_a == 1.5
        assert r.mean_b == 0.5
        assert r.n == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "a, b, sign",
        [
            ([1.0, 2.0], [0.0, 1.0], 1.0),
            ([0.0, 1.0], [1.0, 2.0], -1.0),
            # Differences a few ulps apart are constant too.
            ([0.3, 0.7, 1.1], [0.2, 0.6, 1.0], 1.0),
        ],
    )
    def test_constant_difference_is_answered_without_warning(self, a, b, sign):
        r = paired_t_test(a, b)
        assert r.t_statistic == sign * np.inf
        assert r.p_value == 0.0
        assert r.significant()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            paired_t_test([1.0], [1.0, 2.0])

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="two pairs"):
            paired_t_test([1.0], [2.0])

    def test_symmetry(self):
        a = [0.6, 0.7, 0.9, 0.5]
        b = [0.5, 0.6, 0.7, 0.6]
        r1 = paired_t_test(a, b)
        r2 = paired_t_test(b, a)
        assert r1.p_value == pytest.approx(r2.p_value)
        assert r1.t_statistic == pytest.approx(-r2.t_statistic)
