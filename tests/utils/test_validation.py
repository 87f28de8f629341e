"""Tests for argument validation helpers."""

import pytest

from repro.utils.validation import (
    check_in_range,
    check_node_id,
    check_positive,
    check_probability,
)


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        assert check_probability(0.5, "p") == 0.5

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="p must be"):
            check_probability(bad, "p")

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            check_probability("0.5", "p")


class TestCheckInRange:
    def test_inclusive_default(self):
        assert check_in_range(1.0, "x", 1.0, 2.0) == 1.0

    def test_exclusive_low(self):
        with pytest.raises(ValueError):
            check_in_range(1.0, "x", 1.0, 2.0, inclusive_low=False)

    def test_exclusive_high(self):
        with pytest.raises(ValueError):
            check_in_range(2.0, "x", 1.0, 2.0, inclusive_high=False)

    def test_message_shows_interval(self):
        with pytest.raises(ValueError, match=r"\(1\.0, 2\.0\]"):
            check_in_range(0.5, "x", 1.0, 2.0, inclusive_low=False)


class TestCheckPositive:
    def test_strict(self):
        assert check_positive(0.1, "x") == 0.1
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_non_strict(self):
        assert check_positive(0.0, "x", strict=False) == 0.0
        with pytest.raises(ValueError):
            check_positive(-1.0, "x", strict=False)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("strict", [True, False])
    def test_rejects_non_finite(self, bad, strict):
        # NaN fails every comparison, so a plain "<= 0" check lets it pass.
        with pytest.raises(ValueError, match="finite"):
            check_positive(bad, "x", strict=strict)


class TestCheckNodeId:
    def test_valid(self):
        assert check_node_id(3, 5) == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_node_id(5, 5)
        with pytest.raises(ValueError):
            check_node_id(-1, 5)

    def test_non_integer(self):
        with pytest.raises(TypeError):
            check_node_id(1.5, 5)

    def test_numpy_integer_accepted(self):
        import numpy as np

        assert check_node_id(np.int64(2), 5) == 2
