"""Statistical significance: the paper's two-tail paired t-test.

Fig. 5 and Fig. 9–10 claims ("improves ... with statistical significance,
p < 0.01") are paired t-tests over per-query NDCG values; this module wraps
scipy's implementation with the pairing and reporting conventions used
throughout the benches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats

#: Relative spread under which paired differences count as constant: the
#: threshold of scipy's own catastrophic-cancellation check.
_CONSTANT_EPS = 10 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class PairedTTestResult:
    """Result of a two-tail paired t-test between two measures."""

    mean_a: float
    mean_b: float
    mean_difference: float  # a - b
    t_statistic: float
    p_value: float
    n: int

    def significant(self, level: float = 0.01) -> bool:
        """Whether the difference is significant at ``level`` (two-tailed)."""
        return bool(self.p_value < level)


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> PairedTTestResult:
    """Two-tail paired t-test of per-query scores ``a`` vs ``b``.

    Raises ``ValueError`` on mismatched lengths or fewer than two pairs.
    Identical samples return ``p = 1.0`` (no evidence of difference) rather
    than scipy's NaN, and a constant nonzero difference returns
    ``t = +-inf`` and ``p = 0.0`` rather than scipy's precision-loss
    warning, so callers need no special-casing.
    """
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    if a_arr.shape != b_arr.shape:
        raise ValueError(f"paired samples differ in shape: {a_arr.shape} vs {b_arr.shape}")
    if a_arr.size < 2:
        raise ValueError("need at least two pairs for a t-test")
    diff = a_arr - b_arr
    mean = float(diff.mean())
    if np.allclose(a_arr, b_arr):
        t_stat, p_value = 0.0, 1.0
    elif np.abs(diff - mean).max() < _CONSTANT_EPS * abs(mean):
        # The differences spread less than their mean's round-off: no
        # variance to test, and scipy would only warn of the cancellation.
        t_stat, p_value = math.copysign(math.inf, mean), 0.0
    else:
        t_stat, p_value = stats.ttest_rel(a_arr, b_arr)
        if np.isnan(p_value):
            t_stat, p_value = 0.0, 1.0
    return PairedTTestResult(
        mean_a=float(a_arr.mean()),
        mean_b=float(b_arr.mean()),
        mean_difference=mean,
        t_statistic=float(t_stat),
        p_value=float(p_value),
        n=int(a_arr.size),
    )
