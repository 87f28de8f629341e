"""Measures reject bad parameters when they are built, not at the first score.

Every F/T solver needs ``alpha`` in the open interval (0, 1), ObjectRank
needs ``d`` there too, and ``beta`` is a weight in [0, 1] (the check
``with_beta`` uses).  A value outside those ranges raises ``ValueError``
at construction instead of surfacing deep inside a task sweep, or as
non-finite scores.  The walk counts, horizons and sweep limits of
TCommute and SimRank are integers >= 1: zero or a negative count raises
``ValueError``, a float (NaN included) ``TypeError``.
"""

import math

import numpy as np
import pytest

from repro.baselines import (
    ArithmeticMeasure,
    ArithmeticPlusMeasure,
    FRankMeasure,
    HarmonicMeasure,
    HarmonicPlusMeasure,
    ObjSqrtInvMeasure,
    ObjSqrtInvPlusMeasure,
    RoundTripRankMeasure,
    RoundTripRankPlusMeasure,
    SimRankMeasure,
    TCommuteMeasure,
    TCommutePlusMeasure,
    TRankMeasure,
)
from repro.baselines.simrank import simrank_matrix, simrank_single_source
from repro.baselines.tcommute import hitting_time_from_sampled, hitting_time_to

#: measure -> the checked parameters its constructor takes.
MEASURES = {
    FRankMeasure: ("alpha",),
    TRankMeasure: ("alpha",),
    RoundTripRankMeasure: ("alpha",),
    RoundTripRankPlusMeasure: ("alpha", "beta"),
    HarmonicMeasure: ("alpha",),
    ArithmeticMeasure: ("alpha",),
    HarmonicPlusMeasure: ("alpha", "beta"),
    ArithmeticPlusMeasure: ("alpha", "beta"),
    ObjSqrtInvMeasure: ("d",),
    ObjSqrtInvPlusMeasure: ("beta", "d"),
    TCommutePlusMeasure: ("beta", "horizon", "n_walks"),
    TCommuteMeasure: ("horizon", "n_walks"),
    SimRankMeasure: ("max_iter", "n_samples", "horizon"),
}

OPEN_UNIT_BAD = (0.0, 1.0, -0.1, 1.5, math.nan)
COUNTS = ("horizon", "n_walks", "max_iter", "n_samples")
COUNT_BAD = (0, -1, 2.5, math.nan)
BAD_VALUES = {
    "alpha": OPEN_UNIT_BAD,
    "d": OPEN_UNIT_BAD,
    "beta": (-0.1, 1.5, math.nan, math.inf),
    **dict.fromkeys(COUNTS, COUNT_BAD),
}

CASES = [
    pytest.param(measure, name, value, id=f"{measure.__name__}-{name}={value}")
    for measure, names in MEASURES.items()
    for name in names
    for value in BAD_VALUES[name]
]


def _error(name, value):
    """A non-integer count is a ``TypeError``; every other bad value a ``ValueError``."""
    return TypeError if name in COUNTS and isinstance(value, float) else ValueError


@pytest.mark.parametrize("measure, name, value", CASES)
def test_bad_parameter_is_rejected_at_construction(measure, name, value):
    with pytest.raises(_error(name, value), match=name):
        measure(**{name: value})


@pytest.mark.parametrize("value", COUNT_BAD)
@pytest.mark.parametrize("name", ("n_samples", "horizon"))
def test_simrank_single_source_rejects_bad_counts(toy_graph, name, value):
    with pytest.raises(_error(name, value), match=name):
        simrank_single_source(toy_graph, 0, **{name: value})


@pytest.mark.parametrize("value", COUNT_BAD)
def test_simrank_matrix_rejects_a_bad_max_iter(toy_graph, value):
    # Unchecked, 0 and -1 ran no iteration and returned the identity.
    with pytest.raises(_error("max_iter", value), match="max_iter"):
        simrank_matrix(toy_graph, max_iter=value)


@pytest.mark.parametrize("value", (2.5, math.nan))  # zero and below raised already
@pytest.mark.parametrize(
    "function, name",
    [
        (hitting_time_to, "horizon"),
        (hitting_time_from_sampled, "horizon"),
        (hitting_time_from_sampled, "n_walks"),
    ],
    ids=lambda arg: getattr(arg, "__name__", arg),
)
def test_hitting_times_reject_non_integer_counts(toy_graph, function, name, value):
    # Unchecked, they failed in range() with a TypeError naming no parameter.
    with pytest.raises(TypeError, match=name):
        function(toy_graph, 0, **{name: value})


@pytest.mark.parametrize("measure", list(MEASURES), ids=lambda measure: measure.__name__)
def test_defaults_construct_and_score(measure, toy_graph):
    scores = measure().scores(toy_graph, 0)
    assert scores.shape == (toy_graph.n_nodes,)
    assert np.all(np.isfinite(scores))
