"""Measures reject bad parameters when they are built, not at the first score.

Every F/T solver needs ``alpha`` in the open interval (0, 1), ObjectRank
needs ``d`` there too, and ``beta`` is a weight in [0, 1] (the check
``with_beta`` uses).  A value outside those ranges raises ``ValueError``
at construction instead of surfacing deep inside a task sweep, or as
non-finite scores.
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
    TCommutePlusMeasure,
    TRankMeasure,
)

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
    TCommutePlusMeasure: ("beta",),
}

OPEN_UNIT_BAD = (0.0, 1.0, -0.1, 1.5, math.nan)
BAD_VALUES = {"alpha": OPEN_UNIT_BAD, "d": OPEN_UNIT_BAD, "beta": (-0.1, 1.5, math.nan, math.inf)}

CASES = [
    pytest.param(measure, name, value, id=f"{measure.__name__}-{name}={value}")
    for measure, names in MEASURES.items()
    for name in names
    for value in BAD_VALUES[name]
]


@pytest.mark.parametrize("measure, name, value", CASES)
def test_bad_parameter_is_rejected_at_construction(measure, name, value):
    with pytest.raises(ValueError, match=name):
        measure(**{name: value})


@pytest.mark.parametrize("measure", list(MEASURES), ids=lambda measure: measure.__name__)
def test_defaults_construct_and_score(measure, toy_graph):
    scores = measure().scores(toy_graph, 0)
    assert scores.shape == (toy_graph.n_nodes,)
    assert np.all(np.isfinite(scores))
