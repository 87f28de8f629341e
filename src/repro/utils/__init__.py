"""Shared utilities: validation, RNG handling and timing.

These are the small substrate pieces the rest of the library builds on.
Nothing in here knows about graphs or ranking.
"""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.timer import Timer
from repro.utils.validation import (
    check_in_range,
    check_node_id,
    check_positive,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "Timer",
    "check_in_range",
    "check_node_id",
    "check_positive",
    "check_probability",
]
