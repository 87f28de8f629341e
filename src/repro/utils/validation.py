"""Argument validation helpers.

All public entry points of the library validate their inputs through these
helpers so that error messages are uniform and informative.
"""

from __future__ import annotations

import math
import numbers


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability in the closed interval [0, 1].

    Returns the value as a float so callers can write
    ``alpha = check_probability(alpha, "alpha")``.
    """
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    *,
    inclusive_low: bool = True,
    inclusive_high: bool = True,
) -> float:
    """Validate that ``value`` lies in the given interval and return it."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    low_ok = value >= low if inclusive_low else value > low
    high_ok = value <= high if inclusive_high else value < high
    if not (low_ok and high_ok):
        lo_b = "[" if inclusive_low else "("
        hi_b = "]" if inclusive_high else ")"
        raise ValueError(f"{name} must be in {lo_b}{low}, {high}{hi_b}, got {value}")
    return value


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Validate that ``value`` is finite and positive (strictly, by default).

    NaN fails every comparison, so it must be rejected explicitly: a NaN
    ``tol`` would otherwise run a solver to ``max_iter`` (or stop it after
    one sweep) without a word.
    """
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a strictly positive integer and return it.

    The shared sample-count contract: every Monte Carlo entry point (the
    estimators, the walk samplers, the sharded parallel sampler) rejects
    zero and negative counts through this helper so the failure mode is
    loud and uniform instead of an empty-array surprise.
    """
    if not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_node_id(node: int, n_nodes: int, name: str = "node") -> int:
    """Validate that ``node`` is a valid node id for a graph of ``n_nodes``."""
    if not isinstance(node, numbers.Integral):
        raise TypeError(f"{name} must be an integer node id, got {type(node).__name__}")
    node = int(node)
    if not 0 <= node < n_nodes:
        raise ValueError(f"{name} must be in [0, {n_nodes - 1}], got {node}")
    return node
