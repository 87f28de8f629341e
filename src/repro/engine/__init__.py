"""The serving substrate: batched multi-column solves.

:mod:`repro.engine.batch` computes multi-query F-Rank / T-Rank /
RoundTripRank via a single multi-column sparse power iteration with
per-column early exit (``frank_batch`` / ``trank_batch`` /
``roundtriprank_batch`` / ``roundtriprank_plus_batch``); the default
``method="auto"`` layers a residual-verified mixed-precision Chebyshev
acceleration on top, with ``method="power"`` as the bit-exact reference.

The single-query functions in :mod:`repro.core` are thin wrappers over (or
reference implementations for) these paths; batch columns match them
exactly.  Online serving stacks on the same two batch entry points:
:class:`repro.serving.ColumnCache` misses and warms solve through
``frank_batch`` / ``trank_batch`` (optionally sharded with ``workers=``),
which is also how the gateway's background
:class:`repro.gateway.Prefetcher` materializes hot columns during idle
capacity.  Every operator product goes through :mod:`repro.ops` (the
prepared per-graph :class:`~repro.ops.TransitionOperator` and its matmat
kernel).
"""

from repro.engine.batch import (
    frank_batch,
    power_iteration_batch,
    roundtriprank_batch,
    roundtriprank_plus_batch,
    stack_teleports,
    trank_batch,
)

__all__ = [
    "frank_batch",
    "trank_batch",
    "roundtriprank_batch",
    "roundtriprank_plus_batch",
    "power_iteration_batch",
    "stack_teleports",
]
