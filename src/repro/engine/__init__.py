"""The serving substrate: batched multi-column solves.

:mod:`repro.engine.batch` computes multi-query F-Rank / T-Rank /
RoundTripRank via a single multi-column sparse power iteration with
per-column early exit (``frank_batch`` / ``trank_batch`` /
``roundtriprank_batch`` / ``roundtriprank_plus_batch``); the default
``method="auto"`` layers a residual-verified mixed-precision Chebyshev
acceleration on top, with ``method="power"`` as the bit-exact reference.

The single-query functions in :mod:`repro.core` are one-column
``method="power"`` calls of these paths, so ``method="power"`` batch
columns match them bit for bit.  The module also holds the one measure table,
:data:`repro.engine.batch.MEASURE_KINDS`: which of F and T each served
measure reads.  Online serving stacks on the same two batch entry points:
:class:`repro.serving.ColumnCache` misses and warms solve through
``frank_batch`` / ``trank_batch`` (optionally sharded with ``workers=``),
and so do the gateway's batcher lanes and local top-k escalations through
that cache.  Every operator product goes through :mod:`repro.ops` (the
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
