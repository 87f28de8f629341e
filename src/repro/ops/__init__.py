"""Unified operator/kernel subsystem: one abstraction for every multiply.

Every ranking solve in this library — F-Rank, T-Rank, RoundTripRank(+),
batched or single-query, sequential or sharded across processes — reduces to
repeated products with one prepared CSR operator.  This package owns that
hot path:

- :class:`TransitionOperator` (:mod:`repro.ops.operator`) — the prepared
  oriented CSR (``P`` or ``P^T``) with cached per-dtype variants and damped
  copies; exposes ``matmat(x, out=, accumulate=)`` / ``matvec`` /
  ``rmatvec``.  :func:`get_operator` caches one per ``(graph,
  orientation)``.
- the matmat kernel (:mod:`repro.ops.kernels`) — scipy's accumulate-form
  product, ``csr_matvec`` for a one-column block and ``csr_matvecs`` for a
  wider one, with the allocating ``@`` as its fallback;
  :func:`active_kernel` reports which form runs.  Its single-vector
  sibling ``matvec_accumulate`` runs 2SBound's Stage-II sweeps
  (:mod:`repro.topk.fbound`, :mod:`repro.topk.tbound`) and the local
  top-k sweeps (:mod:`repro.topk.local`).

Consumers: :mod:`repro.engine.batch` (all batch sweeps),
:mod:`repro.core.frank` / :mod:`repro.core.trank` (single-query paths),
the top-K oracle (:mod:`repro.topk.naive`), and :mod:`repro.parallel`
workers (which reconstruct operators from shared memory, float32 variant
included).
"""

from repro.ops.kernels import HAS_CSR_MATVECS, KernelReport, active_kernel
from repro.ops.operator import TransitionOperator, as_operator, get_operator

__all__ = [
    "TransitionOperator",
    "get_operator",
    "as_operator",
    "active_kernel",
    "KernelReport",
    "HAS_CSR_MATVECS",
]
