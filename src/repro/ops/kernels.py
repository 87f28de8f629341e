"""The CSR matmat kernel behind :class:`repro.ops.TransitionOperator`.

Every F-Rank / T-Rank / RoundTripRank solve reduces to repeated
``operator @ X`` sweeps over one CSR matrix, so the sparse matmat kernel is
the load-bearing hot path of the whole library.  There is exactly one:
scipy's CSR matmat, routed through the accumulate-form ``csr_matvecs``
sparsetools entry point when the running scipy still exposes it (no
per-sweep allocation or zeroing), with the allocating ``@`` product as the
fallback otherwise.

:func:`active_kernel` reports which form is in use and, when the fallback
runs, why.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

try:  # accumulate-form CSR matmat: no per-sweep allocation or zeroing
    from scipy.sparse import _sparsetools as _sptools

    _csr_matvecs = _sptools.csr_matvecs
except (ImportError, AttributeError):  # pragma: no cover - scipy internals moved
    _csr_matvecs = None

#: Whether scipy exposed the private ``csr_matvecs`` accumulate-form entry
#: point at import.  ``tests/ops/test_capabilities.py`` asserts this is
#: ``True`` on the CI scipy version, so an upstream rename fails loudly in
#: CI instead of silently degrading production to the allocating fallback.
HAS_CSR_MATVECS = _csr_matvecs is not None

#: The kernel's name in :func:`active_kernel` reports, obs spans and the
#: ``repro_kernel_matmat_total`` counter label.
KERNEL_NAME = "scipy"

_FALLBACK_REASON = (
    "scipy.sparse._sparsetools.csr_matvecs is unavailable; using the "
    "allocating scipy product"
)


@dataclass(frozen=True)
class KernelReport:
    """What :func:`active_kernel` found: the kernel and, on the fallback
    product, why the accumulate form is not in use."""

    name: str
    fallback_reason: "str | None"

    @property
    def is_fallback(self) -> bool:
        return self.fallback_reason is not None


def active_kernel() -> KernelReport:
    """Report of the kernel the next multiply will use."""
    reason = None if _csr_matvecs is not None else _FALLBACK_REASON
    return KernelReport(KERNEL_NAME, reason)


def _spmm_accumulate(matrix: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> None:
    """``out += matrix @ x`` via ``csr_matvecs`` (requires the capability)."""
    n_row, n_col = matrix.shape
    _csr_matvecs(
        n_row, n_col, x.shape[1],
        matrix.indptr, matrix.indices, matrix.data,
        x.ravel(), out.ravel(),
    )


def matmat(matrix: sp.csr_matrix, x: np.ndarray, out: np.ndarray, accumulate: bool) -> None:
    """``out (+)= matrix @ x``; writes every element of ``out``.

    ``x`` and ``out`` must be C-contiguous and match ``matrix``'s dtype
    (:meth:`repro.ops.TransitionOperator.matmat` checks all of that).
    """
    if _csr_matvecs is not None:
        if not accumulate:
            out[...] = 0
        _spmm_accumulate(matrix, x, out)
    elif accumulate:
        out += matrix @ x
    else:
        out[...] = matrix @ x
