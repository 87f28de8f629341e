"""The CSR kernels: the matmat behind :class:`repro.ops.TransitionOperator`
and the single-vector product behind 2SBound's Stage II and the local
top-k sweeps.

Every F-Rank / T-Rank / RoundTripRank solve reduces to repeated
``operator @ X`` sweeps over one CSR matrix, so the sparse matmat kernel is
the load-bearing hot path of the whole library.  It is scipy's CSR product
in accumulate form (no per-sweep allocation or zeroing), routed by the
block's width alone:

- one column goes through the ``csr_matvec`` sparsetools entry point.  A
  single query's solve (a gateway miss flushed alone, a local top-k
  escalation) is one column, and there ``csr_matvecs`` pays a per-nonzero
  ``axpy`` call that makes it 2-2.5x slower for the same bits;
- two or more columns go through ``csr_matvecs``;
- when the running scipy no longer exposes the entry point a block needs,
  the next one down serves it, ending at the allocating ``@`` product.

Both entry points add each row's terms onto ``out`` in stored order, so
they give the same bits, and so does ``@`` whenever ``out`` starts from
zero.

:func:`matvec_accumulate` is the single-vector product over raw CSR arrays:
2SBound's Stage-II sweeps multiply matrices of a few hundred rows thousands
of times per query, where scipy's per-call dispatch costs more than the
arithmetic.  This module is the only one that imports scipy's private
sparsetools.

:func:`active_kernel` reports which matmat form is in use and, when the
fallback runs, why.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

try:  # scipy's private C++ CSR routines, feature-detected below
    from scipy.sparse import _sparsetools as _sptools
except ImportError:  # pragma: no cover - scipy internals moved
    _sptools = None

#: accumulate-form CSR matmat: no per-sweep allocation or zeroing
_csr_matvecs = getattr(_sptools, "csr_matvecs", None)
#: accumulate-form single-vector CSR product
_csr_matvec = getattr(_sptools, "csr_matvec", None)

#: Whether scipy exposed the private ``csr_matvecs`` accumulate-form entry
#: point at import.  ``tests/ops/test_capabilities.py`` asserts this is
#: ``True`` on the CI scipy version, so an upstream rename fails loudly in
#: CI instead of silently degrading production to the allocating fallback.
HAS_CSR_MATVECS = _csr_matvecs is not None

#: Whether scipy exposed the private single-vector ``csr_matvec`` at import;
#: pinned in CI like :data:`HAS_CSR_MATVECS`.
HAS_CSR_MATVEC = _csr_matvec is not None

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
    (:meth:`repro.ops.TransitionOperator.matmat` checks all of that).  A
    one-column block runs ``csr_matvec`` and a wider one ``csr_matvecs``;
    without the entry point a block needs, the next one serves it, down to
    the allocating ``@`` (see the module docstring for which bits match).
    """
    if x.shape[1] == 1 and _csr_matvec is not None:
        if not accumulate:
            out[...] = 0
        n_row, n_col = matrix.shape
        _csr_matvec(
            n_row, n_col, matrix.indptr, matrix.indices, matrix.data, x.ravel(), out.ravel()
        )
    elif _csr_matvecs is not None:
        if not accumulate:
            out[...] = 0
        _spmm_accumulate(matrix, x, out)
    elif accumulate:
        out += matrix @ x
    else:
        out[...] = matrix @ x


def matvec_accumulate(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, x: np.ndarray, out: np.ndarray
) -> None:
    """``out += A @ x`` for the CSR matrix ``A = (data, indices, indptr)``.

    ``A`` has ``indptr.size - 1`` rows and ``x.size`` columns; ``indptr`` and
    ``indices`` share one integer dtype, ``data``, ``x`` and ``out`` are
    contiguous float64.  Each row accumulates onto ``out`` in stored order,
    so on a zeroed ``out`` the result is bit-identical to scipy's ``A @ x``,
    the allocating product this falls back to without ``csr_matvec``.
    """
    if _csr_matvec is not None:
        _csr_matvec(indptr.size - 1, x.size, indptr, indices, data, x, out)
    else:
        out += sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, x.size)) @ x
