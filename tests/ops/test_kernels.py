"""The one matmat kernel: its report and its fallback product.

The kernel runs scipy's accumulate-form ``csr_matvecs`` when the running
scipy exposes it and the allocating ``@`` product otherwise.  CI's scipy
always has the fast path (``test_capabilities.py`` insists), so the
fallback is exercised here by taking ``csr_matvecs`` away.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import ops
from repro.engine import power_iteration_batch
from repro.graph.transition import row_normalize
from repro.ops import kernels as k


@pytest.fixture()
def medium_csr():
    rng = np.random.default_rng(11)
    dense = rng.random((83, 83))
    dense[dense < 0.85] = 0.0
    matrix = sp.csr_matrix(dense)
    matrix.sort_indices()
    return matrix


@pytest.fixture()
def without_csr_matvecs(monkeypatch):
    monkeypatch.setattr(k, "_csr_matvecs", None)


class TestKernelSelection:
    def test_default_is_scipy(self):
        report = ops.active_kernel()
        assert report.name == "scipy"
        assert report.fallback_reason is None
        assert not report.is_fallback


class TestFallbackProduct:
    def test_report_names_the_missing_entry_point(self, without_csr_matvecs):
        report = ops.active_kernel()
        assert report.name == "scipy"
        assert report.is_fallback
        assert "csr_matvecs" in report.fallback_reason

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matmat_equals_dense_product(self, without_csr_matvecs, medium_csr, dtype):
        rng = np.random.default_rng(7)
        matrix = medium_csr.astype(dtype)
        x = rng.random((83, 5)).astype(dtype)
        dense = matrix.toarray() @ x
        rtol = 1e-5 if dtype == np.float32 else 1e-12
        top = ops.as_operator(matrix)
        got = top.matmat(x)
        assert got.dtype == np.dtype(dtype)
        np.testing.assert_allclose(got, dense, rtol=rtol)
        out = np.full_like(x, np.nan)
        assert top.matmat(x, out=out) is out
        np.testing.assert_allclose(out, dense, rtol=rtol)

    def test_accumulate_adds_the_dense_product(self, without_csr_matvecs, medium_csr):
        rng = np.random.default_rng(13)
        x = rng.random((83, 5))
        base = rng.random((83, 5))
        out = base.copy()
        ops.as_operator(medium_csr).matmat(x, out=out, accumulate=True)
        np.testing.assert_allclose(out, base + medium_csr.toarray() @ x, rtol=1e-12)

    def test_power_batch_still_solves(self, without_csr_matvecs, medium_csr):
        operator = row_normalize(medium_csr).T.tocsr()
        s = np.zeros((83, 3))
        s[[0, 40, 82], [0, 1, 2]] = 1.0
        x = power_iteration_batch(operator, s, 0.25, method="power")
        residual = 0.25 * s + 0.75 * (operator.toarray() @ x) - x
        assert np.abs(residual).sum(axis=0).max() < 1e-10
