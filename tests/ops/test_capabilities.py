"""Capability probing: the fast paths must be *visibly* active in CI.

The kernels' accumulate forms depend on the private
``scipy.sparse._sparsetools.csr_matvecs`` and ``csr_matvec`` entry points.
The imports are feature-detected (an upstream rename degrades silently to
the pure-``@`` fallback in production), so this module pins the expectation
in CI: if a scipy upgrade drops a symbol, these tests fail loudly and the
dependency gets fixed deliberately instead of rotting silently.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ops import kernels as k
from repro.topk import twosbound_topk
from tests.topk.test_golden import EPSILON, GOLDEN, K


class TestCsrMatvecsCapability:
    def test_fast_path_is_active_on_this_scipy(self):
        # Deliberate hard assert, not a skip: CI runs a scipy version where
        # the private entry point exists, and we want its disappearance to
        # be a red build, not a silent perf regression.
        assert k.HAS_CSR_MATVECS, (
            "scipy.sparse._sparsetools.csr_matvecs vanished from this scipy "
            f"({sp.__name__} {__import__('scipy').__version__}); the scipy "
            "kernel fell back to the allocating path — port the accumulate "
            "call before shipping"
        )

    def test_accumulate_form_matches_scipy_product(self):
        rng = np.random.default_rng(3)
        matrix = sp.random(40, 40, density=0.2, random_state=5, format="csr")
        x = rng.random((40, 7))
        out = np.zeros((40, 7))
        k._spmm_accumulate(matrix, x, out)
        assert np.array_equal(out, matrix @ x)


def _csr_arrays(size, seed):
    """A random CSR matrix and its raw ``(indptr, indices, data)`` arrays."""
    matrix = sp.random(size, size, density=0.05, random_state=seed, format="csr")
    indptr, indices = matrix.indptr.astype(np.int64), matrix.indices.astype(np.int64)
    return matrix, (indptr, indices, matrix.data)


class TestCsrMatvecCapability:
    def test_fast_path_is_active_on_this_scipy(self):
        # Hard assert for the same reason as csr_matvecs: without it every
        # 2SBound Stage-II sweep pays scipy's allocating product.
        assert k.HAS_CSR_MATVEC, (
            "scipy.sparse._sparsetools.csr_matvec vanished from this scipy "
            f"({__import__('scipy').__version__}); 2SBound fell back to the "
            "allocating product — port the accumulate call before shipping"
        )

    @pytest.mark.parametrize("fallback", [False, True])
    @pytest.mark.parametrize("size", [1, 37, 300])
    def test_matches_scipy_product_bit_for_bit(self, size, fallback, monkeypatch):
        if fallback:
            monkeypatch.setattr(k, "_csr_matvec", None)
        matrix, arrays = _csr_arrays(size, seed=size)
        x = np.random.default_rng(size).random(size)
        out = np.zeros(size)
        k.matvec_accumulate(*arrays, x, out)
        assert np.array_equal(out, matrix @ x)

    def test_accumulates_onto_out(self):
        # Small integers keep every sum exact, whatever the summation order.
        _, (indptr, indices, _) = _csr_arrays(60, seed=8)
        rng = np.random.default_rng(8)
        data = rng.integers(1, 10, size=indices.size).astype(np.float64)
        x = rng.integers(0, 10, size=60).astype(np.float64)
        start = rng.integers(0, 10, size=60).astype(np.float64)
        out = start.copy()
        k.matvec_accumulate(indptr, indices, data, x, out)
        expected = start + sp.csr_matrix((data, indices, indptr), shape=(60, 60)) @ x
        assert np.array_equal(out, expected)

    def test_twosbound_bits_survive_the_fallback(self, small_bibnet, monkeypatch):
        g = small_bibnet.graph
        queries = [q for q, *_ in GOLDEN["2sbound"]]

        def run_all():
            results = []
            for q in queries:
                r = twosbound_topk(g, q, K, epsilon=EPSILON)
                bounds = (r.lower.tobytes(), r.upper.tobytes())
                results.append((r.nodes, r.rounds, r.seen_f, r.seen_t, r.seen_r, bounds))
            return results

        fast = run_all()
        monkeypatch.setattr(k, "_csr_matvec", None)
        assert run_all() == fast
