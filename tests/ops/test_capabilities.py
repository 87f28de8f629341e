"""Capability probing: the fast path must be *visibly* active in CI.

The kernel's accumulate form depends on the private
``scipy.sparse._sparsetools.csr_matvecs`` entry point.  The import
is feature-detected (an upstream rename degrades silently to the pure-``@``
fallback in production), so this module pins the expectation in CI: if a
scipy upgrade drops the symbol, these tests fail loudly and the dependency
gets fixed deliberately instead of rotting silently.
"""

import numpy as np
import scipy.sparse as sp

from repro.ops import kernels as k


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
