"""Capability probing: the fast paths must be *visibly* active in CI.

The kernels' accumulate forms depend on the private
``scipy.sparse._sparsetools.csr_matvecs`` and ``csr_matvec`` entry points.
The imports are feature-detected (an upstream rename degrades silently to
a slower route in production, down to the pure-``@`` fallback), so this
module pins the expectation in CI: if a scipy upgrade drops a symbol,
these tests fail loudly and the dependency gets fixed deliberately instead
of rotting silently.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.engine import frank_batch, trank_batch
from repro.ops import TransitionOperator
from repro.ops import kernels as k
from repro.topk import local_topk, twosbound_topk
from tests.topk.test_golden import EPSILON, GOLDEN, K
from tests.topk_local import test_local_golden as local_golden


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


def _one_column_case(dtype, index_dtype):
    """A sorted 300 x 300 CSR in ``dtype`` with ``index_dtype`` indices, an
    operand column and a start block for ``out``."""
    matrix = sp.random(300, 300, density=0.05, random_state=4, format="csr", dtype=dtype)
    matrix.sort_indices()
    # Attribute assignment: scipy's constructor and astype narrow int64
    # indices that fit in int32.
    matrix.indptr = matrix.indptr.astype(index_dtype)
    matrix.indices = matrix.indices.astype(index_dtype)
    rng = np.random.default_rng(4)
    x = rng.random((300, 1)).astype(dtype)
    start = rng.random((300, 1)).astype(dtype)
    return matrix, x, start


class TestCsrMatvecCapability:
    """``csr_matvec`` serves 2SBound's Stage-II sweeps, the local top-k
    sweeps, and every one-column ``TransitionOperator.matmat``: the engine
    sweeps of a single-query solve (a gateway miss, a local top-k
    escalation)."""

    def test_fast_path_is_active_on_this_scipy(self):
        # Hard assert for the same reason as csr_matvecs: without it every
        # 2SBound Stage-II sweep and every one-column solve sweep pays a
        # slower product.
        assert k.HAS_CSR_MATVEC, (
            "scipy.sparse._sparsetools.csr_matvec vanished from this scipy "
            f"({__import__('scipy').__version__}); 2SBound and one-column "
            "solves fell back to slower products — port the accumulate call "
            "before shipping"
        )

    @pytest.mark.parametrize(
        "kept",
        [("_csr_matvec", "_csr_matvecs"), ("_csr_matvec",), ("_csr_matvecs",), ()],
        ids=["both", "csr_matvec", "csr_matvecs", "neither"],
    )
    @pytest.mark.parametrize("accumulate", [False, True])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_column_matmat_bits_on_every_route(
        self, dtype, index_dtype, accumulate, kept, monkeypatch
    ):
        matrix, x, start = _one_column_case(dtype, index_dtype)
        if not accumulate:
            expected = matrix @ x
        elif kept:
            # Either entry point adds each term onto the preloaded out.
            expected = start.copy()
            k._spmm_accumulate(matrix, x, expected)
        else:
            expected = start + matrix @ x
        for name in {"_csr_matvec", "_csr_matvecs"} - set(kept):
            monkeypatch.setattr(k, name, None)
        top = TransitionOperator.from_csr(matrix)
        assert top.matrix(dtype).indices.dtype == index_dtype
        out = start.copy() if accumulate else np.full_like(start, np.nan)
        assert top.matmat(x, out=out, accumulate=accumulate) is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("method", ["auto", "power"])
    @pytest.mark.parametrize("solve", [frank_batch, trank_batch])
    @pytest.mark.parametrize("width", [1, 2])
    def test_only_wider_blocks_reach_csr_matvecs(
        self, small_bibnet, monkeypatch, width, solve, method
    ):
        calls = {"csr_matvec": 0, "csr_matvecs": []}
        real_matvec, real_matvecs = k._csr_matvec, k._csr_matvecs

        def spy_matvec(*args):
            calls["csr_matvec"] += 1
            real_matvec(*args)

        def spy_matvecs(n_row, n_col, n_vecs, *arrays):
            calls["csr_matvecs"].append(n_vecs)
            real_matvecs(n_row, n_col, n_vecs, *arrays)

        monkeypatch.setattr(k, "_csr_matvec", spy_matvec)
        monkeypatch.setattr(k, "_csr_matvecs", spy_matvecs)
        nodes = small_bibnet.paper_nodes[:width].tolist()
        solve(small_bibnet.graph, nodes, method=method)
        assert 1 not in calls["csr_matvecs"]
        if width == 1:
            assert calls["csr_matvec"] > 0 and not calls["csr_matvecs"]
        else:
            assert calls["csr_matvecs"]

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

    def test_one_column_solve_bits_survive_the_fallback(self, small_bibnet, monkeypatch):
        g = small_bibnet.graph
        nodes = small_bibnet.paper_nodes[::60].tolist()
        escalating = next(q for q, _, _, escalated, *_ in local_golden.GOLDEN if escalated)

        def run_all():
            results = [
                solve(g, [v], method=method).tobytes()
                for v in nodes
                for solve in (frank_batch, trank_batch)
                for method in ("auto", "power")
            ]
            r = local_topk(g, escalating, local_golden.K, local_golden.ALPHA)
            assert r.escalated
            results.append((r.indices.tobytes(), r.scores.tobytes()))
            return results

        fast = run_all()
        monkeypatch.setattr(k, "_csr_matvec", None)
        assert run_all() == fast
