"""TransitionOperator semantics: caching, variants, products, guard rails."""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro import ops
from repro.datasets import toy_bibliographic_graph
from repro.ops.operator import TransitionOperator


@pytest.fixture()
def csr_5x5():
    matrix = sp.csr_matrix(
        np.array(
            [
                [0.0, 0.5, 0.5, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.25, 0.25, 0.5, 0.0],
                [0.0, 0.0, 0.0, 0.0, 1.0],
                [0.2, 0.2, 0.2, 0.2, 0.2],
            ]
        )
    )
    matrix.sort_indices()
    return matrix


class TestGraphCaching:
    def test_same_operator_per_graph_and_orientation(self, toy_graph):
        assert ops.get_operator(toy_graph, True) is ops.get_operator(toy_graph, True)
        assert ops.get_operator(toy_graph, False) is ops.get_operator(toy_graph, False)
        assert ops.get_operator(toy_graph, True) is not ops.get_operator(toy_graph, False)

    def test_orientations_are_transposes(self, toy_graph):
        p = ops.get_operator(toy_graph, False).matrix()
        p_t = ops.get_operator(toy_graph, True).matrix()
        assert (p.T.tocsr() != p_t).nnz == 0
        assert ops.get_operator(toy_graph, True).transpose is True

    def test_dtype_variants_are_cached(self, toy_graph):
        top = ops.get_operator(toy_graph, False)
        f32 = top.matrix(np.float32)
        assert f32.dtype == np.float32
        assert top.matrix(np.float32) is f32
        assert top.matrix(np.float64).dtype == np.float64

    def test_unsupported_dtype_rejected(self, toy_graph):
        with pytest.raises(ValueError, match="dtype"):
            ops.get_operator(toy_graph, False).matrix(np.int32)

    def test_damped_cache_is_a_bounded_lru(self, toy_graph):
        from repro.ops.operator import _DAMPED_CACHE_MAX

        top = ops.get_operator(toy_graph, False)
        for i in range(_DAMPED_CACHE_MAX + 3):
            top.damped(0.05 + 0.05 * i, np.float32)
        assert len(top._damped) <= _DAMPED_CACHE_MAX
        # Most-recent entry survived; the oldest was evicted.
        assert (0.05 + 0.05 * (_DAMPED_CACHE_MAX + 2), "float32") in top._damped
        assert (0.05, "float32") not in top._damped

    def test_damped_copies_are_cached_and_scaled(self, toy_graph):
        top = ops.get_operator(toy_graph, False)
        damped = top.damped(0.75, np.float32)
        assert damped is top.damped(0.75, np.float32)
        assert damped is not top.damped(0.5, np.float32)
        expected = top.matrix(np.float32).data * np.float32(0.75)
        assert np.array_equal(damped.matrix(np.float32).data, expected)
        # Structure is shared, not copied.
        assert np.shares_memory(
            damped.matrix(np.float32).indices, top.matrix(np.float32).indices
        )


class TestConstruction:
    def test_as_operator_passthrough_and_wrap(self, csr_5x5):
        top = ops.as_operator(csr_5x5)
        assert isinstance(top, TransitionOperator)
        assert ops.as_operator(top) is top
        with pytest.raises(TypeError):
            ops.as_operator(np.eye(3))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            TransitionOperator(sp.random(3, 4, density=0.5, format="csr"))

    def test_unsorted_input_is_sorted_once(self):
        coo = sp.coo_matrix(
            ([1.0, 2.0, 3.0], ([0, 0, 1], [2, 1, 0])), shape=(3, 3)
        )
        top = TransitionOperator(coo)
        assert sp.isspmatrix_csr(top.matrix())
        assert top.matrix().has_sorted_indices
        assert top.transpose is None


def _all_at_once(n_threads, call):
    """Run ``call()`` on ``n_threads`` threads released together, switching
    threads every microsecond; returns every thread's result."""
    barrier = threading.Barrier(n_threads, timeout=10)
    results = [None] * n_threads

    def run(i):
        barrier.wait()
        results[i] = call()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=run, args=(i,), daemon=True) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    return results


class TestConcurrentDerivation:
    """Column shards on threads share one cold operator: each derived
    variant must be built once and handed to every thread."""

    def test_one_float32_variant_for_every_thread(self):
        top = ops.get_operator(toy_bibliographic_graph(), True)
        variants = _all_at_once(8, lambda: top.matrix(np.float32))
        assert variants[0] is not None
        assert all(v is variants[0] for v in variants)
        assert top.matrix(np.float32) is variants[0]

    def test_one_damped_copy_for_every_thread(self):
        top = ops.get_operator(toy_bibliographic_graph(), True)
        copies = _all_at_once(8, lambda: top.damped(0.75, np.float32))
        assert copies[0] is not None
        assert all(c is copies[0] for c in copies)
        assert len(top._damped) == 1

    def test_one_operator_per_orientation_for_every_thread(self):
        graph = toy_bibliographic_graph()
        found = _all_at_once(8, lambda: ops.get_operator(graph, True))
        assert found[0] is not None
        assert all(top is found[0] for top in found)
        assert ops.get_operator(graph, True) is found[0]
        assert ops.get_operator(graph, False) is not found[0]


class TestProducts:
    def test_matvec_matches_scipy(self, csr_5x5):
        top = ops.as_operator(csr_5x5)
        v = np.arange(5, dtype=np.float64)
        assert np.array_equal(top.matvec(v), csr_5x5 @ v)

    def test_rmatvec_matches_scipy(self, csr_5x5):
        top = ops.as_operator(csr_5x5)
        v = np.arange(5, dtype=np.float64)
        assert np.array_equal(top.rmatvec(v), np.asarray(v @ csr_5x5).ravel())

    def test_matmat_allocates_or_fills_out(self, csr_5x5):
        top = ops.as_operator(csr_5x5)
        x = np.ones((5, 3))
        fresh = top.matmat(x)
        out = np.empty((5, 3))
        returned = top.matmat(x, out=out)
        assert returned is out
        assert np.array_equal(fresh, out)
        assert np.array_equal(fresh, np.asarray(csr_5x5 @ x))

    def test_matmat_accumulate_adds_into_out(self, csr_5x5):
        top = ops.as_operator(csr_5x5)
        x = np.ones((5, 2))
        base = np.full((5, 2), 10.0)
        out = base.copy()
        top.matmat(x, out=out, accumulate=True)
        # The accumulate form adds each product term into the preloaded base
        # (a different — allocation-free — rounding order than base + m@x),
        # so compare to within one ulp rather than bitwise.
        np.testing.assert_allclose(out, base + csr_5x5 @ x, rtol=1e-15)

    def test_matmat_upcasts_unsupported_dtypes(self, csr_5x5):
        top = ops.as_operator(csr_5x5)
        result = top.matmat(np.ones((5, 2), dtype=np.int64))
        assert result.dtype == np.float64

    def test_matmat_validation(self, csr_5x5):
        top = ops.as_operator(csr_5x5)
        x = np.ones((5, 2))
        with pytest.raises(ValueError, match="2-D"):
            top.matmat(np.ones(5))
        with pytest.raises(ValueError, match="rows"):
            top.matmat(np.ones((4, 2)))
        with pytest.raises(ValueError, match="accumulate"):
            top.matmat(x, accumulate=True)
        with pytest.raises(ValueError, match="shape"):
            top.matmat(x, out=np.empty((5, 3)))
        with pytest.raises(ValueError, match="dtype"):
            top.matmat(x, out=np.empty((5, 2), dtype=np.float32))

    def test_matmat_rejects_aliased_out(self, csr_5x5):
        top = ops.as_operator(csr_5x5)
        x = np.ones((5, 2))
        with pytest.raises(ValueError, match="alias"):
            top.matmat(x, out=x)
        flat = np.ones(20)
        with pytest.raises(ValueError, match="alias"):
            # Two C-contiguous views over one buffer, overlapping by 2 floats.
            top.matmat(flat[:10].reshape(5, 2), out=flat[8:18].reshape(5, 2))

    def test_matmat_rejects_readonly_out(self, csr_5x5):
        top = ops.as_operator(csr_5x5)
        out = np.empty((5, 2))
        out.setflags(write=False)
        with pytest.raises(ValueError, match="writable"):
            top.matmat(np.ones((5, 2)), out=out)
