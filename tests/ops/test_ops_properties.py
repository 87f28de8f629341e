"""Property tests for the operator subsystem.

Two invariant families, hypothesis-driven:

- *kernel equivalence*: for arbitrary sparse matrices and operand widths,
  the operator's matmat is bit-identical to the raw scipy product;
- *no aliasing*: buffers returned by the solvers are always freshly owned —
  never views of (or sharing memory with) the teleport inputs, the
  operator's arrays, or an ``out=`` scratch buffer.  This is the regression
  class of the PR 3 ``ColumnCache`` view bug, closed at the operator layer
  by ``matmat``'s explicit aliasing rejection.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ops
from repro.engine import power_iteration_batch
from repro.graph import DiGraph


@st.composite
def csr_and_block(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    q = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.floats(min_value=0.05, max_value=0.9))
    dense = rng.random((n, n))
    dense[dense > density] = 0.0
    matrix = sp.csr_matrix(dense)
    matrix.sort_indices()
    x = rng.standard_normal((n, q))
    return matrix, x


class TestKernelEquivalenceProperties:
    @settings(max_examples=25, deadline=None)
    @given(case=csr_and_block())
    def test_matmat_equals_raw_scipy_product(self, case):
        matrix, x = case
        top = ops.as_operator(matrix)
        assert np.array_equal(top.matmat(x), np.asarray(matrix @ x))


class TestNoAliasingProperties:
    # Random digraphs may exhaust the sweep budget; only aliasing is checked.
    @pytest.mark.filterwarnings("ignore::repro.core.frank.ConvergenceWarning")
    @settings(max_examples=20, deadline=None)
    @given(
        case=csr_and_block(),
        method=st.sampled_from(["power", "auto"]),
    )
    def test_solver_output_owns_its_memory(self, case, method):
        matrix, x = case
        operator = DiGraph(matrix).transition.T.tocsr()
        teleports = np.abs(x) + 1e-3
        teleports /= teleports.sum(axis=0)
        top = ops.as_operator(operator)
        result = power_iteration_batch(top, teleports, 0.3, method=method)
        assert result.flags.owndata or result.base is None
        assert not np.shares_memory(result, teleports)
        for dtype in (np.float64, np.float32):
            assert not np.shares_memory(result, top.matrix(dtype).data)

    @settings(max_examples=20, deadline=None)
    @given(case=csr_and_block())
    def test_matmat_never_returns_a_view_of_the_operand(self, case):
        matrix, x = case
        top = ops.as_operator(matrix)
        result = top.matmat(x)
        assert not np.shares_memory(result, x)
        out = np.empty_like(result)
        returned = top.matmat(x, out=out)
        assert returned is out
        assert not np.shares_memory(out, x)

    @settings(max_examples=15, deadline=None)
    @given(case=csr_and_block())
    def test_aliased_out_is_always_rejected(self, case):
        matrix, x = case
        top = ops.as_operator(matrix)
        with pytest.raises(ValueError, match="alias"):
            top.matmat(x, out=x)
