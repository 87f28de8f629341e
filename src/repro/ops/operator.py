"""The one operator abstraction every solver multiplies through.

:class:`TransitionOperator` owns one *oriented* prepared CSR (``P`` or
``P^T``) plus everything derived from it — per-dtype variants and
damp-scaled copies for the Chebyshev phases — and runs ``matmat`` through
the kernel in :mod:`repro.ops.kernels`.  Use :func:`get_operator` for
graph-backed operators (cached per ``(graph, orientation)`` with weak
references) and the :class:`TransitionOperator` constructor for detached
ones (ad-hoc matrices).

Guarantees
----------
- ``matvec`` is the canonical scipy product on the base matrix, so
  single-vector paths are bit-stable.
- ``matmat`` gives each column the same bits at any block width: a
  one-column block (a single query's solve sweep) runs scipy's
  single-vector ``csr_matvec`` and a wider one ``csr_matvecs``, and both
  add a row's terms in stored order (see :mod:`repro.ops.kernels`).
- ``out=`` never aliases an input: ``matmat`` rejects overlapping ``out``
  and ``x`` buffers outright.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.ops import kernels as _kernels

_OBS_MATMAT = obs.counter(
    "repro_kernel_matmat_total", "Kernel matmat calls by kernel.", labels=("kernel",)
)

#: dtypes a TransitionOperator serves; anything else is upcast to float64.
_SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

#: Most damp-scaled operator copies kept per operator.  alpha is a public
#: per-call knob, so an unbounded cache would accrete one full values copy
#: per distinct alpha for the life of the graph; in practice a deployment
#: uses one or two alphas, so a small LRU keeps the steady state hit.
_DAMPED_CACHE_MAX = 4


def _as_csr(matrix) -> sp.csr_matrix:
    if sp.issparse(matrix):
        csr = matrix.tocsr()
    else:
        csr = sp.csr_matrix(matrix)
    if not csr.has_sorted_indices:
        # Sorted indices are load-bearing: every product must add each row's
        # contributions in ascending column order, whichever CSR the caller
        # built, so equal operators give equal bits.
        csr = csr.copy()
        csr.sort_indices()
    return csr


class TransitionOperator:
    """A prepared view of one oriented CSR operator.

    Construct via :func:`get_operator` (graph-backed, cached) or directly
    from any scipy sparse matrix (detached).  Instances are immutable in
    value; all mutation is memoization of derived state (dtype variants,
    damped copies) guarded by a lock, so an operator can be shared across
    threads (the serving layer and the batch engine's column blocks do).
    """

    def __init__(self, matrix: sp.csr_matrix, *, transpose: "bool | None" = None) -> None:
        base = _as_csr(matrix)
        if base.shape[0] != base.shape[1]:
            raise ValueError(f"transition operators are square, got shape {base.shape}")
        self._transpose = transpose
        self._variants: "dict[np.dtype, sp.csr_matrix]" = {base.dtype: base}
        self._base_dtype = base.dtype
        self._damped: "OrderedDict[tuple, TransitionOperator]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Shape and variants
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> "tuple[int, int]":
        return self._variants[self._base_dtype].shape

    @property
    def n_nodes(self) -> int:
        return self.shape[0]

    @property
    def transpose(self) -> "bool | None":
        """Orientation relative to the graph's ``P`` (``None`` if detached)."""
        return self._transpose

    @property
    def nnz(self) -> int:
        return self._variants[self._base_dtype].nnz

    def matrix(self, dtype=np.float64) -> sp.csr_matrix:
        """The prepared CSR in ``dtype`` (derived once, then cached).

        The returned matrix is shared state — callers must not mutate it.
        """
        dtype = np.dtype(dtype)
        if dtype not in _SUPPORTED_DTYPES:
            raise ValueError(f"unsupported operator dtype {dtype}")
        found = self._variants.get(dtype)
        if found is not None:
            return found
        with self._lock:
            found = self._variants.get(dtype)
            if found is None:
                found = self._variants[self._base_dtype].astype(dtype)
                self._variants[dtype] = found
        return found

    def csr_parts(self, dtype=np.float64) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Raw ``(indptr, indices, data)`` of the prepared CSR in ``dtype``.

        The local top-k sweeps (:mod:`repro.topk.local`) hand these arrays
        straight to :func:`repro.ops.kernels.matvec_accumulate` instead of
        paying scipy's per-call dispatch.  The arrays are the operator's own
        shared state — callers must treat them as read-only.
        """
        m = self.matrix(dtype)
        return m.indptr, m.indices, m.data

    def damped(self, damp: float, dtype=np.float32) -> "TransitionOperator":
        """The operator with its data scaled by ``damp``, cached per (damp, dtype).

        The Chebyshev phases of :func:`repro.engine.batch.power_iteration_batch`
        sweep with ``damp * O`` folded into the matrix; caching the scaled
        copy here (structure shared, data scaled once) removes the per-solve
        ``operator * damp`` allocation the old code paid.  The cache is a
        small LRU (see ``_DAMPED_CACHE_MAX``): alpha is a per-call knob, so
        a sweep over many alphas must not accrete one values copy each for
        the life of the graph.
        """
        dtype = np.dtype(dtype)
        key = (float(damp), dtype.name)
        with self._lock:
            found = self._damped.get(key)
            if found is not None:
                self._damped.move_to_end(key)
                return found
        m = self.matrix(dtype)  # outside the lock: matrix() takes it too
        with self._lock:
            found = self._damped.get(key)
            if found is None:
                scaled = sp.csr_matrix(
                    (m.data * dtype.type(damp), m.indices, m.indptr),
                    shape=m.shape,
                    copy=False,
                )
                scaled.has_sorted_indices = True
                found = TransitionOperator(scaled, transpose=self._transpose)
                self._damped[key] = found
                while len(self._damped) > _DAMPED_CACHE_MAX:
                    self._damped.popitem(last=False)
            else:
                self._damped.move_to_end(key)
        return found

    # ------------------------------------------------------------------ #
    # Products
    # ------------------------------------------------------------------ #

    def _dtype_for(self, array: np.ndarray) -> np.dtype:
        dtype = array.dtype
        return dtype if dtype in _SUPPORTED_DTYPES else np.dtype(np.float64)

    def matmat(
        self,
        x: np.ndarray,
        out: "np.ndarray | None" = None,
        accumulate: bool = False,
    ) -> np.ndarray:
        """``operator @ x`` for a dense ``n x q`` block.

        - ``out=None`` allocates the result; otherwise the product is written
          into ``out`` (must be C-contiguous, matching shape/dtype, and must
          not alias ``x`` or the operator's own data — aliasing raises).
        - ``accumulate=True`` computes ``out += operator @ x`` (requires
          ``out``) with no temporary, the form the solver sweeps rely on.

        The computation runs in ``x``'s dtype (float32 or float64; anything
        else is upcast to float64) against the matching prepared variant.
        """
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"matmat expects a 2-D block, got shape {x.shape}")
        dtype = self._dtype_for(x)
        if x.dtype != dtype:
            x = x.astype(dtype)
        matrix = self.matrix(dtype)
        if x.shape[0] != matrix.shape[1]:
            raise ValueError(
                f"operand rows {x.shape[0]} != operator columns {matrix.shape[1]}"
            )
        if not x.flags.c_contiguous:
            x = np.ascontiguousarray(x)
        if out is None:
            if accumulate:
                raise ValueError("accumulate=True requires an explicit out= buffer")
            out = np.empty((matrix.shape[0], x.shape[1]), dtype=dtype)
        else:
            if out.shape != (matrix.shape[0], x.shape[1]):
                raise ValueError(
                    f"out has shape {out.shape}, expected {(matrix.shape[0], x.shape[1])}"
                )
            if out.dtype != dtype:
                raise ValueError(f"out has dtype {out.dtype}, expected {dtype}")
            if not out.flags.c_contiguous or not out.flags.writeable:
                raise ValueError("out must be a writable C-contiguous buffer")
            if np.may_share_memory(out, x) or np.may_share_memory(out, matrix.data):
                raise ValueError("out must not alias the operand or the operator")
        _OBS_MATMAT.inc(kernel=_kernels.KERNEL_NAME)
        _kernels.matmat(matrix, x, out, accumulate)
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``operator @ v`` for one dense vector.

        The canonical scipy product on the operator's base matrix, with
        scipy's usual dtype upcast: a float32 operand upcasts to the base
        precision instead of silently degrading the whole solve.
        """
        return self._variants[self._base_dtype] @ np.asarray(v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """``v @ operator`` (a row-vector step)."""
        return np.asarray(np.asarray(v) @ self._variants[self._base_dtype]).ravel()


# --------------------------------------------------------------------------- #
# Graph-backed caching
# --------------------------------------------------------------------------- #

#: Per-graph cache of the two oriented operators; weak keys let graphs die
#: (and their prepared variants with them).
_GRAPH_OPERATORS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_graph_lock = threading.Lock()


def get_operator(graph, transpose: bool = False) -> TransitionOperator:
    """The cached :class:`TransitionOperator` of ``graph``'s ``P`` (or ``P^T``).

    ``transpose=True`` is the F-Rank orientation (``P^T``), ``transpose=False``
    the T-Rank / walk orientation (``P``).  Both orientations of one graph
    share a cache entry; repeated calls are dictionary lookups.
    """
    key = bool(transpose)
    with _graph_lock:
        per_graph = _GRAPH_OPERATORS.get(graph)
        if per_graph is None:
            per_graph = {}
            _GRAPH_OPERATORS[graph] = per_graph
        found = per_graph.get(key)
        if found is not None:
            return found
    # Build outside the lock: the transpose is O(n_edges) and unrelated
    # graphs should not serialize their cold starts.
    base = graph.transition.T.tocsr() if transpose else graph.transition
    candidate = TransitionOperator(base, transpose=key)
    with _graph_lock:
        found = per_graph.get(key)
        if found is None:
            per_graph[key] = candidate
            found = candidate
    return found


def as_operator(operator) -> TransitionOperator:
    """Coerce ``operator`` into a :class:`TransitionOperator`.

    Passes existing operators through unchanged; wraps scipy sparse
    matrices detached (no graph cache).
    """
    if isinstance(operator, TransitionOperator):
        return operator
    if sp.issparse(operator):
        return TransitionOperator(operator)
    raise TypeError(
        f"expected a TransitionOperator or scipy sparse matrix, got {type(operator)!r}"
    )
