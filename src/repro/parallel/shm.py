"""Zero-copy CSR publication over POSIX shared memory.

The process-pool solver (:mod:`repro.parallel.pool`) must not pickle the
graph into every task: the CSR transition operator is by far the largest
object in a solve, and serializing it per shard would erase the point of
sharding.  Instead the parent publishes the three CSR arrays (``indptr``,
``indices``, ``data``) — plus, optionally, a fourth ``data32`` segment
holding the float32 values, so the accelerated solve path's low-precision
operator is shared too instead of re-derived per worker — *once* into
:mod:`multiprocessing.shared_memory` segments and ships workers only a
:class:`CSRHandle` — a small picklable record of segment names, dtypes and
shapes.  Workers attach to the segments and wrap them in a
:class:`scipy.sparse.csr_matrix` (or, via :func:`attach_operator`, a full
:class:`repro.ops.TransitionOperator`) without copying, so every worker
solves against the same physical operator bytes.

Lifetime rules
--------------
- The *publisher* (parent process) owns the segments: it creates them and
  must eventually call :meth:`SharedCSR.destroy` (close + unlink).
  :mod:`repro.parallel.pool` does this through per-graph finalizers and its
  module-level :func:`repro.parallel.pool.shutdown`.
- *Attachers* (workers) only :func:`attach_csr`; they never unlink.  The
  attached arrays are marked read-only so a worker bug cannot corrupt the
  operator under every other worker's feet.
- ``destroy`` is idempotent and tolerates an already-unlinked segment, so
  explicit shutdown, graph garbage collection, and interpreter-exit
  finalizers can race without errors.

Segment names embed the parent PID plus a process-local counter and stay
well under the 31-character POSIX limit.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np
import scipy.sparse as sp

from repro.utils.publish import publish_guard

_counter = itertools.count()
_name_lock = threading.Lock()

#: prefix of every segment this process creates (tests scan /dev/shm for it).
SEGMENT_PREFIX = f"rtr{os.getpid()}"


def _next_name() -> str:
    with _name_lock:
        return f"{SEGMENT_PREFIX}x{next(_counter)}"


@dataclass(frozen=True)
class ArraySpec:
    """Picklable description of one shared ndarray."""

    name: str
    dtype: str
    shape: "tuple[int, ...]"


@dataclass(frozen=True)
class CSRHandle:
    """Picklable description of a published CSR matrix.

    Hashable (all fields are immutable), so workers key their attachment
    cache directly on the handle.

    ``data32`` (optional) names a fourth segment holding the float32 copy of
    ``data``: the float32 operator variant shares ``indptr``/``indices``
    with the float64 one, so publishing just the scaled-down values array
    lets every worker attach the low-precision operator zero-copy instead of
    deriving a private ``astype(float32)`` copy per process.
    """

    shape: "tuple[int, int]"
    indptr: ArraySpec
    indices: ArraySpec
    data: ArraySpec
    data32: "ArraySpec | None" = None

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all segments."""
        specs = [self.indptr, self.indices, self.data]
        if self.data32 is not None:
            specs.append(self.data32)
        return sum(
            int(np.dtype(spec.dtype).itemsize) * int(np.prod(spec.shape))
            for spec in specs
        )


def _share_array(array: np.ndarray) -> "tuple[ArraySpec, shared_memory.SharedMemory]":
    array = np.ascontiguousarray(array)
    shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes), name=_next_name())
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
    view[...] = array
    return ArraySpec(name=shm.name, dtype=array.dtype.name, shape=tuple(array.shape)), shm


def _attach_array(spec: ArraySpec) -> "tuple[np.ndarray, shared_memory.SharedMemory]":
    shm = shared_memory.SharedMemory(name=spec.name)
    array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    array.setflags(write=False)
    publish_guard(array, f"shm[{spec.name}]")
    return array, shm


class SharedCSR:
    """A CSR matrix published into shared memory by this process.

    Create with :meth:`publish`; pass :attr:`handle` to workers; call
    :meth:`destroy` when no solve can still need the operator.
    """

    def __init__(self, handle: CSRHandle, segments: "list[shared_memory.SharedMemory]") -> None:
        self.handle = handle
        self._segments = segments
        self._destroyed = False

    @classmethod
    def publish(
        cls, matrix: sp.spmatrix, float32_data: "np.ndarray | None" = None
    ) -> "SharedCSR":
        """Copy ``matrix`` (any scipy sparse format) into shared segments.

        ``float32_data`` optionally publishes a fourth segment with the
        float32 values array (must align with ``matrix.data``); pass the
        ``data`` of an already-derived float32 variant to avoid a second
        ``astype``, or any float32 array of matching length.  Workers then
        reconstruct both precision variants from one publication (see
        :func:`attach_operator`).
        """
        matrix = sp.csr_matrix(matrix)
        if float32_data is not None:
            float32_data = np.asarray(float32_data, dtype=np.float32)
            if float32_data.shape != matrix.data.shape:
                raise ValueError(
                    f"float32_data has shape {float32_data.shape}, "
                    f"expected {matrix.data.shape}"
                )
        specs = []
        segments = []
        arrays = [matrix.indptr, matrix.indices, matrix.data]
        if float32_data is not None:
            arrays.append(float32_data)
        try:
            for array in arrays:
                spec, shm = _share_array(array)
                specs.append(spec)
                segments.append(shm)
        except BaseException:
            for shm in segments:
                shm.close()
                shm.unlink()
            raise
        handle = CSRHandle(
            shape=tuple(matrix.shape),
            indptr=specs[0],
            indices=specs[1],
            data=specs[2],
            data32=specs[3] if float32_data is not None else None,
        )
        return cls(handle, segments)

    def destroy(self) -> None:
        """Close and unlink every segment (idempotent, race-tolerant)."""
        if self._destroyed:
            return
        self._destroyed = True
        for shm in self._segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # already unlinked by a racing finalizer
                pass
        self._segments = []

    def segment_names(self) -> "list[str]":
        """Names of the still-owned segments (empty once destroyed)."""
        return [shm.name for shm in self._segments]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "destroyed" if self._destroyed else "live"
        return f"SharedCSR(shape={self.handle.shape}, {state})"


def attach_csr(handle: CSRHandle) -> "tuple[sp.csr_matrix, list[shared_memory.SharedMemory]]":
    """Attach to a published CSR; zero-copy, arrays read-only.

    Returns ``(matrix, segments)`` — the caller must keep ``segments``
    referenced for as long as the matrix is used (the returned csr's arrays
    are views into the mapped segments) and ``close()`` them when done.
    Workers in :mod:`repro.parallel.pool` cache both per handle.
    """
    arrays = []
    segments = []
    try:
        for spec in (handle.indptr, handle.indices, handle.data):
            array, shm = _attach_array(spec)
            arrays.append(array)
            segments.append(shm)
    except BaseException:
        for shm in segments:
            shm.close()
        raise
    indptr, indices, data = arrays
    matrix = sp.csr_matrix((data, indices, indptr), shape=handle.shape, copy=False)
    return matrix, segments


def attach_operator(handle: CSRHandle):
    """Attach a published operator as a :class:`repro.ops.TransitionOperator`.

    Returns ``(operator, segments)``; same lifetime rules as
    :func:`attach_csr` (keep ``segments`` referenced while the operator is
    in use, ``close()`` them when done — workers cache both per handle).
    When the handle carries a ``data32`` segment, the operator's float32
    variant is built over it — sharing ``indptr``/``indices`` with the
    float64 matrix — so no worker ever derives a private low-precision copy.
    """
    from repro.ops import TransitionOperator

    matrix, segments = attach_csr(handle)
    matrix32 = None
    if handle.data32 is not None:
        try:
            data32, shm32 = _attach_array(handle.data32)
        except BaseException:
            for shm in segments:
                shm.close()
            raise
        segments.append(shm32)
        matrix32 = sp.csr_matrix(
            (data32, matrix.indices, matrix.indptr), shape=handle.shape, copy=False
        )
    operator = TransitionOperator.from_csr(matrix, float32=matrix32)
    return operator, segments


def live_segment_names() -> "list[str]":
    """Names under ``/dev/shm`` created by this process (Linux only).

    Purely diagnostic — the leak-detection tests assert this is empty after
    :func:`repro.parallel.shutdown`.  Returns ``[]`` where ``/dev/shm`` does
    not exist (macOS), so callers can skip rather than fail.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    # Include the counter separator: a bare PID prefix would spuriously
    # match another process whose PID merely extends ours (1234 vs 12345).
    prefix = f"{SEGMENT_PREFIX}x"
    return sorted(name for name in os.listdir(root) if name.startswith(prefix))
