"""F-side of 2SBound: BCA expansion with Prop. 4 bounds and Stage-II refinement.

Stage I (Sect. V-A3, Realization of F-Rank):

- expansion picks up to ``m`` nodes with the largest benefit
  ``mu(v)/|Out(v)|`` and BCA-processes them; the f-neighborhood ``Sf`` is
  the set of nodes with non-zero estimated PPR;
- bounds are initialized from the BCA state via Proposition 4:

  .. math::

      \\hat f^{(0)}(q) &= \\tfrac{\\alpha}{2-\\alpha} \\max_u \\mu(q,u)
          + \\tfrac{1-\\alpha}{2-\\alpha} \\sum_u \\mu(q,u) \\\\
      \\check f^{(0)}(q,v) &= \\rho(q,v) \\qquad
      \\hat f^{(0)}(q,v) = \\rho(q,v) + \\hat f^{(0)}(q)

Stage II refines the per-node bounds to a fixed point of the monotone
Eq. 17–18 updates over the in-neighbor structure of ``Sf``.

Two *weaker schemes* reproduce the paper's efficiency baselines
(Fig. 11a): ``bound_style="gupta"`` drops the ``1/(2-alpha)``
repeated-return discount (Gupta et al. account only for residual arriving
for the first time), and ``refine="off"`` skips Stage II entirely — the
"Gupta" and "G+S" configurations.

Self-loop caveat: the ``1/(2-alpha)`` discount assumes a return trip takes
at least two steps.  On graphs whose transition matrix has self-loops
(e.g. the dangling-node convention) the discount is disabled automatically,
keeping the bound sound.

Submatrix staleness: a build reads the in-lists of ``Sf`` in one bulk call
(:meth:`GraphAccess.in_rows`) and assembles the raw CSR arrays from the
kept entries with array operations; each Stage-II sweep multiplies them
with :func:`repro.ops.kernels.matvec_accumulate` into preallocated buffers.
On the 40-paper 2SBound pool of BibNet-2200 (k=10, epsilon=0.005, a 2-CPU
host), wall-clock timers per phase split query time as: Stage-II sweeps
38% (t-side 24%, f-side 14%), f-side BCA expansion 25%, the builds of both
sides 20%, t-side expansion 9%, and combining, sorting and the stopping
conditions 7%.  The matrix is still rebuilt only when ``Sf`` has grown by
``rebuild_growth``: on that pool this skips 10 f-side and 27 t-side builds
in 201 rounds, and rebuilding on every growth would also change the bounds
refinement reaches and hence the work (197 rounds instead of 201) — a
change of algorithm, not of speed.
Refinement with a stale structure stays sound because the external-mass
term multiplies a *cap* covering every node that was unseen at build time:
such a node is either still unseen (bounded by the current unseen bound) or
was seen after the build (bounded by its own current upper bound); the cap
is the max of the two.  Nodes seen after the build keep their Stage-I
bounds until the next rebuild — looser, never wrong.
"""

from __future__ import annotations

import numpy as np

from repro.ops.kernels import matvec_accumulate
from repro.topk.bca import BCAState
from repro.topk.graphaccess import GraphAccess

REFINE_TOL = 1e-12
MAX_REFINE_ITERS = 200


def submatrix(
    row_ids: np.ndarray, pos: np.ndarray, probs: np.ndarray, size: int
) -> "tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]":
    """Stage-II matrix from gathered adjacency entries, and the entries left out.

    Entry ``j`` holds ``probs[j]`` for row ``row_ids[j]`` (nondecreasing) and
    column ``pos[j]``; entries with ``pos < 0`` lie outside the matrix and
    are returned as a mask for the caller's external-mass sums.  The matrix
    is the raw CSR triple ``(indptr, indices, data)`` that
    :func:`repro.ops.kernels.matvec_accumulate` multiplies.
    """
    kept = pos >= 0
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_ids[kept], minlength=size), out=indptr[1:])
    return (indptr, pos[kept], probs[kept]), ~kept


class FBoundSide:
    """Bounded F-Rank neighborhood state for one query."""

    def __init__(
        self,
        access: GraphAccess,
        query: int,
        alpha: float,
        m: int = 100,
        bound_style: str = "prop4",
        refine: str = "fixpoint",
        heavy_degree: "int | None" = 256,
    ) -> None:
        if bound_style not in ("prop4", "gupta"):
            raise ValueError(f"unknown bound_style {bound_style!r}")
        if refine not in ("fixpoint", "single", "off"):
            raise ValueError(f"unknown refine mode {refine!r}")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if heavy_degree is not None and heavy_degree < 1:
            raise ValueError(f"heavy_degree must be >= 1 or None, got {heavy_degree}")
        self.access = access
        self.query = query
        self.alpha = alpha
        self.m = m
        self.bound_style = bound_style
        self.refine_mode = refine
        #: rows whose in-list exceeds this length are not refined (their
        #: Stage-I Prop. 4 bounds are kept), avoiding hub-adjacency fetches.
        self.heavy_degree = heavy_degree

        self.bca = BCAState(access, query, alpha)
        n = access.n_nodes
        self.seen = np.zeros(n, dtype=bool)
        self.seen_list: list[int] = []
        self.lower = np.zeros(n)
        self.upper = np.ones(n)
        self._index = np.full(n, -1, dtype=np.int64)  # node -> position in seen_list
        self._sub: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None
        self._ext: "np.ndarray | None" = None
        self._frozen: "np.ndarray | None" = None  # rows kept at Stage-I bounds
        self._built_size = 0  # |Sf| at the last submatrix build
        #: rebuild when Sf grew by this factor since the last build.
        self.rebuild_growth = 1.1

    # ------------------------------------------------------------------ #

    @property
    def unseen_upper(self) -> float:
        """The current unseen upper bound (Eq. 19, or Gupta's version)."""
        mu_max = self.bca.max_residual
        mu_total = max(self.bca.total_residual, 0.0)
        raw = self.alpha * mu_max + (1.0 - self.alpha) * mu_total
        if self.bound_style == "prop4" and not self.access.has_self_loops:
            return raw / (2.0 - self.alpha)
        return raw

    @property
    def exhausted(self) -> bool:
        """No processable residual remains; bounds have converged to F-Rank."""
        return self.bca.exhausted

    def expand(self) -> list[int]:
        """Stage I: expand ``Sf`` by up to ``m`` best-benefit nodes.

        Returns the nodes processed in this expansion.  After processing,
        bounds are (re-)initialized from Prop. 4 — only ever tightening.
        """
        processed = self.bca.expand(self.m)
        for node in processed:
            if not self.seen[node]:
                self.seen[node] = True
                self._index[node] = len(self.seen_list)
                self.seen_list.append(node)
        self._initialize_bounds()
        return processed

    def _initialize_bounds(self) -> None:
        """Apply Prop. 4 to every seen node, keeping bounds monotone."""
        if not self.seen_list:
            return
        nodes = np.asarray(self.seen_list)
        unseen_up = self.unseen_upper
        self.lower[nodes] = np.maximum(self.lower[nodes], self.bca.rho[nodes])
        self.upper[nodes] = np.minimum(self.upper[nodes], self.bca.rho[nodes] + unseen_up)

    # ------------------------------------------------------------------ #

    def _build_submatrix(self, include_heavy: bool = False) -> None:
        """In-neighbor structure of ``Sf``: ``A[i, j] = M[seen_j, seen_i]``.

        ``ext[i]`` collects the total in-probability arriving from nodes
        unseen *at build time*; the refinement multiplies it by a cap that
        stays valid as the neighborhood grows (see the module docstring).
        ``include_heavy=True`` (the finalize path) also fetches hub in-lists
        so every row participates.
        """
        seen_arr = np.asarray(self.seen_list, dtype=np.int64)
        size = seen_arr.size
        in_lengths = self.access.in_degrees(seen_arr)
        if include_heavy or self.heavy_degree is None:
            frozen = np.zeros(size, dtype=bool)
        else:
            # Heavy rows (hub in-lists) keep their Stage-I bounds; their
            # values still feed other rows as columns, which is sound.
            frozen = in_lengths > self.heavy_degree
        rows = np.flatnonzero(~frozen)
        self.access.prefetch(seen_arr[rows], out=False, incoming=True)
        counts, neighbors, probs = self.access.in_rows(seen_arr[rows])
        row_ids = np.repeat(rows, counts)
        self._sub, outside = submatrix(row_ids, self._index[neighbors], probs, size)
        self._ext = np.bincount(row_ids[outside], weights=probs[outside], minlength=size)
        self._frozen = frozen
        self._built_size = size

    def _maybe_rebuild(self) -> None:
        size = len(self.seen_list)
        if self._sub is None or size > self._built_size * self.rebuild_growth:
            self._build_submatrix()

    def finalize(self) -> None:
        """Terminal cleanup when the side is exhausted.

        Rebuilds the submatrix so every seen node participates and runs the
        refinement to its fixed point, guaranteeing the bounds are exact (up
        to the drained-residual tolerance) on the exhaustion path regardless
        of the scheme's per-round refine mode.
        """
        if not self.seen_list:
            return
        self._build_submatrix(include_heavy=True)
        if self.refine_mode != "off":
            self.refine(force_fixpoint=True)

    def refine(self, force_fixpoint: bool = False) -> int:
        """Stage II: iterate Eq. 17–18 over ``Sf`` until the fixed point.

        Returns the number of refinement iterations run (0 when refinement
        is disabled — the Gupta/G+S schemes).
        """
        if self.refine_mode == "off" or not self.seen_list:
            return 0
        self._maybe_rebuild()
        assert self._sub is not None and self._ext is not None
        size = self._built_size
        nodes = np.asarray(self.seen_list[:size])
        low = self.lower[nodes]
        up = self.upper[nodes]
        q_pos = self._index[self.query]
        has_query = 0 <= q_pos < size
        damp = 1.0 - self.alpha
        # The ext term models mass from every node unseen at build time;
        # such a node is now either still unseen (<= current unseen bound)
        # or seen post-build (<= its current upper bound).
        post = np.asarray(self.seen_list[size:], dtype=np.int64)
        post_max = float(self.upper[post].max()) if post.size else 0.0
        ext_up = self._ext * max(self.unseen_upper, post_max)
        max_iters = (
            1 if (self.refine_mode == "single" and not force_fixpoint) else MAX_REFINE_ITERS
        )
        frozen = self._frozen
        assert frozen is not None
        any_frozen = bool(frozen.any())
        indptr, indices, data = self._sub
        new_low, new_up, diff = np.empty(size), np.empty(size), np.empty(size)
        iters = 0
        for _ in range(max_iters):
            # Eq. 17-18: max(low, alpha[q] + damp * (A @ low)) and
            # min(up, alpha[q] + damp * (A @ up + ext * cap)), where alpha[q]
            # is alpha at the query's row and zero elsewhere.  The bounds'
            # bits depend on this order of operations.
            new_low.fill(0.0)
            matvec_accumulate(indptr, indices, data, low, new_low)
            new_low *= damp
            new_up.fill(0.0)
            matvec_accumulate(indptr, indices, data, up, new_up)
            new_up += ext_up
            new_up *= damp
            if has_query:
                new_low[q_pos] += self.alpha
                new_up[q_pos] += self.alpha
            np.maximum(low, new_low, out=new_low)
            np.minimum(up, new_up, out=new_up)
            if any_frozen:
                # Heavy rows have no structure in the matrix; their Eq. 17-18
                # updates would be based on an empty in-list and must not
                # apply.  Stage-I keeps tightening them between refines.
                new_low[frozen] = low[frozen]
                new_up[frozen] = up[frozen]
            # Both differences are >= 0 by the max/min above.
            delta = max(
                float(np.subtract(new_low, low, out=diff).max()),
                float(np.subtract(up, new_up, out=diff).max()),
            )
            low, new_low = new_low, low
            up, new_up = new_up, up
            iters += 1
            if delta < REFINE_TOL:
                break
        self.lower[nodes] = np.maximum(self.lower[nodes], low)
        self.upper[nodes] = np.minimum(self.upper[nodes], up)
        return iters

    # ------------------------------------------------------------------ #

    def seen_nodes(self) -> np.ndarray:
        """The f-neighborhood ``Sf`` as an array of node ids."""
        return np.asarray(self.seen_list, dtype=np.int64)
