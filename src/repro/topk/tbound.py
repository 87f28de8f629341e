"""T-side of 2SBound: border-node expansion with Eq. 22 and Stage-II refinement.

The t-neighborhood ``St`` starts as ``{q}`` with ``t_lower(q) = alpha`` and
``t_upper(q) = 1``; the unseen upper bound is Eq. 22:

.. math::

    \\hat t(q) = (1 - \\alpha) \\max_{u \\in \\partial(S_t)} \\hat t(q, u)

where a *border node* has at least one in-neighbor outside ``St`` — any walk
from an unseen node to the query must first enter ``St`` through a border
node, paying at least one step's ``(1 - alpha)`` damping.

Stage I expansion picks the ``m`` border nodes with the largest upper bound
and brings all their in-neighbors into ``St``, removing them from the border
and thereby driving the unseen bound down.  Stage II refines per-node bounds
over out-neighbors (Eq. 17–18, T-Rank instantiation) and re-tightens the
unseen bound after every sweep.

The weaker scheme reproducing Sarkar et al. for Fig. 11(a) replaces the
fixed-point Stage II with a single sweep per expansion (``refine="single"``).

Two locality refinements keep the active set small on hub-heavy graphs
(without them, one popular venue or term entering ``St`` would drag its
entire adjacency into the active processor's memory — the paper's reported
active-set sizes imply its implementation avoided exactly that):

1. **Border status without in-lists.**  A node's border status needs only
   its in-degree (cheap metadata) and the count of its in-neighbors already
   in ``St``.  Both counts are n-sized arrays maintained from the out-lists
   of nodes entering ``St``: an expansion adds all its new nodes as one
   batch, whose out-lists update the counts with two ``np.bincount`` calls
   (the same counts as adding the nodes one at a time), and the border is
   ``seen & (unseen_in_count > 0)``.  Full in-neighbor lists are fetched
   only for border nodes actually chosen for expansion.
2. **Heavy nodes.**  Nodes whose out-degree exceeds ``heavy_degree`` enter
   ``St`` *lazily*: their out-lists are not fetched, their bounds stay at
   the Stage-I initialization, and their arcs are absent from the
   incremental counts (which over-counts others' unseen in-neighbors — a
   border *superset*, so Eq. 22 stays a valid upper bound).  Stage II
   excludes their rows and caps the mass flowing to them by the largest
   heavy upper bound.  :meth:`finalize` lifts the laziness so the
   exhaustion path still converges to exact values.
"""

from __future__ import annotations

import numpy as np

from repro.ops.kernels import matvec_accumulate
from repro.topk.fbound import MAX_REFINE_ITERS, REFINE_TOL, submatrix
from repro.topk.graphaccess import GraphAccess
from repro.utils.validation import check_in_range, check_node_id


class TBoundSide:
    """Bounded T-Rank neighborhood state for one query."""

    def __init__(
        self,
        access: GraphAccess,
        query: int,
        alpha: float,
        m: int = 5,
        refine: str = "fixpoint",
        heavy_degree: "int | None" = 256,
    ) -> None:
        if refine not in ("fixpoint", "single", "off"):
            raise ValueError(f"unknown refine mode {refine!r}")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if heavy_degree is not None and heavy_degree < 1:
            raise ValueError(f"heavy_degree must be >= 1 or None, got {heavy_degree}")
        self.access = access
        self.query = check_node_id(query, access.n_nodes, "query")
        self.alpha = check_in_range(
            alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False
        )
        self.m = m
        self.refine_mode = refine
        self.heavy_degree = heavy_degree

        n = access.n_nodes
        self.seen = np.zeros(n, dtype=bool)
        self.seen_list: list[int] = []
        self.lower = np.zeros(n)
        self.upper = np.ones(n)
        #: lazily-included high-degree nodes (see module docstring)
        self._is_heavy = np.zeros(n, dtype=bool)
        #: in-list length per seen node (metadata, fetched at add time)
        self._in_degree = np.zeros(n, dtype=np.int64)
        #: arcs into each node from (light) St members, maintained
        #: incrementally from out-lists as nodes enter St.
        self._seen_in_count = np.zeros(n, dtype=np.int64)
        #: in-neighbors still outside St, per seen node (may over-count for
        #: nodes with heavy in-neighbors — a sound border superset).
        self._unseen_in_count = np.zeros(n, dtype=np.int64)

        self._sub: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None
        self._ext_unseen: "np.ndarray | None" = None
        self._ext_heavy: "np.ndarray | None" = None
        self._matrix_nodes: "np.ndarray | None" = None
        self._matrix_pos = np.full(n, -1, dtype=np.int64)
        self._built_size = 0  # |St| at the last build (for growth trigger)
        #: rebuild when St grew by this factor since the last build.
        self.rebuild_growth = 1.1

        self.unseen_upper = 1.0 - self.alpha
        self._add_nodes(np.asarray([self.query]), lower=self.alpha, upper=1.0)

    # ------------------------------------------------------------------ #

    def _add_nodes(
        self, nodes: np.ndarray, lower: float = 0.0, upper: "float | None" = None
    ) -> None:
        """Bring unseen ``nodes`` into ``St`` in this order, computing their
        border status from metadata and updating the incremental in-counts
        of their out-targets."""
        out_degs = self.access.out_degrees(nodes)
        in_degs = self.access.in_degrees(nodes)
        self.seen[nodes] = True
        self.seen_list.extend(nodes.tolist())
        self.lower[nodes] = lower
        self.upper[nodes] = self.unseen_upper if upper is None else upper
        self._in_degree[nodes] = in_degs
        self._unseen_in_count[nodes] = np.maximum(in_degs - self._seen_in_count[nodes], 0)
        if self.heavy_degree is not None:
            self._is_heavy[nodes[out_degs > self.heavy_degree]] = True
        light = nodes[~self._is_heavy[nodes]]
        if light.size:
            self.access.prefetch(light, out=True, incoming=False)
            self._count_out_arcs(light)

    def _count_out_arcs(self, sources: np.ndarray) -> None:
        """Credit the out-arcs of light ``sources`` (all in ``St``) to the
        in-counts of their targets.

        An arc into a seen node other than its source closes one of that
        node's unseen in-neighbors; arcs into unseen nodes are remembered
        for when those nodes arrive.  Within one batch this equals adding
        the sources one at a time: an arc from a later source counts toward
        an earlier target's closed arcs, from an earlier one toward a later
        target's in-count.
        """
        counts, targets, _ = self.access.out_rows(sources)
        n = self.seen.size
        self._seen_in_count += np.bincount(targets, minlength=n)
        closing = targets[targets != np.repeat(sources, counts)]
        self._unseen_in_count = np.maximum(
            self._unseen_in_count - np.bincount(closing, minlength=n), 0
        )

    @property
    def border(self) -> np.ndarray:
        """The current border nodes ``∂(St)`` (a superset is possible when
        heavy in-neighbors hide arcs — still sound for Eq. 22)."""
        return np.flatnonzero(self.seen & (self._unseen_in_count > 0))

    @property
    def exhausted(self) -> bool:
        """``St`` is closed under in-neighbors: the unseen bound is zero."""
        return not self.border.size

    def _recompute_unseen_upper(self) -> None:
        border = self.border
        if border.size:
            best = float(self.upper[border].max())
            self.unseen_upper = min(self.unseen_upper, (1.0 - self.alpha) * best)
        else:
            self.unseen_upper = 0.0

    def expand(self) -> list[int]:
        """Stage I: absorb the in-neighbors of the ``m`` best border nodes.

        Returns the border nodes whose in-neighborhoods were absorbed.
        New nodes enter with lower bound 0 and the *previous* unseen upper
        bound, as the paper prescribes.  Ties on the upper bound break
        toward the cheapest expansion (fewest in-neighbors), mirroring the
        f-side benefit heuristic.

        Heavy nodes selected by the max-upper rule are *promoted* rather
        than expanded on first selection: promotion fetches only the
        node's out-list — enough for its Eq. 17–18 row — and replays the
        in-count updates its lazy entry skipped.  Refining a heavy node
        whose static bound became the bottleneck is far cheaper than
        absorbing its whole in-neighborhood; once refinable, it is expanded
        only if it remains the bottleneck.
        """
        border = self.border
        if not border.size:
            return []
        order = np.lexsort((border, self._in_degree[border], -self.upper[border]))
        chosen = border[order[: self.m]]
        heavy = self._is_heavy[chosen]
        promoted = chosen[heavy]
        if promoted.size:
            self.access.prefetch(promoted, out=True)
            self._is_heavy[promoted] = False
            self._count_out_arcs(promoted)
            self._sub = None  # structure changed: force a rebuild
            chosen = chosen[~heavy]
            if not chosen.size:
                self._recompute_unseen_upper()
                return promoted.tolist()
        self.access.prefetch(chosen, out=False, incoming=True)
        _, incoming, _ = self.access.in_rows(chosen)
        # New nodes enter in order of first appearance in the in-lists.
        distinct, first = np.unique(incoming, return_index=True)
        new_nodes = incoming[np.sort(first[~self.seen[distinct]])]
        if new_nodes.size:
            self._add_nodes(new_nodes)
        self._unseen_in_count[chosen] = 0
        self._recompute_unseen_upper()
        return promoted.tolist() + chosen.tolist()

    # ------------------------------------------------------------------ #

    def _build_submatrix(self, include_heavy: bool = False) -> None:
        """Out-neighbor structure of the light part of ``St``.

        ``B[i, j] = M[node_i, node_j]`` over *light* seen nodes;
        ``ext_unseen[i]`` collects mass to nodes unseen at build time and
        ``ext_heavy[i]`` mass to heavy seen nodes (whose bounds are static).
        ``include_heavy=True`` (the finalize path) fetches heavy out-lists
        and folds everything into the matrix.
        """
        if include_heavy:
            heavies = np.flatnonzero(self._is_heavy & self.seen)
            if heavies.size:
                self.access.prefetch(heavies, out=True, incoming=False)
            self._is_heavy[:] = False
        seen_arr = np.asarray(self.seen_list, dtype=np.int64)
        matrix_nodes = seen_arr[~self._is_heavy[seen_arr]]
        size = matrix_nodes.size
        self._matrix_pos[:] = -1
        self._matrix_pos[matrix_nodes] = np.arange(size)
        counts, neighbors, probs = self.access.out_rows(matrix_nodes)
        row_ids = np.repeat(np.arange(size), counts)
        self._sub, outside = submatrix(row_ids, self._matrix_pos[neighbors], probs, size)
        heavy = outside & self._is_heavy[neighbors] & self.seen[neighbors]
        unseen = outside & ~heavy
        self._ext_unseen = np.bincount(row_ids[unseen], weights=probs[unseen], minlength=size)
        self._ext_heavy = np.bincount(row_ids[heavy], weights=probs[heavy], minlength=size)
        self._matrix_nodes = matrix_nodes
        self._built_size = len(self.seen_list)

    def _maybe_rebuild(self) -> None:
        if self._sub is None or len(self.seen_list) > self._built_size * self.rebuild_growth:
            self._build_submatrix()

    def finalize(self) -> None:
        """Terminal cleanup when the side is exhausted (see FBoundSide).

        Lifts heavy-node laziness and refines to the fixed point so the
        exhaustion path yields exact bounds regardless of scheme.
        """
        if not self.seen_list:
            return
        self._build_submatrix(include_heavy=True)
        self.refine(force_fixpoint=True)

    def refine(self, force_fixpoint: bool = False) -> int:
        """Stage II: iterate Eq. 17–18 (T-Rank form) and re-tighten Eq. 22.

        Returns the number of sweeps run.
        """
        if (self.refine_mode == "off" and not force_fixpoint) or not self.seen_list:
            return 0
        self._maybe_rebuild()
        assert self._sub is not None
        assert self._ext_unseen is not None and self._ext_heavy is not None
        assert self._matrix_nodes is not None
        nodes = self._matrix_nodes
        size = nodes.shape[0]
        if size == 0:
            return 0
        low = self.lower[nodes]
        up = self.upper[nodes]
        q_pos = self._matrix_pos[self.query]
        damp = 1.0 - self.alpha

        # Caps for mass leaving the matrix: build-time-unseen nodes are now
        # either still unseen (<= current unseen bound) or seen post-build
        # (<= their static upper); heavy nodes keep their static uppers.
        in_matrix = self._matrix_pos >= 0
        post = self.seen & ~in_matrix & ~self._is_heavy
        post_max = float(self.upper.max(where=post, initial=0.0))
        heavy_cap = float(self.upper.max(where=self.seen & self._is_heavy, initial=0.0))
        ext_heavy = self._ext_heavy * heavy_cap
        border = self.border
        border_pos = self._matrix_pos[border]
        border_static_max = float(self.upper[border[border_pos < 0]].max(initial=0.0))
        border_pos = border_pos[border_pos >= 0]
        has_border = border_pos.size > 0

        max_iters = (
            1 if (self.refine_mode == "single" and not force_fixpoint) else MAX_REFINE_ITERS
        )
        indptr, indices, data = self._sub
        new_low, new_up, diff = np.empty(size), np.empty(size), np.empty(size)
        iters = 0
        for _ in range(max_iters):
            cap = max(self.unseen_upper, post_max)
            # As on the f-side; the upper sum is, in this order,
            # ((A @ up + ext_unseen * cap) + ext_heavy * heavy_cap) * damp.
            new_low.fill(0.0)
            matvec_accumulate(indptr, indices, data, low, new_low)
            new_low *= damp
            new_up.fill(0.0)
            matvec_accumulate(indptr, indices, data, up, new_up)
            new_up += np.multiply(self._ext_unseen, cap, out=diff)
            new_up += ext_heavy
            new_up *= damp
            if q_pos >= 0:
                new_low[q_pos] += self.alpha
                new_up[q_pos] += self.alpha
            np.maximum(low, new_low, out=new_low)
            np.minimum(up, new_up, out=new_up)
            delta = max(
                float(np.subtract(new_low, low, out=diff).max()),
                float(np.subtract(up, new_up, out=diff).max()),
            )
            low, new_low = new_low, low
            up, new_up = new_up, up
            iters += 1
            # Eq. 22 re-tightening inside the sweep keeps the feedback loop:
            # shrinking border uppers shrink the unseen bound, which shrinks
            # the external mass of the next sweep.
            in_matrix_max = float(up[border_pos].max()) if has_border else 0.0
            self.unseen_upper = min(
                self.unseen_upper,
                (1.0 - self.alpha) * max(in_matrix_max, border_static_max),
            )
            if delta < REFINE_TOL:
                break
        self.lower[nodes] = np.maximum(self.lower[nodes], low)
        self.upper[nodes] = np.minimum(self.upper[nodes], up)
        self._recompute_unseen_upper()
        return iters

    def seen_nodes(self) -> np.ndarray:
        """The t-neighborhood ``St`` as an array of node ids."""
        return np.asarray(self.seen_list, dtype=np.int64)
