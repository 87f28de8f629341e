"""Bookmark-Coloring Algorithm (Berkhin 2006) — the f-side engine of 2SBound.

BCA maintains, for a query ``q``, an estimated PPR ``rho(q, .)`` and a
residual ``mu(q, .)``; initially all residual sits at the query.  Processing
a node ``v`` absorbs ``alpha * mu(v)`` into ``rho(v)`` and spreads the
remaining ``(1 - alpha) * mu(v)`` to out-neighbors in proportion to the
transition probabilities.  The fundamental invariant (used by the paper's
Prop. 4 and our property tests) is

.. math::

    f(q, \\cdot) = \\rho(q, \\cdot) + \\sum_u \\mu(q, u) \\, f(u, \\cdot)

so in particular ``sum(rho) + sum(mu) = 1`` at all times and ``rho`` is a
pointwise lower bound on F-Rank.

2SBound's expansion strategy (Sect. V-A, Stage I for F-Rank) picks the ``m``
nodes with the largest *benefit* ``mu(v) / |Out(v)|`` — high residual, cheap
to process.  Selection is batched and vectorized: benefits are recomputed
once per expansion over the non-zero-residual set, matching the paper's
"pick up to m nodes ... and apply BCA processing to each".
"""

from __future__ import annotations

import numpy as np

from repro.topk.graphaccess import GraphAccess
from repro.utils.validation import check_in_range, check_node_id

#: residuals below this are treated as fully drained; BCA only converges
#: asymptotically, so a cutoff is needed for termination.
MIN_RESIDUAL = 1e-14


class BCAState:
    """Mutable BCA state for one query."""

    def __init__(self, access: GraphAccess, query: int, alpha: float) -> None:
        self.access = access
        self.query = check_node_id(query, access.n_nodes, "query")
        self.alpha = check_in_range(
            alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False
        )
        n = access.n_nodes
        self.rho = np.zeros(n)
        self.mu = np.zeros(n)
        self.mu[self.query] = 1.0
        self.total_residual = 1.0
        #: nodes with residual >= MIN_RESIDUAL (the processable frontier).
        self._nonzero: set[int] = {self.query}

    # ------------------------------------------------------------------ #

    @property
    def exhausted(self) -> bool:
        """Whether all remaining residual is below the drain cutoff."""
        return not self._nonzero

    def _nonzero_array(self) -> np.ndarray:
        return np.fromiter(self._nonzero, dtype=np.int64, count=len(self._nonzero))

    @property
    def max_residual(self) -> float:
        """``max_u mu(q, u)`` — the first term of the Prop. 4 bound.

        The frontier holds exactly the nodes with ``mu >= MIN_RESIDUAL``, so
        while it is non-empty its maximum is the maximum over all of ``mu``.
        """
        if not self._nonzero:
            return 0.0
        return float(self.mu.max())

    def process(self, node: int) -> None:
        """One BCA processing step on ``node`` (no-op on drained nodes)."""
        if self.mu[node] < MIN_RESIDUAL:
            return
        self._spread(node, *self.access.out_edges(node))

    def _spread(self, node: int, neighbors: np.ndarray, probs: np.ndarray) -> None:
        """Process ``node``, whose residual is at least ``MIN_RESIDUAL``,
        given its out-list."""
        amount = self.mu[node]
        self.rho[node] += self.alpha * amount
        self.total_residual -= self.alpha * amount
        # Zero first: a self-loop may spread residual right back to node.
        self.mu[node] = 0.0
        self._nonzero.discard(node)
        if neighbors.size:
            np.add.at(self.mu, neighbors, (1.0 - self.alpha) * amount * probs)
            grown = neighbors[self.mu[neighbors] >= MIN_RESIDUAL]
            self._nonzero.update(grown.tolist())
        else:
            # No out-edges at all (isolated node without the self-loop
            # convention); its residual mass is simply retired.
            self.total_residual -= (1.0 - self.alpha) * amount

    def select_best_benefit(self, count: int) -> list[int]:
        """The up-to-``count`` nodes with the largest benefit ``mu/|Out|``."""
        if not self._nonzero:
            return []
        nodes = self._nonzero_array()
        degrees = np.maximum(self.access.out_degrees(nodes), 1)
        benefits = self.mu[nodes] / degrees
        if nodes.size <= count:
            order = np.argsort(-benefits, kind="stable")
            return nodes[order].tolist()
        top = np.argpartition(-benefits, count - 1)[:count]
        order = top[np.argsort(-benefits[top], kind="stable")]
        return nodes[order].tolist()

    def expand(self, count: int) -> list[int]:
        """One Stage-I expansion: process the ``count`` best-benefit nodes.

        Equivalent to :meth:`process` on each node in turn, with the batch's
        out-lists read in one :meth:`GraphAccess.out_rows` call.  Every
        selected node is on the frontier, and processing the others only
        adds to its residual, so none is skipped as drained.
        """
        nodes = self.select_best_benefit(count)
        if not nodes:
            return nodes
        batch = np.asarray(nodes, dtype=np.int64)
        self.access.prefetch(batch, out=True)
        counts, neighbors, probs = self.access.out_rows(batch)
        start = 0
        for node, end in zip(nodes, np.cumsum(counts).tolist()):
            # Per node, in order: a later node sees the residual spread to
            # it by earlier ones.
            self._spread(node, neighbors[start:end], probs[start:end])
            start = end
        return nodes

    def run_to_tolerance(self, residual_tol: float, max_steps: int = 10_000_000) -> None:
        """Classical BCA: keep processing until total residual <= tol.

        Processes in best-benefit batches of 1 (the original algorithm picks
        the single largest-residual node; benefit ordering only changes the
        schedule, not the fixed point).
        """
        steps = 0
        while self.total_residual > residual_tol and not self.exhausted:
            nodes = self._nonzero_array()
            node = int(nodes[np.argmax(self.mu[nodes])])
            self.process(node)
            steps += 1
            if steps >= max_steps:
                raise RuntimeError("BCA failed to drain residual within max_steps")
