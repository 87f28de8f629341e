"""Directed, weighted graph storage backed by scipy CSR matrices.

This is the substrate every ranking measure in the library walks on.  A
:class:`DiGraph` is immutable once built (use
:class:`repro.graph.builder.GraphBuilder` to construct one, or the dataset
generators in :mod:`repro.datasets`).  It exposes:

- raw edge weights ``W`` (CSR, shape ``n x n``),
- the row-stochastic transition matrix ``P`` with ``P[u, v]`` the one-step
  probability :math:`M_{uv}` of the paper (Sect. III-B),
- fast per-node access to out-edges and in-edges *with transition
  probabilities*, which the top-K machinery (Sect. V) uses for local
  expansion without touching the full matrix.

Dangling nodes (no out-edges) receive a self-loop with probability one in
``P`` so that random walks are always well defined; the dataset generators
never produce dangling nodes, but user-built graphs might.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import check_node_id


class DiGraph:
    """An immutable directed weighted graph.

    Parameters
    ----------
    weights:
        An ``n x n`` scipy sparse matrix of non-negative edge weights.
        ``weights[u, v] > 0`` means there is an arc ``u -> v``.  Undirected
        edges are represented as two arcs (the builder does this).
    labels:
        Optional human-readable node labels, ``labels[v]`` for node ``v``.
    node_types:
        Optional integer type code per node (e.g. paper/author/term/venue).
    type_names:
        Optional names for the type codes; ``type_names[code]``.
    """

    def __init__(
        self,
        weights: sp.spmatrix,
        labels: "Sequence[str] | None" = None,
        node_types: "np.ndarray | Sequence[int] | None" = None,
        type_names: "Sequence[str] | None" = None,
    ) -> None:
        weights = sp.csr_matrix(weights, dtype=np.float64)
        if weights.shape[0] != weights.shape[1]:
            raise ValueError(f"weights must be square, got shape {weights.shape}")
        if not np.isfinite(weights.data).all():
            raise ValueError("edge weights must be finite")
        if weights.nnz and weights.data.min() < 0:
            raise ValueError("edge weights must be non-negative")
        weights.eliminate_zeros()
        weights.sort_indices()
        self._weights = weights
        self._n = weights.shape[0]

        if labels is not None and len(labels) != self._n:
            raise ValueError(f"labels has length {len(labels)}, expected {self._n}")
        self._labels = list(labels) if labels is not None else None
        self._label_index: "dict[str, int] | None" = None

        if node_types is not None:
            node_types = np.asarray(node_types, dtype=np.int32)
            if node_types.shape != (self._n,):
                raise ValueError(f"node_types has shape {node_types.shape}, expected ({self._n},)")
        self._node_types = node_types
        self._type_names = list(type_names) if type_names is not None else None

        self._transition: "sp.csr_matrix | None" = None
        self._transition_csc: "sp.csc_matrix | None" = None
        self._weights_csc: "sp.csc_matrix | None" = None

    # ------------------------------------------------------------------ #
    # Basic shape and metadata
    # ------------------------------------------------------------------ #

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of directed arcs (an undirected edge counts twice)."""
        return self._weights.nnz

    @property
    def weights(self) -> sp.csr_matrix:
        """Raw edge-weight matrix (CSR).  Do not mutate."""
        return self._weights

    @property
    def labels(self) -> "list[str] | None":
        """Node labels, or ``None`` if the graph is unlabeled."""
        return self._labels

    @property
    def node_types(self) -> "np.ndarray | None":
        """Per-node integer type codes, or ``None`` for untyped graphs."""
        return self._node_types

    @property
    def type_names(self) -> "list[str] | None":
        """Names of the node-type codes, or ``None``."""
        return self._type_names

    def label_of(self, node: int) -> str:
        """Human-readable label of ``node`` (falls back to ``str(node)``)."""
        node = check_node_id(node, self._n)
        if self._labels is None:
            return str(node)
        return self._labels[node]

    def node_by_label(self, label: str) -> int:
        """Look up a node id by its label.  Raises ``KeyError`` if absent."""
        if self._labels is None:
            raise KeyError("graph has no labels")
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self._labels)}
        return self._label_index[label]

    def type_code(self, type_name: str) -> int:
        """Integer code of a node-type name.  Raises ``KeyError`` if absent."""
        if self._type_names is None:
            raise KeyError("graph has no node types")
        try:
            return self._type_names.index(type_name)
        except ValueError:
            raise KeyError(f"unknown node type {type_name!r}") from None

    def nodes_of_type(self, type_name: str) -> np.ndarray:
        """All node ids whose type is ``type_name``."""
        code = self.type_code(type_name)
        assert self._node_types is not None
        return np.flatnonzero(self._node_types == code)

    def type_mask(self, type_name: str) -> np.ndarray:
        """Boolean mask (length ``n_nodes``) selecting nodes of ``type_name``."""
        code = self.type_code(type_name)
        assert self._node_types is not None
        return self._node_types == code

    # ------------------------------------------------------------------ #
    # Transition probabilities (the paper's M)
    # ------------------------------------------------------------------ #

    @property
    def transition(self) -> sp.csr_matrix:
        """Row-stochastic transition matrix ``P`` with ``P[u, v] = M_uv``.

        Rows of dangling nodes get a unit self-loop so every row sums to one.
        """
        if self._transition is None:
            self._transition = _row_normalize_with_self_loops(self._weights)
        return self._transition

    @property
    def _transition_by_col(self) -> sp.csc_matrix:
        """CSC view of ``P`` for fast in-edge (column) access."""
        if self._transition_csc is None:
            self._transition_csc = self.transition.tocsc()
            self._transition_csc.sort_indices()
        return self._transition_csc

    @property
    def _weights_by_col(self) -> sp.csc_matrix:
        if self._weights_csc is None:
            self._weights_csc = self._weights.tocsc()
            self._weights_csc.sort_indices()
        return self._weights_csc

    def out_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbors of ``node`` with transition probabilities.

        Returns ``(neighbors, probs)`` where ``probs[i] = M[node, neighbors[i]]``.
        The self-loop injected for dangling nodes is included.
        """
        node = check_node_id(node, self._n)
        p = self.transition
        lo, hi = p.indptr[node], p.indptr[node + 1]
        return p.indices[lo:hi], p.data[lo:hi]

    def in_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """In-neighbors of ``node`` with transition probabilities.

        Returns ``(neighbors, probs)`` where ``probs[i] = M[neighbors[i], node]``
        — the probability that a surfer at ``neighbors[i]`` steps to ``node``.
        """
        node = check_node_id(node, self._n)
        p = self._transition_by_col
        lo, hi = p.indptr[node], p.indptr[node + 1]
        return p.indices[lo:hi], p.data[lo:hi]

    def out_neighbors(self, node: int) -> np.ndarray:
        """Out-neighbors of ``node`` by raw edges (no dangling self-loop)."""
        node = check_node_id(node, self._n)
        w = self._weights
        return w.indices[w.indptr[node] : w.indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        """In-neighbors of ``node`` by raw edges."""
        node = check_node_id(node, self._n)
        w = self._weights_by_col
        return w.indices[w.indptr[node] : w.indptr[node + 1]]

    @property
    def out_degrees(self) -> np.ndarray:
        """Raw out-degree (number of out-arcs) per node."""
        return np.diff(self._weights.indptr)

    @property
    def in_degrees(self) -> np.ndarray:
        """Raw in-degree (number of in-arcs) per node."""
        return np.diff(self._weights_by_col.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the arc ``u -> v`` exists."""
        u = check_node_id(u, self._n, "u")
        v = check_node_id(v, self._n, "v")
        w = self._weights
        lo, hi = w.indptr[u], w.indptr[u + 1]
        pos = np.searchsorted(w.indices[lo:hi], v)
        return pos < hi - lo and w.indices[lo + pos] == v

    def edge_weight(self, u: int, v: int) -> float:
        """Raw weight of arc ``u -> v`` (0.0 if absent)."""
        u = check_node_id(u, self._n, "u")
        v = check_node_id(v, self._n, "v")
        w = self._weights
        lo, hi = w.indptr[u], w.indptr[u + 1]
        pos = np.searchsorted(w.indices[lo:hi], v)
        if pos < hi - lo and w.indices[lo + pos] == v:
            return float(w.data[lo + pos])
        return 0.0

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def reverse(self) -> "DiGraph":
        """The graph with every arc reversed (same labels and types)."""
        return DiGraph(
            self._weights.T.tocsr(),
            labels=self._labels,
            node_types=self._node_types,
            type_names=self._type_names,
        )

    def with_removed_edges(self, arcs: Iterable[tuple[int, int]]) -> "DiGraph":
        """A copy of the graph with the given arcs deleted.

        Each pair ``(u, v)`` removes the single arc ``u -> v``; to remove an
        undirected edge pass both ``(u, v)`` and ``(v, u)``.  Missing arcs are
        silently ignored (tasks remove "all direct edges" between a query and
        its ground truth without checking directionality first).
        """
        w = self._weights.copy()
        touched = False
        for u, v in arcs:
            u = check_node_id(u, self._n, "u")
            v = check_node_id(v, self._n, "v")
            lo, hi = w.indptr[u], w.indptr[u + 1]
            pos = np.searchsorted(w.indices[lo:hi], v)
            if pos < hi - lo and w.indices[lo + pos] == v:
                w.data[lo + pos] = 0.0
                touched = True
        if touched:
            w.eliminate_zeros()
        return DiGraph(
            w,
            labels=self._labels,
            node_types=self._node_types,
            type_names=self._type_names,
        )

    def subgraph(self, nodes: "np.ndarray | Sequence[int]") -> tuple["DiGraph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns ``(sub, original_ids)`` where ``original_ids[i]`` is the id in
        this graph of node ``i`` in the subgraph.  Nodes are deduplicated and
        sorted by original id for determinism.
        """
        original_ids = np.unique(np.asarray(nodes, dtype=np.int64))
        if original_ids.size and (original_ids[0] < 0 or original_ids[-1] >= self._n):
            raise ValueError("subgraph nodes out of range")
        sub_w = self._weights[original_ids][:, original_ids]
        labels = [self._labels[i] for i in original_ids] if self._labels is not None else None
        types = self._node_types[original_ids] if self._node_types is not None else None
        return (
            DiGraph(sub_w, labels=labels, node_types=types, type_names=self._type_names),
            original_ids,
        )

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    #: bytes we charge per node / per arc in memory-size accounting.  The
    #: model matches the CSR layout: an arc stores a 4-byte column index and
    #: an 8-byte weight; a node stores an 8-byte indptr entry on each side.
    NODE_BYTES = 16
    ARC_BYTES = 12

    @property
    def memory_bytes(self) -> int:
        """Model-based memory footprint used in the Fig. 12 accounting."""
        return self._n * self.NODE_BYTES + self.n_edges * self.ARC_BYTES

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        typed = f", {len(self._type_names)} types" if self._type_names else ""
        return f"DiGraph(n_nodes={self._n}, n_edges={self.n_edges}{typed})"


def _row_normalize_with_self_loops(weights: sp.csr_matrix) -> sp.csr_matrix:
    """Row-normalize ``weights``; dangling rows get a unit self-loop."""
    n = weights.shape[0]
    row_sums = np.asarray(weights.sum(axis=1)).ravel()
    dangling = np.flatnonzero(row_sums == 0)
    coo = weights.tocoo()
    inv = np.zeros(n)
    nonzero = row_sums > 0
    inv[nonzero] = 1.0 / row_sums[nonzero]
    data = coo.data * inv[coo.row]
    rows = coo.row
    cols = coo.col
    if dangling.size:
        rows = np.concatenate([rows, dangling])
        cols = np.concatenate([cols, dangling])
        data = np.concatenate([data, np.ones(dangling.size)])
    p = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    p.sort_indices()
    return p
