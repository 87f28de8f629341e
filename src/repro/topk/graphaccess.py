"""Graph access abstraction for the top-K machinery.

2SBound only ever touches a *neighborhood* of the query — the paper's
"active set" (Sect. V-B1).  All adjacency reads go through a
:class:`GraphAccess` so the same algorithm runs:

- locally (:class:`LocalGraphAccess` — direct CSR reads),
- instrumented (:class:`InstrumentedGraphAccess` — records exactly which
  nodes and arcs were touched, giving the active-set accounting of
  Fig. 12), and
- distributed (``repro.distributed.RemoteGraphAccess`` — fetches adjacency
  from striped graph processors over a simulated network).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.graph.digraph import DiGraph


def gather_csr_rows(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Locate the concatenated CSR row slices of ``rows`` without a Python loop.

    Returns ``(counts, row_ids, flat)``: row ``rows[i]`` holds ``counts[i]``
    entries, and entry ``j`` of the concatenation sits at ``flat[j]`` of the
    CSR ``indices``/``data`` arrays and belongs to ``rows[row_ids[j]]``.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    # absolute index = repeated row start + offset within the row
    row_ids = np.repeat(np.arange(rows.size), counts)
    positions = np.arange(row_ids.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return counts, row_ids, starts[row_ids] + positions


def _concat_rows(
    rows: "list[tuple[np.ndarray, np.ndarray]]",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    counts = np.asarray([neighbors.size for neighbors, _ in rows], dtype=np.int64)
    if not rows:
        return counts, np.empty(0, dtype=np.int64), np.empty(0)
    return (
        counts,
        np.concatenate([neighbors for neighbors, _ in rows]),
        np.concatenate([probs for _, probs in rows]),
    )


class GraphAccess(abc.ABC):
    """Read-only adjacency access with transition probabilities."""

    @property
    @abc.abstractmethod
    def n_nodes(self) -> int:
        """Total number of nodes in the underlying graph."""

    @abc.abstractmethod
    def out_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbors, probs)`` with ``probs[i] = M[node, neighbors[i]]``."""

    @abc.abstractmethod
    def in_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbors, probs)`` with ``probs[i] = M[neighbors[i], node]``."""

    @abc.abstractmethod
    def out_degree(self, node: int) -> int:
        """Raw out-degree of ``node`` (for the BCA benefit heuristic)."""

    def out_rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bulk :meth:`out_edges`: ``(counts, neighbors, probs)`` of ``nodes``.

        The out-lists are concatenated in input order (repeats included):
        the first ``counts[0]`` entries of ``neighbors``/``probs`` are
        ``out_edges(nodes[0])``, and so on.  The default reads node by node
        through :meth:`out_edges`, so wrappers that count or fetch per node
        keep their behaviour; local access overrides it with one gather.
        """
        return _concat_rows([self.out_edges(v) for v in np.asarray(nodes).tolist()])

    def in_rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bulk :meth:`in_edges`, laid out as :meth:`out_rows`."""
        return _concat_rows([self.in_edges(v) for v in np.asarray(nodes).tolist()])

    def out_degrees(self, nodes: np.ndarray) -> np.ndarray:
        """Bulk out-degrees (default: per-node loop; override for speed)."""
        return np.asarray([self.out_degree(int(v)) for v in nodes], dtype=np.int64)

    def in_degrees(self, nodes: np.ndarray) -> np.ndarray:
        """Bulk in-list lengths, consistent with :meth:`in_edges`.

        This is metadata, not adjacency: the border bookkeeping of the
        t-side needs in-degrees without shipping whole in-neighbor lists.
        The default derives them from ``in_edges`` (fine locally); remote
        implementations answer from a dedicated degree channel.
        """
        return np.asarray(
            [self.in_edges(int(v))[0].size for v in nodes], dtype=np.int64
        )

    @property
    @abc.abstractmethod
    def has_self_loops(self) -> bool:
        """Whether the transition matrix has any self-loop.

        Proposition 4's repeated-return discount ``1/(2-alpha)`` assumes
        return trips take at least two steps; with self-loops the bound
        falls back to the undiscounted (still sound) version.
        """

    def prefetch(self, nodes: np.ndarray, out: bool = True, incoming: bool = False) -> None:
        """Hint that the adjacency of ``nodes`` is about to be read.

        A no-op locally; the distributed access layer uses it to batch one
        request per graph processor per expansion instead of one per node.
        """


class LocalGraphAccess(GraphAccess):
    """Direct access to an in-memory :class:`DiGraph`."""

    def __init__(self, graph: DiGraph) -> None:
        self._graph = graph
        self._out_degrees = graph.out_degrees
        self._in_list_degrees: "np.ndarray | None" = None
        self._has_self_loops: "bool | None" = None

    @property
    def graph(self) -> DiGraph:
        return self._graph

    @property
    def n_nodes(self) -> int:
        return self._graph.n_nodes

    def out_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        return self._graph.out_edges(node)

    def in_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        return self._graph.in_edges(node)

    def out_rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _gather(self._graph.transition, nodes)

    def in_rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _gather(self._graph._transition_by_col, nodes)

    def out_degree(self, node: int) -> int:
        return int(self._out_degrees[node])

    def out_degrees(self, nodes: np.ndarray) -> np.ndarray:
        return self._out_degrees[np.asarray(nodes, dtype=np.int64)]

    def in_degrees(self, nodes: np.ndarray) -> np.ndarray:
        if self._in_list_degrees is None:
            self._in_list_degrees = np.diff(self._graph._transition_by_col.indptr)
        return self._in_list_degrees[np.asarray(nodes, dtype=np.int64)]

    @property
    def has_self_loops(self) -> bool:
        if self._has_self_loops is None:
            self._has_self_loops = bool(self._graph.transition.diagonal().any())
        return self._has_self_loops


def _gather(matrix, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    counts, _, flat = gather_csr_rows(matrix.indptr, np.asarray(nodes, dtype=np.int64))
    return counts, matrix.indices[flat], matrix.data[flat]


class InstrumentedGraphAccess(GraphAccess):
    """Wrapper recording the *active set*: every node and arc ever fetched.

    The paper's active set is "the nodes [in the neighborhoods] and the set
    of edges for these nodes" — precisely the adjacency lists the algorithm
    pulls.  ``active_set_bytes`` applies the same cost model as
    :attr:`DiGraph.memory_bytes` so snapshot and active-set sizes are
    directly comparable (Fig. 12).
    """

    def __init__(self, inner: GraphAccess) -> None:
        self._inner = inner
        self._fetched_out: set[int] = set()
        self._fetched_in: set[int] = set()
        self._active_nodes: set[int] = set()
        self._active_arcs: int = 0

    @property
    def n_nodes(self) -> int:
        return self._inner.n_nodes

    def out_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        neighbors, probs = self._inner.out_edges(node)
        if node not in self._fetched_out:
            self._fetched_out.add(node)
            self._active_nodes.add(node)
            self._active_nodes.update(int(v) for v in neighbors)
            self._active_arcs += int(neighbors.size)
        return neighbors, probs

    def in_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        neighbors, probs = self._inner.in_edges(node)
        if node not in self._fetched_in:
            self._fetched_in.add(node)
            self._active_nodes.add(node)
            self._active_nodes.update(int(v) for v in neighbors)
            self._active_arcs += int(neighbors.size)
        return neighbors, probs

    def out_degree(self, node: int) -> int:
        return self._inner.out_degree(node)

    def out_degrees(self, nodes: np.ndarray) -> np.ndarray:
        return self._inner.out_degrees(nodes)

    def in_degrees(self, nodes: np.ndarray) -> np.ndarray:
        return self._inner.in_degrees(nodes)

    def prefetch(self, nodes: np.ndarray, out: bool = True, incoming: bool = False) -> None:
        # route through the counting reads so prefetched adjacency is
        # charged to the active set exactly once.
        for node in np.asarray(nodes, dtype=np.int64).tolist():
            if out:
                self.out_edges(int(node))
            if incoming:
                self.in_edges(int(node))

    @property
    def has_self_loops(self) -> bool:
        return self._inner.has_self_loops

    # ------------------------- accounting ------------------------------ #

    @property
    def active_node_count(self) -> int:
        """Number of distinct nodes in the active set."""
        return len(self._active_nodes)

    @property
    def active_arc_count(self) -> int:
        """Number of adjacency entries fetched (per-direction)."""
        return self._active_arcs

    @property
    def active_set_bytes(self) -> int:
        """Model-based active-set size (same cost model as the full graph)."""
        return (
            self.active_node_count * DiGraph.NODE_BYTES
            + self.active_arc_count * DiGraph.ARC_BYTES
        )
