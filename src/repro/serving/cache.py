"""LRU cache of per-node F-Rank / T-Rank columns with byte-budget accounting.

Repeated queries dominate real serving workloads (the query-log graphs the
paper targets are Zipf-distributed), so :class:`ColumnCache` memoizes the
*per-node* solution columns instead of per-query score vectors: F-Rank and
T-Rank are linear in the teleport vector (the Linearity Theorem), so any
multi-node query is a weighted sum of cached single-node columns, and one
cached column serves every measure derived from ``(f, t)``.

Cache key contract
------------------
An entry is keyed on ``(graph_id, kind, node, alpha)``:

- ``graph_id`` — a token unique per live :class:`~repro.graph.digraph.DiGraph`
  *object* (graphs are immutable once built, so object identity is content
  identity; tokens are never reused while the cache can still hold entries
  for the graph, see :func:`graph_token`);
- ``kind`` — ``"f"`` (F-Rank, the ``P^T`` fixed point) or ``"t"`` (T-Rank,
  the ``P`` fixed point);
- ``node`` — the single teleport node of the column;
- ``alpha`` — the teleport probability, compared exactly as a float.

Columns are stored as the solver's ``float64``.  The solver settings
(``tol``, ``max_iter``, ``method``) are fixed per cache instance so that
every entry of one cache is mutually consistent; the cache is the one
owner of these settings in the serving stack (the gateway, its lanes and
the evaluation runner all solve through a cache).  A miss batch of more
than 32 columns (a wide :meth:`ColumnCache.warm`) is solved by the engine
as column blocks on every usable core; that changes no column's key.

Eviction and accounting
-----------------------
Eviction is least-recently-used: the store is an ordered dict, a hit moves
its column to the most recent end and eviction pops the least recent one.
``current_bytes`` (the sum of ``array.nbytes`` over stored columns) never
exceeds ``max_bytes`` — not even transiently: room is made *before* a new
column is stored.  A column larger than the whole budget is computed and
returned but never stored.

Stored arrays are marked read-only and returned without copying, so a cache
hit is bit-exact with the original solve and costs O(1).

Thread safety
-------------
All public methods are serialized by one reentrant lock per cache; hits,
misses, evictions and byte accounting are therefore exact under concurrent
use.  Misses solve while holding the lock, so concurrent readers of a cold
cache wait rather than duplicating a solve.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.frank import DEFAULT_ALPHA
from repro.engine.batch import frank_batch, trank_batch
from repro.graph.digraph import DiGraph
from repro.utils.publish import publish_guard
from repro.utils.validation import check_in_range, check_positive, check_positive_int

#: Default byte budget (a quarter GiB): ~32k float64 columns on a 1k-node
#: graph, ~33 columns on a 1M-node graph.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_KINDS = ("f", "t")

# Process-wide cache traffic, aggregated over every ColumnCache instance
# (per-instance counts stay on CacheInfo); gated, so production-off mode
# pays one flag check per get_many.
_OBS_HITS = obs.counter("repro_cache_hits_total", "ColumnCache lookup hits", labels=("kind",))
_OBS_MISSES = obs.counter(
    "repro_cache_misses_total", "ColumnCache lookup misses", labels=("kind",)
)
_OBS_EVICTIONS = obs.counter("repro_cache_evictions_total", "ColumnCache evictions")

_graph_tokens: "weakref.WeakKeyDictionary[DiGraph, int]" = weakref.WeakKeyDictionary()
_next_token = itertools.count()
_token_lock = threading.Lock()


def graph_token(graph: DiGraph) -> int:
    """A process-unique integer identifying a live graph object.

    Unlike ``id(graph)``, tokens are monotonically assigned and never reused,
    so a cache entry can outlive its graph without a new graph aliasing it.
    """
    with _token_lock:
        token = _graph_tokens.get(graph)
        if token is None:
            token = next(_next_token)
            _graph_tokens[graph] = token
        return token


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of cache counters (compare with ``functools.lru_cache``).

    ``inserts`` / ``inserted_bytes`` / ``evicted_bytes`` track the write side
    of the cache: how much column traffic flowed *into* the store and how
    much eviction threw away, next to the hit rate.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    current_bytes: int
    max_bytes: int
    inserts: int = 0
    inserted_bytes: int = 0
    evicted_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 when nothing has been looked up yet."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    @property
    def byte_utilization(self) -> float:
        """Fraction of the byte budget currently occupied by stored columns."""
        return self.current_bytes / self.max_bytes if self.max_bytes else 0.0

    def to_jsonable(self) -> dict:
        """Counters plus the computed rates, ready for JSON export.

        This is what gateway collectors contribute to ``obs.snapshot()``.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "current_bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
            "inserts": self.inserts,
            "inserted_bytes": self.inserted_bytes,
            "evicted_bytes": self.evicted_bytes,
            "hit_rate": self.hit_rate,
            "byte_utilization": self.byte_utilization,
        }


class ColumnCache:
    """Byte-budgeted LRU cache of per-node F-Rank and T-Rank columns.

    Parameters
    ----------
    max_bytes:
        Hard budget on the summed ``nbytes`` of stored columns.
    alpha, tol, max_iter, method:
        Solver configuration used for cache misses; part of the consistency
        contract (``alpha`` may also be overridden per call, it is part of
        the key).  ``method="auto"`` is the batch engine's accelerated path.
        A miss batch of more than 32 nodes is solved as column blocks on
        every usable core (:func:`repro.engine.power_iteration_batch`),
        with bytes that do not depend on the core count.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        alpha: float = DEFAULT_ALPHA,
        tol: float = 1e-12,
        max_iter: int = 1000,
        method: str = "auto",
    ) -> None:
        # Checked here, or the first miss would fail inside a flush and take
        # every future of its batch with it.
        self.max_bytes = check_positive_int(max_bytes, "max_bytes")
        self.alpha = check_in_range(
            alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False
        )
        self.tol = check_positive(tol, "tol")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        if method not in ("auto", "power"):
            raise ValueError(f"method must be 'auto' or 'power', got {method!r}")
        self.method = method
        # Least recently used first: a hit moves its key to the end.
        self._store: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._current_bytes = 0
        self._inserts = 0
        self._inserted_bytes = 0
        self._evicted_bytes = 0

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def _key(self, graph: DiGraph, kind: str, node: int, alpha: float) -> tuple:
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        return (graph_token(graph), kind, int(node), float(alpha))

    def get(self, graph: DiGraph, kind: str, node: int, alpha: "float | None" = None) -> np.ndarray:
        """The ``kind`` column of ``node``, solved on first access.

        The returned array is read-only and shared with the cache (bit-exact
        across hits); copy before mutating.
        """
        return self.get_many(graph, kind, [node], alpha)[0]

    def get_many(
        self,
        graph: DiGraph,
        kind: str,
        nodes: Sequence[int],
        alpha: "float | None" = None,
    ) -> "list[np.ndarray]":
        """Columns for several nodes; all misses share one batched solve.

        Returns one read-only length-``n`` array per requested node, in
        request order (duplicates allowed).  Every lookup path goes through
        here: :meth:`get`, :meth:`warm`, the batcher's flushes and the
        gateway's local top-k escalations.
        """
        alpha = self.alpha if alpha is None else float(alpha)
        with self._lock, obs.span("cache.get_many", kind=kind, n=len(nodes)) as ospan:
            hits0, misses0 = self._hits, self._misses
            keys = [self._key(graph, kind, node, alpha) for node in nodes]
            # Results are pinned per call: an entry inserted early in this
            # call may be evicted by a later insert of the same call, but the
            # caller must still receive it.
            resolved: "dict[tuple, np.ndarray]" = {}
            missing: "dict[tuple, int]" = {}
            for key, node in zip(keys, nodes):
                if key in resolved:
                    self._hits += 1
                elif key in self._store:
                    self._store.move_to_end(key)
                    resolved[key] = self._store[key]
                    self._hits += 1
                elif key not in missing:
                    missing[key] = int(node)
                    self._misses += 1
                else:
                    self._hits += 1  # duplicate miss in one request: solved once
            if missing:
                solved = self._solve(graph, kind, list(missing.values()), alpha)
                for j, key in enumerate(missing):
                    resolved[key] = self._insert(key, solved[:, j])
            ospan.set_attributes(hits=self._hits - hits0, misses=self._misses - misses0)
            _OBS_HITS.inc(self._hits - hits0, kind=kind)
            _OBS_MISSES.inc(self._misses - misses0, kind=kind)
            return [resolved[key] for key in keys]

    def contains(
        self, graph: DiGraph, kind: str, node: int, alpha: "float | None" = None
    ) -> bool:
        """Whether a column is currently stored — no solve, no counter, no
        recency update (the batcher's resident probe and the gateway's local
        path ask this before they read)."""
        alpha = self.alpha if alpha is None else float(alpha)
        with self._lock:
            return self._key(graph, kind, node, alpha) in self._store

    def warm(
        self,
        graph: DiGraph,
        nodes: Sequence[int],
        alpha: "float | None" = None,
        kinds: Sequence[str] = _KINDS,
    ) -> None:
        """Precompute (and store) columns for ``nodes`` in batched solves.

        One :func:`repro.engine.frank_batch` / :func:`repro.engine.trank_batch`
        call per kind covers every uncached node, so warming ``m`` nodes costs
        two multi-column solves instead of ``2 m`` single solves.
        """
        for kind in kinds:
            self.get_many(graph, kind, nodes, alpha)

    # ------------------------------------------------------------------ #
    # Internals (call with the lock held)
    # ------------------------------------------------------------------ #

    def _solve(self, graph: DiGraph, kind: str, nodes: "list[int]", alpha: float) -> np.ndarray:
        solver = frank_batch if kind == "f" else trank_batch
        return solver(
            graph,
            nodes,
            alpha,
            tol=self.tol,
            max_iter=self.max_iter,
            method=self.method,
        )

    def _insert(self, key: tuple, column: np.ndarray) -> np.ndarray:
        column = np.ascontiguousarray(column)
        if not column.flags.owndata:
            # A contiguous slice of the solver's output would alias writable
            # memory through ``column.base``; a caller mutating that base
            # would silently corrupt every future hit.  Stored columns must
            # own their bytes so read-only truly means immutable.
            column = column.copy()
        column.setflags(write=False)
        publish_guard(column, f"ColumnCache[{key!r}]")
        if column.nbytes > self.max_bytes:
            # Never storable within budget: hand it to the caller only.
            return column
        while self._current_bytes + column.nbytes > self.max_bytes:
            _, evicted = self._store.popitem(last=False)
            self._current_bytes -= evicted.nbytes
            self._evictions += 1
            self._evicted_bytes += evicted.nbytes
            _OBS_EVICTIONS.inc()
        self._store[key] = column
        self._current_bytes += column.nbytes
        self._inserts += 1
        self._inserted_bytes += column.nbytes
        return column

    # ------------------------------------------------------------------ #
    # Introspection and maintenance
    # ------------------------------------------------------------------ #

    def cache_info(self) -> CacheInfo:
        """Hit / miss / eviction counters and byte accounting, atomically."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._store),
                current_bytes=self._current_bytes,
                max_bytes=self.max_bytes,
                inserts=self._inserts,
                inserted_bytes=self._inserted_bytes,
                evicted_bytes=self._evicted_bytes,
            )

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._store.clear()
            self._current_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        info = self.cache_info()
        return (
            f"ColumnCache(entries={info.entries}, "
            f"bytes={info.current_bytes}/{info.max_bytes}, hits={info.hits}, "
            f"misses={info.misses}, evictions={info.evictions})"
        )
