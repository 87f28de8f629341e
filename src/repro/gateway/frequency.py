"""Exponentially-decayed per-tenant query-frequency estimates.

The prefetcher needs to know *which columns are hot right now*, per tenant
and per ``(graph, alpha)`` solver configuration — raw lifetime counts would
keep warming last week's hot set.  :class:`FrequencyEstimator` keeps one
exponentially-decayed counter per ``(tenant, group, node)``:

    ``count(t) = count(t0) * 0.5 ** ((t - t0) / half_life) + increment``

Decay is applied lazily at touch/read time from stored timestamps, so idle
entries cost nothing until queried.  Clocks are injectable so tests can
drive decay deterministically.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Hashable

from repro.utils.validation import check_positive


class FrequencyEstimator:
    """Decayed per-(tenant, group, node) query counters with a top-N view.

    ``group`` is an opaque hashable — the gateway uses ``(graph_name,
    alpha)`` so estimates never mix columns that could not share a cache
    entry.  ``max_nodes_per_group`` bounds memory per (tenant, group): when
    full, recording a *new* node drops the coldest of a bounded sample of
    entries, CLOCK-style (surviving sampled entries rotate to the back so
    the window cycles through the group).  An exact min would scan the
    whole group — with its per-entry decay ``pow`` — on every one-off node
    of a tail-heavy stream, under the lock, on the synchronous submit
    path; the sampled second-chance scan keeps the insert O(1) while hot
    entries still survive (they are never the sampled minimum).
    """

    #: entries examined per sampled eviction; 16 keeps a hot entry's
    #: survival odds high while the scan stays trivially cheap.
    _EVICT_SAMPLE = 16

    def __init__(
        self,
        half_life: float = 30.0,
        max_nodes_per_group: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_nodes_per_group < 1:
            raise ValueError(
                f"max_nodes_per_group must be >= 1, got {max_nodes_per_group}"
            )
        self.half_life = check_positive(half_life, "half_life")
        self.max_nodes_per_group = int(max_nodes_per_group)
        self._clock = clock
        #: (tenant, group) -> {node: (count, last_update)}
        self._counts: "dict[tuple[str, Hashable], dict[int, tuple[float, float]]]" = {}
        self._lock = threading.Lock()

    def _decayed(self, count: float, since: float, now: float) -> float:
        return count * 0.5 ** ((now - since) / self.half_life)

    def record(
        self, tenant: str, group: Hashable, node: int, increment: float = 1.0
    ) -> None:
        """Count one observation of ``node`` (``increment`` supports query
        weights: a multi-node query records each node with its weight)."""
        now = self._clock()
        with self._lock:
            nodes = self._counts.setdefault((tenant, group), {})
            entry = nodes.get(int(node))
            current = self._decayed(entry[0], entry[1], now) if entry else 0.0
            if entry is None and len(nodes) >= self.max_nodes_per_group:
                # CLOCK-style sampled eviction over the insertion-order
                # prefix: evict the coldest of the sample, rotate the
                # survivors to the back (second chance) so the window
                # cycles through the whole group instead of pinning old
                # hot entries at the front forever.
                sample = list(itertools.islice(nodes.items(), self._EVICT_SAMPLE))
                coldest = min(
                    sample, key=lambda kv: self._decayed(kv[1][0], kv[1][1], now)
                )[0]
                for key, value in sample:
                    del nodes[key]
                    if key != coldest:
                        nodes[key] = value
            nodes[int(node)] = (current + float(increment), now)

    def top(self, tenant: str, group: Hashable, n: int) -> "list[tuple[int, float]]":
        """The ``n`` hottest nodes as ``(node, decayed_count)``, hottest first."""
        now = self._clock()
        with self._lock:
            nodes = self._counts.get((tenant, group), {})
            scored = [
                (node, self._decayed(count, since, now))
                for node, (count, since) in nodes.items()
            ]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[: max(0, int(n))]

    def groups(self) -> "list[tuple[str, Hashable]]":
        """Every ``(tenant, group)`` with recorded traffic."""
        with self._lock:
            return list(self._counts)

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
