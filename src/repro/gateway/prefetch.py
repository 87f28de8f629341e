"""Background prefetch: warm hot columns during idle capacity.

Cache warming used to be manual (`ColumnCache.warm` with a hand-picked node
list).  The :class:`Prefetcher` closes that gap: it watches the gateway's
per-tenant decayed query-frequency estimates and, whenever the lanes are
idle, keeps the hottest F/T columns resident through the batch engine —
re-solving evicted ones and refreshing live ones — so a tenant's next burst
finds its head already warm.

Design points:

- **Idle-gated.**  A prefetch round runs only when the gateway's total
  pending queue depth is at most ``idle_depth`` (default 0).  Foreground
  queries always win; prefetch consumes capacity that would otherwise sit
  unused.  (The solve itself is not preemptible — bound the intrusion with
  ``batch_size``.)
- **Per-tenant fairness.**  Each round takes up to ``per_tenant`` candidate
  nodes per ``(tenant, graph, alpha)`` group — one loud tenant cannot
  monopolize the warming budget.
- **Batch-engine warming, ``workers=`` aware.**  All selected nodes of one
  ``(graph, alpha)`` are warmed in one ``cache.warm`` call (two multi-column
  solves), optionally sharded across :mod:`repro.parallel` threads with
  ``workers=``.
- **Deterministic testing.**  :meth:`Prefetcher.run_once` performs exactly
  one round synchronously; the background thread (:meth:`start` /
  :meth:`stop`, or the context manager) just calls it on an interval.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gateway.core import RankGateway


class Prefetcher:
    """Warms the gateway cache with per-tenant hot columns when idle.

    Parameters
    ----------
    gateway:
        The :class:`repro.gateway.RankGateway` whose frequency estimates,
        cache and graphs drive the warming.
    per_tenant:
        Max columns *selected* per (tenant, graph, alpha) group per round.
    batch_size:
        Max columns *warmed* per round across all groups — bounds how long
        one round occupies the solver even with many hot tenants.
    interval:
        Background-thread sleep between rounds (seconds).
    idle_depth:
        A round is skipped while ``gateway.total_pending()`` exceeds this.
    min_score:
        Candidates below this decayed frequency are ignored — noise-floor
        guard so one-off queries never trigger solves.
    chunk:
        Nodes warmed per ``cache.warm`` call within a round (both kinds
        each).  Chunking bounds how long each solve occupies the engine and
        gives the round its LRU-friendly touch order; larger chunks amortize
        the shards better when ``workers`` is set.
    workers:
        Shard warm solves across threads (``cache.warm(workers=)``).
    """

    def __init__(
        self,
        gateway: "RankGateway",
        per_tenant: int = 16,
        batch_size: int = 64,
        interval: float = 0.05,
        idle_depth: int = 0,
        min_score: float = 0.0,
        chunk: int = 16,
        workers: "int | None" = None,
    ) -> None:
        if per_tenant < 1:
            raise ValueError(f"per_tenant must be >= 1, got {per_tenant}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if idle_depth < 0:
            raise ValueError(f"idle_depth must be >= 0, got {idle_depth}")
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self.gateway = gateway
        self.per_tenant = int(per_tenant)
        self.batch_size = int(batch_size)
        self.interval = float(interval)
        self.idle_depth = int(idle_depth)
        self.min_score = float(min_score)
        self.chunk = int(chunk)
        self.workers = workers
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------ #
    # One synchronous round
    # ------------------------------------------------------------------ #

    def plan(self) -> "dict[tuple[str, float], list[int]]":
        """The nodes one round would warm, grouped by ``(graph, alpha)``.

        Pure read: consults the frequency estimates, never solves.
        Candidates are gathered per ``(tenant, graph, alpha)`` group (at
        most ``per_tenant`` each — the fairness cap that stops one tenant
        flooding a round), then ranked **globally by decayed frequency**
        and cut at ``batch_size``.

        Hot nodes are planned *regardless of current residency* — that is
        deliberate, not waste.  Warming runs through ``cache.get_many``,
        where a resident column is an O(1) hit that refreshes its recency
        (protecting it from the very inserts the round is about to make)
        and an evicted one is re-solved.  A plan that skipped resident
        columns would warm each tenant's cold *tail* while the insert
        traffic evicted the hot heads — measurably worse than no prefetch
        at all on LRU caches under budget pressure.  Exposed for tests and
        capacity planning.
        """
        gateway = self.gateway
        candidates: "list[tuple[float, str, float, int]]" = []
        for tenant, group in gateway.frequency.groups():
            graph_name, alpha = group
            taken = 0
            for node, score in gateway.frequency.top(tenant, group, self.per_tenant):
                if taken >= self.per_tenant:
                    break
                if score <= self.min_score:
                    break  # sorted: everything after is colder
                candidates.append((float(score), graph_name, float(alpha), int(node)))
                taken += 1
        # Hottest first; deterministic tie-break on (graph, alpha, node).
        candidates.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
        selected: "dict[tuple[str, float], list[int]]" = {}
        chosen: "set[tuple[str, float, int]]" = set()
        for score, graph_name, alpha, node in candidates:
            if len(chosen) >= self.batch_size:
                break
            if (graph_name, alpha, node) in chosen:
                continue  # two tenants share a hot node: warm it once
            chosen.add((graph_name, alpha, node))
            selected.setdefault((graph_name, alpha), []).append(node)
        return selected

    def run_once(self, force: bool = False) -> int:
        """Run one prefetch round; returns the number of columns *solved*.

        Skips (returning 0 without counting a run) when the gateway is
        busier than ``idle_depth``, unless ``force=True``.  The round warms
        every planned node (F and T kinds); already-resident columns are
        refreshed in place and not counted — the return value counts the
        planned columns found absent immediately before their warm (so
        concurrent foreground misses are never attributed to prefetch).
        """
        gateway = self.gateway
        if gateway.closed:
            return 0
        if not force and gateway.total_pending() > self.idle_depth:
            return 0
        selected = self.plan()
        if not selected:
            return 0
        cache = gateway.cache
        warmed = 0
        with obs.span(
            "gateway.prefetch", planned=sum(len(nodes) for nodes in selected.values())
        ) as ospan:
            for (graph_name, alpha), nodes in selected.items():
                graph = gateway.graph(graph_name)
                # Warm coldest-planned first, in chunks covering both kinds
                # per node, so the hottest planned columns are the *most
                # recently* touched when the round ends.  A single
                # hottest-first pass per kind would leave the hottest inserts
                # oldest — first out the door under LRU the moment the round
                # itself fills the budget.
                for end in range(len(nodes), 0, -self.chunk):
                    chunk = nodes[max(0, end - self.chunk):end]
                    # Count only *planned* columns absent right before this
                    # chunk's warm — a global miss delta would misattribute
                    # concurrent foreground misses to prefetch.
                    warmed += sum(
                        not cache.contains(graph, kind, node, alpha)
                        for node in chunk
                        for kind in ("f", "t")
                    )
                    cache.warm(graph, chunk, alpha, workers=self.workers)
            ospan.set_attributes(warmed=warmed)
        gateway.stats.record_prefetch(warmed)
        return warmed

    # ------------------------------------------------------------------ #
    # Background thread
    # ------------------------------------------------------------------ #

    def start(self) -> "Prefetcher":
        """Run rounds every ``interval`` seconds in a daemon thread."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="gateway-prefetcher", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the background thread (idempotent; restartable)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.run_once()
            except Exception:  # pragma: no cover - defensive
                # A failed warm round must never kill the loop; the columns
                # stay cold and the next foreground miss surfaces the error.
                continue

    @property
    def running(self) -> bool:
        return self._thread is not None

    def __enter__(self) -> "Prefetcher":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
