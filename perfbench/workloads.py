"""The four ledger workloads: inputs, measured loops and answer checks.

Every workload drives the program through its public API from this one
process, under the default configuration (``repro.obs`` off, the scipy
kernel, ``workers=None``).  Each one takes its inputs from the run's
``--seed`` and gives the program only those generated inputs.

Why these four (see ``ledger.json`` for the layer -> metric map):

- ``zipf-gateway``: repeated multi-tenant queries through a started
  ``RankGateway`` (closed loop, one client), so admission, batch assembly
  and cache hits do most of the work and the engine runs only on misses.
- ``cold-topk-local``: distinct cold top-10 queries on the certified local
  push path (closed loop, one client); every query misses the cache and the
  batcher does nothing.
- ``bulk-warm``: ``ColumnCache.warm`` over distinct nodes in chunks of 64
  under a byte budget that evicts; wide solves in ``engine`` and ``ops``
  dominate and no serving layer runs.
- ``twosbound-cold``: the paper's online 2SBound on the cold-topk-local
  graph and query pool; only the ``topk`` modules run.

Run-to-run steadiness.  Per-request cost is heavy-tailed, so a seed-drawn
sample of requests would move p50 and p99 by more than any bound a later
change could be held to.  Each workload therefore fixes the *shape* of its
inputs and lets the seed choose everything else:

- cold-topk-local, twosbound-cold and bulk-warm run whole passes over a
  fixed pool of queries or chunks, in an order the seed draws, so every
  run summarizes the same population;
- zipf-gateway replays a multi-tenant stream of fixed shape (order,
  tenant, popularity rank and repeats) whose phrase nodes the seed
  relabels, so the hit/miss pattern, and with it the cache counts, is the
  same on every seed while the nodes solved differ.

Every loop is closed (one client) and calibrated against the host's
speed; see ``calibrate.py``.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from perfbench.calibrate import Calibrator
from repro.datasets import (
    BibNetConfig,
    QLogConfig,
    TenantSpec,
    generate_bibnet,
    generate_qlog,
    sample_multitenant_queries,
)
from repro.gateway import RankGateway, Shed
from repro.ops import get_operator
from repro.serving import ColumnCache
from repro.topk import twosbound as topk_twosbound
from repro.topk.naive import naive_topk

K = 10
EPSILON = 0.005
#: Seed of the fixed pools: the cold-query pool shared by cold-topk-local
#: and twosbound-cold, and the bulk-warm chunks (the graph's own seed fixes
#: the graph).
POOL_SEED = 202
#: Seed of the zipf-gateway stream's shape; the run's seed relabels nodes.
SHAPE_SEED = 7
#: Relative score tolerance of the ranking check: two nodes whose exact
#: scores agree this closely are a tie the solver tolerance may order
#: either way.
RANK_RTOL = 1e-8
#: Largest float64 L1 residual accepted for a stored column (the cache
#: solves to a verified 1e-12).
RESIDUAL_TOL = 1e-10
#: Lowest mean precision@10 against the exact ranking that the checked
#: 2SBound answers may have; epsilon = 0.005 lets a near-tie at the K-th
#: place drop out (the checked answers of the 40-query pool average
#: 0.95-0.98 depending on the seed's order).
PRECISION_FLOOR = 0.9
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Window:
    """What one measured loop produced."""

    latencies: "list[float]" = field(default_factory=list)
    #: Pool index of each entry of ``latencies``.
    items: "list[int]" = field(default_factory=list)
    #: Whole passes the loop made over its pool.
    n_passes: int = 1
    attempted: int = 0
    failed: int = 0
    #: Sum of the latencies, in seconds.
    elapsed: float = 0.0
    #: Counts read from the public stats objects, summed over the window.
    counts: "dict[str, float]" = field(default_factory=dict)
    #: Workload-specific figures that are not ledger metrics.
    extra: "dict[str, float]" = field(default_factory=dict)
    #: Host-speed factor of each entry of ``latencies`` (see
    #: ``calibrate.py``); empty when the loop was not calibrated.
    factors: "list[float]" = field(default_factory=list)
    #: Seconds of each latency spent waiting on a timer, which does not
    #: slow with the host and so is not calibrated.
    timer_s: float = 0.0

    def typical(self) -> "list[float]":
        """Each pool item's median calibrated latency over the passes.

        A closed loop replays a fixed pool, so its percentiles are taken
        over the same population on every run.
        """
        factors = self.factors or [1.0] * len(self.latencies)
        by_item: "dict[int, list[float]]" = {}
        for item, latency, factor in zip(self.items, self.latencies, factors):
            by_item.setdefault(item, []).append(
                self.timer_s + (latency - self.timer_s) * factor
            )
        return [float(np.median(v)) for v in by_item.values()]

    def rate(self) -> float:
        """Completed requests per second over a pass of typical requests."""
        typical = self.typical()
        return len(typical) / sum(typical) if typical else 0.0


def stats_counts(cache: ColumnCache, gateway: "RankGateway | None" = None) -> "dict[str, int]":
    """Counters of the public stats objects (``CacheInfo``, ``GatewaySnapshot``)."""
    info = cache.cache_info()
    counts = {
        "cache.hits": info.hits,
        "cache.misses": info.misses,
        "cache.inserts": info.inserts,
        "cache.evictions": info.evictions,
    }
    if gateway is not None:
        snap = gateway.snapshot()
        counts["gateway.admitted"] = snap.n_admitted
        counts["gateway.shed"] = snap.n_shed
    return counts


def add_delta(total: dict, after: dict, before: dict) -> None:
    """``total += after - before``, key by key."""
    for key, value in after.items():
        total[key] = total.get(key, 0) + value - before.get(key, 0)


def ranking_ok(exact: np.ndarray, got) -> bool:
    """``got`` is the exact top-K, up to ties within :data:`RANK_RTOL`."""
    got = np.asarray(got, dtype=np.int64)
    if got.size != K or np.unique(got).size != K:
        return False
    want = np.sort(exact)[::-1][:K]
    return bool(np.allclose(exact[got], want, rtol=RANK_RTOL, atol=0.0))


def precision_at_k(exact: np.ndarray, got) -> float:
    """Share of ``got`` scoring at least the exact K-th score (tie-aware)."""
    kth = np.sort(exact)[::-1][K - 1]
    got = np.unique(np.asarray(got, dtype=np.int64))
    return float(np.sum(exact[got] >= kth * (1.0 - RANK_RTOL))) / K


def epsilon_ok(exact: np.ndarray, got) -> bool:
    """2SBound's contract (Eq. 13-14): a node may be missed only if its
    exact score is within epsilon of a returned one, and two returned
    nodes may be swapped only if their scores differ by less than epsilon."""
    got = np.asarray(got, dtype=np.int64)
    if got.size != K or np.unique(got).size != K:
        return False
    rest = np.delete(exact, got)
    slack = EPSILON * (1.0 + RANK_RTOL)
    return bool(
        exact[got].min() >= rest.max() - slack
        and np.all(exact[got][:-1] >= exact[got][1:] - slack)
    )


class _Oracle:
    """Exact RoundTripRank scores by full power iteration, memoized per node."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self._memo: "dict[int, np.ndarray]" = {}

    def __call__(self, node: int) -> np.ndarray:
        if node not in self._memo:
            self._memo[node] = naive_topk(self.graph, node, K).scores
        return self._memo[node]


def closed_loop(
    items: list,
    call: Callable,
    *,
    seconds: "float | None",
    count: "int | None",
    tag: Callable[[int], None],
    check_every: int,
    capture: "Callable | None" = None,
    on_wrap: "Callable[[], None] | None" = None,
    calibrate_every: int = 1,
) -> "tuple[Window, dict[int, object]]":
    """One client cycling through ``items``, for ``count`` requests or
    ``seconds``.

    With ``count`` (the traced phase, whose counts must repeat) exactly
    ``count`` requests run.  With ``seconds`` the loop runs whole passes
    over ``items`` for as long as the next pass is expected to end within
    ``seconds`` (at least one pass), so every run summarizes the same
    population whatever order the seed gave it.  There it also runs the
    calibration job before the first and every ``calibrate_every``-th
    request of a pass, and once at the end; each latency's factor is the
    mean of the jobs' factors right before and right after it.

    ``on_wrap`` runs (untimed) before each new pass over ``items``.  Every
    ``check_every``-th request's output (or ``capture(item, output)``,
    also untimed) is kept for the answer check.
    """
    win = Window()
    kept: "dict[int, object]" = {}
    calibrator = Calibrator() if count is None else None
    #: Factors of the calibration jobs run so far, and for each latency
    #: the index of the last job before it.
    jobs: "list[float]" = []
    job_of: "list[int]" = []
    began = time.perf_counter()
    i = 0
    while count is None or i < count:
        if i and i % len(items) == 0:
            if count is None:
                win.n_passes = passes = i // len(items)
                spent = time.perf_counter() - began
                if spent * (passes + 1) / passes > seconds:
                    break
            if on_wrap is not None:
                on_wrap()
        item = items[i % len(items)]
        if calibrator is not None and i % len(items) % calibrate_every == 0:
            jobs.append(calibrator.factor())
        tag(i)
        win.attempted += 1
        started = time.perf_counter()
        try:
            out = call(item)
        except Exception:  # a raised request is a failure the ledger counts
            win.failed += 1
            i += 1
            continue
        elapsed = time.perf_counter() - started
        if out is _SHED:
            win.failed += 1
        else:
            win.latencies.append(elapsed)
            win.items.append(i % len(items))
            win.elapsed += elapsed
            job_of.append(len(jobs) - 1)
            if i % check_every == 0:
                kept[i] = (item, out if capture is None else capture(item, out))
        i += 1
    if calibrator is not None:
        jobs.append(calibrator.factor())
        win.factors = [(jobs[k] + jobs[k + 1]) / 2 for k in job_of]
        win.extra["host_speed_p50"] = float(np.median(jobs))
    return win, kept


_SHED = object()


def _no_tag(_rid: int) -> None:
    return None


@contextlib.contextmanager
def tracing(tracer):
    """Install ``tracer`` (if any) around a loop; yields the request tagger.

    Serving objects are started before this, so warm-up queries stay out
    of the trace.
    """
    if tracer is None:
        yield _no_tag
        return
    with tracer:
        yield tracer.begin_request


def _gateway_topk(gateway: RankGateway, node: int, **kwargs):
    result = gateway.submit(int(node), k=K, **kwargs)
    if isinstance(result, Shed):
        return _SHED
    indices, _scores = result.result(timeout=REQUEST_TIMEOUT_S)
    return indices


def gateway_passes(
    workload, data, inputs, send, *, seconds, count, tracer, calibrate_every, batched
):
    """:func:`closed_loop` of ``send(gateway, item)`` on a fresh started
    gateway per pass, so each pass's requests hit and miss alike.

    The window's counts are summed over the passes' gateways.  With
    ``batched`` (requests go through the micro-batcher) the window's
    ``timer_s`` is the batcher's deadline.
    """
    counts: dict = {}
    live: list = []

    def finish_pass() -> None:
        gateway, before = live.pop()
        add_delta(counts, stats_counts(gateway.cache, gateway), before)
        workload.stop(gateway)

    def new_pass() -> None:
        if live:
            finish_pass()
        gateway = workload.start(data)
        live.append((gateway, stats_counts(gateway.cache, gateway)))

    new_pass()
    timer_s = live[0][0].max_delay if batched else 0.0
    with tracing(tracer) as tag:
        win, kept = closed_loop(
            inputs,
            lambda item: send(live[0][0], item),
            seconds=seconds,
            count=count,
            tag=tag,
            check_every=64,
            on_wrap=new_pass,
            calibrate_every=calibrate_every,
        )
    finish_pass()
    win.counts = counts
    win.timer_s = timer_s
    return win, kept


class Workload:
    """One ledger workload; subclasses fill in the hooks below.

    ``build`` makes the graph data (timed as ``setup.graph_s``); ``start``
    makes the serving object and sends one warm-up query (timed as
    ``setup.first_query_ms``); ``window`` runs one measured loop on a
    fresh serving object of its own.
    """

    name = ""
    #: Requests per second a traced phase is sized by (the phase runs a
    #: fixed count, so counts repeat exactly).
    nominal_rate = 1.0

    def __init__(self, tiny: bool) -> None:
        self.tiny = tiny

    def build(self):
        raise NotImplementedError

    def start(self, data):
        raise NotImplementedError

    def stop(self, server) -> None:
        close = getattr(server, "close", None)
        if close is not None:
            close()

    def inputs(self, data, seed: int, seconds: float) -> list:
        raise NotImplementedError

    def trace_count(self, inputs: list, seconds: float) -> int:
        return max(2, min(len(inputs), round(self.nominal_rate * seconds / 2)))

    def window(self, data, inputs, *, seconds, count, checks, tracer=None) -> Window:
        raise NotImplementedError

    def provenance(self, data, seconds: float) -> dict:
        return {}


# ---------------------------------------------------------------------- #
# zipf-gateway
# ---------------------------------------------------------------------- #


def _tenants() -> "list[TenantSpec]":
    """The three tenants of the gateway bench; the cold one bursts."""
    return [
        TenantSpec("alpha-heavy", weight=2.0, s=1.1),
        TenantSpec("beta-steady", weight=1.0, s=1.3),
        TenantSpec("cold-burst", weight=0.25, s=1.3, burst_phases=(3,), burst_multiplier=25.0),
    ]


class ZipfGateway(Workload):
    """One client sending a fixed-shape Zipf stream through the gateway,
    each request once the one before it has returned.

    With one request outstanding the micro-batcher never fills a batch,
    so every flush runs on its deadline (``max_delay``, 10 ms): a hit
    takes that timer plus the hit path, a miss the timer plus the solve.
    p50 falls on hits (63% of the stream) and p99 on miss solves.

    An open loop at 80 q/s, a tenth of the gateway's saturation on a
    4.0k-node qlog (870 q/s on a 2-core x86-64 host), came first.  When
    the host slowed, miss solves queued behind one another and p99 moved
    by 0.9 of its median between runs.  Calibration (``calibrate.py``)
    cannot take out queueing, and between open-loop sends the job would
    hold the GIL the deadline thread needs.  In the closed loop nothing
    queues: a latency is the deadline, which does not slow with the
    host, plus work, which is calibrated as in the other closed loops.
    """

    name = "zipf-gateway"
    nominal_rate = 80.0

    def __init__(self, tiny: bool) -> None:
        super().__init__(tiny)
        #: The stream holds the requests of 1/passes of ``--seconds`` at
        #: ``nominal_rate`` (250 at 25 s), so a run replays it four to
        #: seven times, depending on the host's speed.
        self.passes = 8

    def build(self):
        return generate_qlog(QLogConfig(n_concepts=60 if self.tiny else 250, seed=13))

    def start(self, qlog):
        gateway = RankGateway(qlog.graph).start()
        # A URL node: never in the phrase-node stream, so the warm-up
        # leaves no column the measured requests could hit.
        gateway.submit(int(qlog.url_nodes[0]), k=K).result(timeout=REQUEST_TIMEOUT_S)
        return gateway

    def inputs(self, qlog, seed, seconds):
        n = max(2, round(self.nominal_rate * seconds / self.passes))
        phrases = qlog.phrase_nodes
        log = sample_multitenant_queries(phrases, n, _tenants(), n_phases=4, seed=SHAPE_SEED)
        # The seed relabels phrase nodes: a bijection keeps every repeat
        # (and so every cache hit) of the fixed-shape stream.
        shuffled = np.random.default_rng(seed).permutation(phrases)
        relabel = dict(zip(phrases.tolist(), shuffled.tolist()))
        return [
            (log.tenants[t], relabel[node])
            for t, node in zip(log.tenant_ids.tolist(), log.nodes.tolist())
        ]

    def window(self, qlog, inputs, *, seconds, count, checks, tracer=None) -> Window:
        win, kept = gateway_passes(
            self,
            qlog,
            inputs,
            lambda gateway, req: _gateway_topk(gateway, req[1], tenant=req[0]),
            seconds=seconds,
            count=count,
            tracer=tracer,
            # A request takes about 11 ms, mostly the deadline, and a
            # calibration 6 ms.
            calibrate_every=4,
            batched=True,
        )
        if checks:
            oracle = _Oracle(qlog.graph)
            win.failed += sum(not ranking_ok(oracle(req[1]), got) for req, got in kept.values())
        return win


# ---------------------------------------------------------------------- #
# cold-topk-local, twosbound-cold and bulk-warm
# ---------------------------------------------------------------------- #


class _ColdBibNet(Workload):
    """BibNet-2200 and the fixed pool of cold paper nodes."""

    pool_size = 0

    def build(self):
        cfg = (
            BibNetConfig(n_papers=300, n_authors=120, seed=29)
            if self.tiny
            else BibNetConfig(n_papers=2200, n_authors=740, seed=29)
        )
        return generate_bibnet(cfg)

    def inputs(self, bib, seed, seconds):
        pool = np.random.default_rng(POOL_SEED).permutation(bib.paper_nodes)[: self.pool_size]
        return [int(v) for v in np.random.default_rng(seed).permutation(pool)]

    def warmup_node(self, bib) -> int:
        return int(bib.author_nodes[0])


class ColdTopKLocal(_ColdBibNet):
    """Closed loop, one client, certified local top-k through the gateway."""

    name = "cold-topk-local"
    nominal_rate = 80.0

    def __init__(self, tiny: bool) -> None:
        super().__init__(tiny)
        # Small enough for five or more passes per 25 s run, so each
        # item's median is taken over several.
        self.pool_size = 40 if tiny else 250

    def start(self, bib):
        gateway = RankGateway(bib.graph, local_topk=True).start()
        gateway.submit(self.warmup_node(bib), k=K).result(timeout=REQUEST_TIMEOUT_S)
        return gateway

    def window(self, bib, inputs, *, seconds, count, checks, tracer=None) -> Window:
        # A fresh gateway per pass keeps every query a cold miss: an
        # escalated query leaves its columns in the cache.
        win, kept = gateway_passes(
            self,
            bib,
            inputs,
            _gateway_topk,
            seconds=seconds,
            count=count,
            tracer=tracer,
            # A request takes about 10 ms and a calibration 6 ms.
            calibrate_every=4,
            batched=False,
        )
        if checks:
            oracle = _Oracle(bib.graph)
            win.failed += sum(not ranking_ok(oracle(node), got) for node, got in kept.values())
        return win


class TwoSBoundCold(_ColdBibNet):
    """Closed loop of 2SBound queries (k=10, epsilon=0.005), no serving."""

    name = "twosbound-cold"
    nominal_rate = 6.0

    def __init__(self, tiny: bool) -> None:
        super().__init__(tiny)
        self.pool_size = 6 if tiny else 40

    def start(self, bib):
        self._query(bib.graph, self.warmup_node(bib))
        return None

    @staticmethod
    def _query(graph, node: int):
        # Looked up on the module at call time so the traced phase sees it.
        return topk_twosbound.twosbound_topk(graph, node, K, epsilon=EPSILON)

    def window(self, bib, inputs, *, seconds, count, checks, tracer=None) -> Window:
        self.start(bib)
        with tracing(tracer) as tag:
            win, kept = closed_loop(
                inputs,
                lambda node: self._query(bib.graph, node).nodes,
                seconds=seconds,
                count=count,
                tag=tag,
                check_every=6,
            )
        if checks:
            oracle = _Oracle(bib.graph)
            answers = [(oracle(node), got) for node, got in kept.values()]
            win.failed += sum(not epsilon_ok(exact, got) for exact, got in answers)
            precision = float(np.mean([precision_at_k(e, got) for e, got in answers]))
            win.extra["precision_at_10"] = precision
            if precision < PRECISION_FLOOR:
                win.failed += len(answers)
        return win


# ---------------------------------------------------------------------- #
# bulk-warm
# ---------------------------------------------------------------------- #


class BulkWarm(_ColdBibNet):
    """``ColumnCache.warm`` over distinct nodes, 64 per call, evicting.

    Runs on BibNet-2200, like the other closed loops: at width 64 the
    iterate (2.4 MB) is still larger than the 2 MB L2, and a call takes a
    fifth of a second, so one run holds dozens of calls.
    """

    name = "bulk-warm"
    nominal_rate = 5.0

    def __init__(self, tiny: bool) -> None:
        super().__init__(tiny)
        self.chunk = 8 if tiny else 64
        #: Chunks in the fixed pool: a pass takes under 2 s, so a 25 s run
        #: takes each chunk's median over eight or more passes.
        self.pool_chunks = 3 if tiny else 8
        #: Budget in columns: the F and T columns of two chunks, against a
        #: working set of the whole pool, so the cache evicts from chunk
        #: three on and every chunk of a later pass misses again.
        self.budget_columns = 4 * self.chunk

    def start(self, bib):
        graph = bib.graph
        cache = ColumnCache(max_bytes=self.budget_columns * graph.n_nodes * 8)
        cache.warm(graph, [self.warmup_node(bib)])
        return cache

    def stop(self, server) -> None:
        server.clear()

    def inputs(self, bib, seed, seconds):
        warm = self.warmup_node(bib)
        nodes = np.random.default_rng(POOL_SEED).permutation(bib.graph.n_nodes)
        nodes = [int(v) for v in nodes if v != warm][: self.pool_chunks * self.chunk]
        chunks = [nodes[i : i + self.chunk] for i in range(0, len(nodes), self.chunk)]
        return [chunks[j] for j in np.random.default_rng(seed).permutation(len(chunks))]

    def window(self, bib, inputs, *, seconds, count, checks, tracer=None) -> Window:
        graph = bib.graph
        cache = self.start(bib)
        before = stats_counts(cache)

        def warm(chunk):
            inserted = cache.cache_info().inserts
            cache.warm(graph, chunk)
            if cache.cache_info().inserts - inserted != 2 * len(chunk):
                raise RuntimeError("warm() did not store an F and a T column per node")
            return None

        def columns(chunk, _out):
            # Read back while still resident (the budget keeps two chunks).
            if not checks:
                return None
            return {
                (kind, node): np.array(cache.get(graph, kind, node))
                for node in chunk[:4]
                for kind in ("f", "t")
            }

        with tracing(tracer) as tag:
            win, kept = closed_loop(
                inputs,
                warm,
                seconds=seconds,
                count=count,
                tag=tag,
                check_every=8,
                capture=columns,
            )
        add_delta(win.counts, stats_counts(cache), before)
        inserts = win.counts["cache.inserts"]
        win.extra["columns_per_s"] = inserts / win.elapsed if win.elapsed else 0.0
        if checks:
            alpha = cache.alpha
            operators = {"f": get_operator(graph, True), "t": get_operator(graph, False)}
            for _chunk, cols in kept.values():
                for (kind, node), column in cols.items():
                    residual = (1.0 - alpha) * operators[kind].matvec(column) - column
                    residual[node] += alpha
                    if not float(np.abs(residual).sum()) < RESIDUAL_TOL:
                        win.failed += 1
        self.stop(cache)
        return win

    def provenance(self, bib, seconds):
        return {"chunk": self.chunk, "budget_columns": self.budget_columns}


WORKLOADS = {
    w.name: w for w in (ZipfGateway, ColdTopKLocal, BulkWarm, TwoSBoundCold)
}
