"""Serving-layer benchmark: column cache, micro-batcher, top-k selection.

A Zipf-distributed query stream (``s = 1.1``, the skew of real search logs;
see :func:`repro.datasets.sample_zipf_queries`) is served two ways on the
same graph:

(a) **cold** — every query runs its own F/T solves and a full-vector sort,
    exactly what callers did before the serving layer existed;
(b) **warm** — queries go through a :class:`repro.serving.ColumnCache` and
    the fused :func:`repro.serving.topk_select`; repeated queries hit cached
    columns, so the median query cost collapses to a vector product plus a
    partial selection.

Median per-query latency must improve by >= 3x (asserted), and the cache
hit-rate is reported against the stream's repetition rate.  A second section
measures micro-batch assembly (:class:`repro.serving.MicroBatcher`) against
sequential single-query solves on the cache-miss (distinct-query) workload,
and a third verifies top-k parity: :func:`repro.serving.topk_select` over the
full RoundTripRank vector must equal the full-vector stable ranking on the
Fig. 2 toy graph and on the query-log graph (asserted, k = 20).

``REPRO_BENCH_SERVING_SMOKE=1`` selects the small CI configuration.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.common import report, report_json
from repro.core.frank import frank_vector
from repro.core.trank import trank_vector
from repro.datasets import QLogConfig, generate_qlog, sample_zipf_queries, toy_bibliographic_graph
from repro.engine import roundtriprank_batch
from repro.serving import ColumnCache, MicroBatcher, topk_select

K = 20
ZIPF_S = 1.1


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SERVING_SMOKE", "") == "1"


def _setup():
    """(graph, population, n_queries) for the active mode."""
    if _smoke():
        qlog = generate_qlog(QLogConfig(n_concepts=60, seed=13))
        return qlog.graph, qlog.phrase_nodes, 150
    qlog = generate_qlog(QLogConfig(n_concepts=500, seed=13))
    return qlog.graph, qlog.phrase_nodes, 600


def _serve_cold(graph, query: int, alpha: float):
    """The pre-serving-layer path: two fresh solves, full-vector sort."""
    f = frank_vector(graph, query, alpha)
    t = trank_vector(graph, query, alpha)
    scores = f * t
    total = scores.sum()
    if total > 0:
        scores = scores / total
    order = np.argsort(-scores, kind="stable")[:K]
    return order, scores[order]


def _serve_warm(cache: ColumnCache, graph, query: int, alpha: float):
    """The serving-layer path: cached columns + fused partial selection."""
    f = cache.get(graph, "f", query, alpha)
    t = cache.get(graph, "t", query, alpha)
    scores = f * t
    total = scores.sum()
    if total > 0:
        scores = scores / total
    return topk_select(scores, K)


def _latencies(serve, stream) -> np.ndarray:
    out = np.empty(len(stream))
    for i, q in enumerate(stream):
        start = time.perf_counter()
        serve(int(q))
        out[i] = time.perf_counter() - start
    return out * 1000.0  # ms


def run_serving(graph, population, n_queries) -> "tuple[str, dict]":
    alpha = 0.25
    stream = sample_zipf_queries(population, n_queries, s=ZIPF_S, seed=23)
    n_distinct = int(np.unique(stream).size)
    lines = [
        "Serving layer: LRU column cache + micro-batching + fused top-k",
        f"graph: {graph.n_nodes} nodes / {graph.n_edges} arcs; "
        f"{n_queries} Zipf(s={ZIPF_S}) queries over {population.size} phrases "
        f"({n_distinct} distinct); mode: {'smoke' if _smoke() else 'full'}",
        "",
        f"(a) repeated-query latency, cold per-query solves vs warm ColumnCache (k={K})",
    ]

    # Warm the operator caches (not the column cache) so both paths time
    # steady-state sweeps rather than first-touch CSR preparation.
    _serve_cold(graph, int(stream[0]), alpha)
    roundtriprank_batch(graph, [int(stream[0])], alpha)

    cold_ms = _latencies(lambda q: _serve_cold(graph, q, alpha), stream)
    cache = ColumnCache(alpha=alpha)
    warm_ms = _latencies(lambda q: _serve_warm(cache, graph, q, alpha), stream)
    info = cache.cache_info()
    cold_median = float(np.median(cold_ms))
    warm_median = float(np.median(warm_ms))
    speedup = cold_median / warm_median
    lines.append(
        f"  cold: median {cold_median:8.3f} ms/query  (p90 {np.percentile(cold_ms, 90):8.3f} ms)"
    )
    lines.append(
        f"  warm: median {warm_median:8.3f} ms/query  (p90 {np.percentile(warm_ms, 90):8.3f} ms)"
    )
    lines.append(
        f"  median speedup: {speedup:6.1f}x   cache hit-rate {info.hit_rate:.1%} "
        f"({info.hits} hits / {info.misses} misses, {info.current_bytes} bytes)"
    )
    assert speedup >= 3.0, f"warm-cache median speedup {speedup:.2f}x < 3x"

    # Correctness spot-check: warm top-k score profiles must match the cold
    # path's (value-wise; index parity under one shared solve is section c —
    # cold runs the bit-exact power method, warm the verified auto method,
    # so exact ties may permute between them).
    for q in np.unique(stream)[:25]:
        _, cold_val = _serve_cold(graph, int(q), alpha)
        _, warm_val = _serve_warm(cache, graph, int(q), alpha)
        assert np.allclose(cold_val, warm_val, atol=1e-9), f"score mismatch for query {q}"

    lines.append("")
    lines.append("(b) micro-batch assembly vs sequential solves (distinct queries, no cache)")
    distinct = [int(q) for q in np.unique(stream)[: min(64, n_distinct)]]
    with_timer = time.perf_counter()
    for q in distinct:
        _serve_cold(graph, q, alpha)
    seq_s = time.perf_counter() - with_timer
    batcher = MicroBatcher(graph, max_batch=16, alpha=alpha)
    with_timer = time.perf_counter()
    futures = [batcher.submit(q, k=K) for q in distinct]
    batcher.flush()
    for future in futures:
        future.result()
    batch_s = time.perf_counter() - with_timer
    batch_speedup = seq_s / batch_s
    seq_qps = len(distinct) / seq_s
    batch_qps = len(distinct) / batch_s
    lines.append(f"  sequential: {seq_s * 1000.0:9.1f} ms  ({seq_qps:9.1f} queries/s)")
    lines.append(f"  batched:    {batch_s * 1000.0:9.1f} ms  ({batch_qps:9.1f} queries/s)")
    lines.append(
        f"  speedup:    {batch_speedup:9.2f}x  "
        f"({batcher.stats.n_flushes} flushes, mean batch {batcher.stats.mean_batch_size:.1f})"
    )

    lines.append("")
    lines.append(f"(c) top-k selection parity vs full-vector ranking (k={K})")
    toy = toy_bibliographic_graph()
    toy_ok = True
    for q in range(toy.n_nodes):
        full = roundtriprank_batch(toy, [q])[:, 0]
        idx, _ = topk_select(full, K)
        toy_ok &= np.array_equal(idx, np.argsort(-full, kind="stable")[:K])
    assert toy_ok, "top-k selection diverged from full ranking on the toy graph"
    qlog_ok = True
    for q in distinct[:10]:
        full = roundtriprank_batch(graph, [q])[:, 0]
        idx, _ = topk_select(full, K)
        qlog_ok &= np.array_equal(idx, np.argsort(-full, kind="stable")[:K])
    assert qlog_ok, "top-k selection diverged from full ranking on the query-log graph"
    lines.append(
        f"  toy graph (all {toy.n_nodes} queries): identical; "
        f"query-log graph (10 queries): identical"
    )
    lines.append("")
    lines.append("acceptance: warm-cache median speedup >= 3x and top-k parity — both hold")

    metrics = {
        "mode": "smoke" if _smoke() else "full",
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "n_queries": int(n_queries),
        "n_distinct_queries": n_distinct,
        "zipf_s": ZIPF_S,
        "k": K,
        "cold_median_ms": cold_median,
        "warm_median_ms": warm_median,
        "median_speedup": speedup,
        "cache_hit_rate": info.hit_rate,
        "cache_bytes": info.current_bytes,
        "microbatch_speedup": batch_speedup,
        "topk_parity": bool(toy_ok and qlog_ok),
    }
    return "\n".join(lines), metrics


def test_bench_serving(benchmark):
    graph, population, n_queries = _setup()
    text, metrics = benchmark.pedantic(
        run_serving, args=(graph, population, n_queries), rounds=1, iterations=1
    )
    report("serving", text)
    report_json("serving", metrics)
