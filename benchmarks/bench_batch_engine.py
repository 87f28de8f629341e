"""Batch engine throughput: sequential single-query solves vs one batch.

F-Rank queries/sec — ``q`` sequential ``frank_vector`` solves against a
single ``frank_batch`` call with ``q`` columns (one multi-column sparse power
iteration); columns are checked to match the single-query results to 1e-10
so the speedup is never bought with accuracy.

``REPRO_BENCH_BATCH_SMOKE=1`` switches to the Fig. 2 toy graph with small
counts (the CI smoke configuration); the default is the
effectiveness-scale synthetic BibNet.
"""

from __future__ import annotations

import os

import numpy as np

from benchmarks.common import report, report_json
from repro.core.frank import frank_vector
from repro.datasets import BibNetConfig, generate_bibnet, toy_bibliographic_graph
from repro.engine import frank_batch
from repro.utils.timer import Timer


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_BATCH_SMOKE", "") == "1"


def _setup():
    """(graph, n_queries) for the active mode."""
    if _smoke():
        return toy_bibliographic_graph(), 8
    graph = generate_bibnet(BibNetConfig(n_papers=1400, n_authors=500, seed=13)).graph
    return graph, 64


def run_batch_engine(graph, n_queries) -> "tuple[str, dict]":
    rng = np.random.default_rng(17)
    queries = [int(q) for q in rng.choice(graph.n_nodes, size=n_queries, replace=False)]
    lines = [
        "Batch engine throughput (single-query loop vs one batch)",
        f"graph: {graph.n_nodes} nodes / {graph.n_edges} arcs; "
        f"{n_queries}-query batch; mode: {'smoke' if _smoke() else 'full'}",
        "",
        "F-Rank: sequential frank_vector vs one frank_batch",
    ]

    # Warm both paths once (page-faults, operator caches) so the timed lap
    # measures steady-state serving throughput.
    frank_vector(graph, queries[0])
    frank_batch(graph, queries[: min(4, n_queries)])

    with Timer() as t_seq:
        singles = [frank_vector(graph, q) for q in queries]
    with Timer() as t_batch:
        batched = frank_batch(graph, queries)
    parity = max(
        float(np.abs(batched[:, j] - single).max()) for j, single in enumerate(singles)
    )
    assert parity < 1e-10, f"batch/single divergence {parity:.3e}"
    seq_qps = n_queries / (t_seq.elapsed_ms / 1000.0)
    batch_qps = n_queries / (t_batch.elapsed_ms / 1000.0)
    batch_speedup = batch_qps / seq_qps
    lines.append(f"  sequential: {t_seq.elapsed_ms:9.1f} ms  ({seq_qps:9.1f} queries/s)")
    lines.append(f"  batched:    {t_batch.elapsed_ms:9.1f} ms  ({batch_qps:9.1f} queries/s)")
    lines.append(f"  speedup:    {batch_speedup:9.2f}x   (column parity {parity:.1e})")

    if not _smoke():
        assert batch_speedup >= 5.0, f"batch speedup {batch_speedup:.2f}x < 5x"
        lines.append("")
        lines.append("acceptance: batch >= 5x holds")
    metrics = {
        "mode": "smoke" if _smoke() else "full",
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "n_queries": n_queries,
        "sequential_ms": t_seq.elapsed_ms,
        "batched_ms": t_batch.elapsed_ms,
        "batch_speedup": batch_speedup,
        "column_parity_max_abs": parity,
    }
    return "\n".join(lines), metrics


def test_bench_batch_engine(benchmark):
    graph, n_queries = _setup()
    text, metrics = benchmark.pedantic(
        run_batch_engine,
        args=(graph, n_queries),
        rounds=1,
        iterations=1,
    )
    report("batch_engine", text)
    report_json("batch_engine", metrics)
