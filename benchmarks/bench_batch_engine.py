"""Batch engine throughput: sequential single-query paths vs the engine.

Two comparisons:

(a) F-Rank queries/sec — ``q`` sequential ``frank_vector`` solves against a
    single ``frank_batch`` call with ``q`` columns (one multi-column sparse
    power iteration); columns are checked to match the single-query results
    to 1e-10 so the speedup is never bought with accuracy.
(b) Monte Carlo walks/sec — the loop path (one ``rng.choice`` per step, as
    ``walk_steps`` does) against the vectorized :class:`WalkEngine`; both
    estimate the same F-Rank distribution with equal sample counts and the
    max-abs errors are reported side by side.

``REPRO_BENCH_BATCH_SMOKE=1`` switches to the Fig. 2 toy graph with small
counts (the CI smoke configuration); the default is the
effectiveness-scale synthetic BibNet.
"""

from __future__ import annotations

import os

import numpy as np

from benchmarks.common import report, report_json
from repro.core.frank import frank_vector
from repro.core.montecarlo import sample_geometric_length, walk_steps
from repro.datasets import BibNetConfig, generate_bibnet, toy_bibliographic_graph
from repro.engine import WalkEngine, frank_batch
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_BATCH_SMOKE", "") == "1"


def _setup():
    """(graph, n_queries, n_loop_walks, n_vec_walks) for the active mode."""
    if _smoke():
        return toy_bibliographic_graph(), 8, 2000, 20000
    graph = generate_bibnet(BibNetConfig(n_papers=1400, n_authors=500, seed=13)).graph
    return graph, 64, 3000, 300000


def run_batch_engine(graph, n_queries, n_loop_walks, n_vec_walks) -> "tuple[str, dict]":
    rng = np.random.default_rng(17)
    queries = [int(q) for q in rng.choice(graph.n_nodes, size=n_queries, replace=False)]
    lines = [
        "Batch engine throughput (single-query loop vs batched/vectorized)",
        f"graph: {graph.n_nodes} nodes / {graph.n_edges} arcs; "
        f"{n_queries}-query batch; mode: {'smoke' if _smoke() else 'full'}",
        "",
        "(a) F-Rank: sequential frank_vector vs one frank_batch",
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

    lines.append("")
    lines.append("(b) Monte Carlo sampling: loop walk_steps vs WalkEngine")
    alpha = 0.25
    query = queries[0]
    exact = frank_vector(graph, query, alpha)

    loop_rng = ensure_rng(101)
    loop_counts = np.zeros(graph.n_nodes)
    with Timer() as t_loop:
        for _ in range(n_loop_walks):
            length = sample_geometric_length(alpha, loop_rng)
            loop_counts[walk_steps(graph, query, length, loop_rng)[-1]] += 1
    loop_err = float(np.abs(loop_counts / n_loop_walks - exact).max())
    loop_wps = n_loop_walks / (t_loop.elapsed_ms / 1000.0)

    engine = WalkEngine(graph)
    vec_rng = ensure_rng(102)
    with Timer() as t_vec:
        terminals = engine.sample_trip_terminals(query, alpha, n_vec_walks, vec_rng)
    vec_wps = n_vec_walks / (t_vec.elapsed_ms / 1000.0)
    # Accuracy at equal sample counts: reuse the first n_loop_walks walks.
    vec_err = float(
        np.abs(
            np.bincount(terminals[:n_loop_walks], minlength=graph.n_nodes)
            / n_loop_walks
            - exact
        ).max()
    )
    walk_speedup = vec_wps / loop_wps
    lines.append(
        f"  loop:       {n_loop_walks:8d} walks in {t_loop.elapsed_ms:9.1f} ms  "
        f"({loop_wps:11.0f} walks/s, max err {loop_err:.4f})"
    )
    lines.append(
        f"  vectorized: {n_vec_walks:8d} walks in {t_vec.elapsed_ms:9.1f} ms  "
        f"({vec_wps:11.0f} walks/s, max err {vec_err:.4f} at {n_loop_walks} walks)"
    )
    lines.append(f"  speedup:    {walk_speedup:9.2f}x")

    if not _smoke():
        assert batch_speedup >= 5.0, f"batch speedup {batch_speedup:.2f}x < 5x"
        assert walk_speedup >= 10.0, f"walk speedup {walk_speedup:.2f}x < 10x"
        lines.append("")
        lines.append("acceptance: batch >= 5x and walks >= 10x — both hold")
    metrics = {
        "mode": "smoke" if _smoke() else "full",
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "n_queries": n_queries,
        "sequential_ms": t_seq.elapsed_ms,
        "batched_ms": t_batch.elapsed_ms,
        "batch_speedup": batch_speedup,
        "column_parity_max_abs": parity,
        "loop_walks_per_s": loop_wps,
        "vectorized_walks_per_s": vec_wps,
        "walk_speedup": walk_speedup,
    }
    return "\n".join(lines), metrics


def test_bench_batch_engine(benchmark):
    graph, n_queries, n_loop_walks, n_vec_walks = _setup()
    text, metrics = benchmark.pedantic(
        run_batch_engine,
        args=(graph, n_queries, n_loop_walks, n_vec_walks),
        rounds=1,
        iterations=1,
    )
    report("batch_engine", text)
    report_json("batch_engine", metrics)
