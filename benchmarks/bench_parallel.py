"""Parallel batch solver: walltime vs worker count, with parity checks.

Three ways to solve the same ``q``-query F-Rank workload, timed on one
graph:

(a) the *sequential path* — ``q`` independent ``frank_vector`` solves (what
    serving looked like before the batch engine);
(b) the single-process batch engine — one multi-column solve
    (``frank_batch``, the PR-1 amortization);
(c) the sharded pool — ``frank_batch(..., workers=N)`` for each measured
    worker count: columns striped over N processes against the
    shared-memory operator.

Parity is asserted before any timing is reported: ``method="power"`` shards
must match the single-process batch bit for bit, and the ``method="auto"``
columns must agree to 1e-10, so no speedup is ever bought with accuracy.

Pool startup (process spawn + numpy import) and operator publication are
warmed before the timed laps — steady-state serving reuses both, so the
laps measure the per-batch cost, not one-time setup.  Results land in
``benchmarks/results/parallel.{txt,json}`` and feed ``ci_smoke.json``.

``REPRO_BENCH_PARALLEL_SMOKE=1`` switches to the toy graph with
``workers=2`` (the CI smoke leg); the default measures the
effectiveness-scale BibNet at ``workers`` in {2, 4}.  The acceptance gate
(full mode only) requires the ``workers=4`` sharded solve to beat the
sequential path by >= 2.5x; the sharded-vs-batch ratio is recorded too —
on a single-core host it sits near or below 1.0 (the shards time-slice one
CPU), which the report states rather than hides.
"""

from __future__ import annotations

import os

import numpy as np

from benchmarks.common import report, report_json
from repro.core.frank import frank_vector
from repro.datasets import BibNetConfig, generate_bibnet, toy_bibliographic_graph
from repro.engine import frank_batch
from repro.parallel import effective_workers, get_pool
from repro.utils.timer import Timer


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_PARALLEL_SMOKE", "") == "1"


def _setup():
    """(graph, n_queries, worker_counts) for the active mode."""
    if _smoke():
        return toy_bibliographic_graph(), 12, (2,)
    graph = generate_bibnet(BibNetConfig(n_papers=1400, n_authors=500, seed=13)).graph
    return graph, 64, (2, 4)


def run_parallel(graph, n_queries, worker_counts) -> "tuple[str, dict]":
    rng = np.random.default_rng(17)
    queries = [int(q) for q in rng.choice(graph.n_nodes, size=n_queries, replace=False)]
    max_workers = max(worker_counts)
    assert effective_workers(n_queries, max_workers) == max_workers, (
        "bench batch below the crossover: the parallel path would not engage"
    )

    lines = [
        "Parallel batch solver walltime vs workers (shared-memory shards)",
        f"graph: {graph.n_nodes} nodes / {graph.n_edges} arcs; "
        f"{n_queries}-query batch; cpus: {os.cpu_count()}; "
        f"mode: {'smoke' if _smoke() else 'full'}",
        "",
    ]

    # Warm every path: page faults, operator caches, segment publication and
    # the worker processes themselves (spawn + numpy import is one-time).
    frank_vector(graph, queries[0])
    frank_batch(graph, queries[: min(4, n_queries)])
    get_pool(max_workers)
    for workers in worker_counts:
        frank_batch(graph, queries, workers=workers)

    # Parity first: no timing without correctness.
    power_batch = frank_batch(graph, queries, method="power")
    power_shard = frank_batch(graph, queries, method="power", workers=max_workers)
    assert np.array_equal(power_batch, power_shard), "power shards must be bit-exact"
    auto_parity = float(
        np.abs(
            frank_batch(graph, queries)
            - frank_batch(graph, queries, workers=max_workers)
        ).max()
    )
    assert auto_parity < 1e-10, f"auto shard divergence {auto_parity:.3e}"

    with Timer() as t_seq:
        for q in queries:
            frank_vector(graph, q)
    with Timer() as t_batch:
        frank_batch(graph, queries)
    shard_ms = {}
    for workers in worker_counts:
        with Timer() as t_shard:
            frank_batch(graph, queries, workers=workers)
        shard_ms[workers] = t_shard.elapsed_ms

    lines.append(f"  sequential single-query: {t_seq.elapsed_ms:9.1f} ms")
    lines.append(f"  batch, one process:      {t_batch.elapsed_ms:9.1f} ms")
    for workers, ms in shard_ms.items():
        lines.append(
            f"  batch, workers={workers}:        {ms:9.1f} ms  "
            f"({t_seq.elapsed_ms / ms:5.2f}x vs sequential, "
            f"{t_batch.elapsed_ms / ms:5.2f}x vs one-process batch)"
        )

    best = max(worker_counts)
    speedup_vs_sequential = t_seq.elapsed_ms / shard_ms[best]
    speedup_vs_batch = t_batch.elapsed_ms / shard_ms[best]
    lines.append("")
    lines.append(
        f"  at workers={best}: {speedup_vs_sequential:.2f}x vs the sequential path, "
        f"{speedup_vs_batch:.2f}x vs the single-process batch "
        f"(power parity bit-exact, auto parity {auto_parity:.1e})"
    )
    if os.cpu_count() == 1:
        lines.append(
            "  note: single-CPU host — shards time-slice one core, so the "
            "vs-batch ratio reflects dispatch overhead, not parallel scaling"
        )
    if not _smoke():
        assert speedup_vs_sequential >= 2.5, (
            f"workers={best} speedup {speedup_vs_sequential:.2f}x < 2.5x vs sequential"
        )
        lines.append("acceptance: workers=4 >= 2.5x vs the sequential path — holds")

    metrics = {
        "mode": "smoke" if _smoke() else "full",
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "n_queries": n_queries,
        "cpus": os.cpu_count(),
        "sequential_ms": t_seq.elapsed_ms,
        "batch_one_process_ms": t_batch.elapsed_ms,
        "shard_ms": {str(w): ms for w, ms in shard_ms.items()},
        "speedup_vs_sequential": speedup_vs_sequential,
        "speedup_vs_batch": speedup_vs_batch,
        "auto_parity_max_abs": auto_parity,
    }
    return "\n".join(lines), metrics


def test_bench_parallel(benchmark):
    graph, n_queries, worker_counts = _setup()
    text, metrics = benchmark.pedantic(
        run_parallel,
        args=(graph, n_queries, worker_counts),
        rounds=1,
        iterations=1,
    )
    report("parallel", text)
    report_json("parallel", metrics)
