"""Ablations beyond the paper's figures.

1. Expansion granularity m: the paper uses m = 100 (f-side) / m = 5
   (t-side) and reports insensitivity to small changes; we sweep both.
2. Heavy-degree laziness: our implementation adds lazy handling of
   hub-adjacency; we measure its effect on query time and active-set
   size.
"""

import numpy as np

from benchmarks.common import report
from repro.topk import InstrumentedGraphAccess, LocalGraphAccess, twosbound_topk
from repro.utils.timer import Timer


def run_ablation(bibnet_full, queries) -> str:
    graph = bibnet_full.graph
    queries = queries[:8]
    lines = [
        "Ablations — expansion granularity and heavy-node laziness",
        f"graph: {graph.n_nodes} nodes / {graph.n_edges} arcs; eps = 0.01; "
        f"{len(queries)} queries",
        "",
        "(1) expansion granularity sweep (mean ms/query)",
        f"{'m_f':>6s} {'m_t':>5s} {'ms':>9s}",
    ]
    for m_f, m_t in ((25, 5), (100, 1), (100, 5), (100, 20), (400, 5)):
        with Timer() as t:
            for q in queries:
                twosbound_topk(graph, q, 10, epsilon=0.01, m_f=m_f, m_t=m_t)
        marker = "  <- paper setting" if (m_f, m_t) == (100, 5) else ""
        lines.append(f"{m_f:6d} {m_t:5d} {t.elapsed_ms / len(queries):9.1f}{marker}")

    lines.append("")
    lines.append("(2) heavy-degree laziness (mean per query)")
    lines.append(f"{'threshold':>10s} {'ms':>9s} {'active KB':>11s}")
    for threshold in (None, 64, 256, 1024):
        times, actives = [], []
        for q in queries:
            access = InstrumentedGraphAccess(LocalGraphAccess(graph))
            with Timer() as t:
                twosbound_topk(access, q, 10, epsilon=0.01, heavy_degree=threshold)
            times.append(t.elapsed_ms)
            actives.append(access.active_set_bytes)
        label = "off" if threshold is None else str(threshold)
        lines.append(
            f"{label:>10s} {np.mean(times):9.1f} {np.mean(actives) / 1e3:11.1f}"
        )
    lines.append("")
    lines.append("expected: times stable across m (paper: 'not sensitive to")
    lines.append("small changes in m'); laziness shrinks the active set on")
    lines.append("hub-heavy graphs without changing results.")
    return "\n".join(lines)


def test_ablation_m_and_heavy(benchmark, bibnet_full, efficiency_queries):
    text = benchmark.pedantic(
        run_ablation, args=(bibnet_full, efficiency_queries), rounds=1, iterations=1
    )
    report("ablation", text)
