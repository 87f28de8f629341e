"""Time column shards on threads against the sequential solve, by batch width.

For each width, every round solves F-Rank plus T-Rank of that many fresh
random nodes three or more ways, in rotating order: sequentially
(``workers=None``) and on 2 and 4 threads forced onto the shards
(:func:`repro.parallel.solve_columns_parallel`, which skips the
crossover), with ``method="auto"`` and the operators warm.  It prints the
median [quartiles] in ms, the rounds each thread count beat the
sequential solve in, and what :func:`repro.parallel.effective_workers`
picks at that width, so the crossover can be checked against the timings::

    PYTHONPATH=src python benchmarks/workers_crossover.py
    PYTHONPATH=src python benchmarks/workers_crossover.py --papers 14000 --authors 4500 \\
        --seed 42 --widths 8 12 64 --rounds 8

The defaults build BibNet-2200, the ledger's graph; the second line builds
the 29,846-node paper-scale BibNet.  Not part of CI: wall-clock speedups
depend on the host's free cores.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.core.queries import normalize_query
from repro.datasets import BibNetConfig, generate_bibnet
from repro.engine import frank_batch, trank_batch
from repro.parallel import effective_workers, solve_columns_parallel


def _solve(graph, nodes, workers):
    """F plus T of ``nodes``; ``workers=None`` is the sequential path."""
    if workers is None:
        frank_batch(graph, nodes)
        trank_batch(graph, nodes)
        return
    parsed = [normalize_query(graph, node) for node in nodes]
    for transpose in (True, False):
        solve_columns_parallel(graph, parsed, transpose, 0.25, 1e-12, 1000, "auto", workers)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--papers", type=int, default=2200)
    parser.add_argument("--authors", type=int, default=740)
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--widths", type=int, nargs="+", default=[4, 8, 12, 16, 64])
    parser.add_argument("--workers", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args()

    graph = generate_bibnet(
        BibNetConfig(n_papers=args.papers, n_authors=args.authors, seed=args.seed)
    ).graph
    warm = list(range(64))
    for workers in (None, *args.workers):
        _solve(graph, warm, workers)  # operators, float32 variants, damped copies
    legs = [None, *args.workers]
    print(f"{graph.n_nodes} nodes, F+T, method='auto', {args.rounds} rounds, ms")
    for width in args.widths:
        times: "dict[int | None, list[float]]" = {leg: [] for leg in legs}
        for r in range(args.rounds):
            rng = np.random.default_rng(10_000 * width + r)
            nodes = [int(v) for v in rng.choice(graph.n_nodes, size=width, replace=False)]
            for leg in legs[r % len(legs):] + legs[: r % len(legs)]:
                started = time.perf_counter()
                _solve(graph, nodes, leg)
                times[leg].append((time.perf_counter() - started) * 1e3)
        row = [f"{width:>3} cols"]
        for leg, runs in times.items():
            q1, median, q3 = statistics.quantiles(runs, n=4)
            label = "sequential" if leg is None else f"{leg} threads"
            cell = f"{label} {median:.1f} [{q1:.1f}, {q3:.1f}]"
            if leg is not None:
                wins = sum(t < s for t, s in zip(runs, times[None]))
                picked = effective_workers(width, leg) or "sequential"
                cell += f" faster in {wins}/{args.rounds}, crossover picks {picked}"
            row.append(cell)
        print(" | ".join(row), flush=True)


if __name__ == "__main__":
    main()
