"""Shared infrastructure for the per-figure benchmarks.

Every bench regenerates one table or figure of the paper; the rendered
table is written to ``benchmarks/results/<name>.txt`` *and* printed, so it
survives pytest's output capture.  Scale is controlled by the
``REPRO_BENCH_SCALE`` environment variable:

- ``small`` (default): minutes-scale run on a laptop;
- ``paper``: larger graphs and more queries (tens of minutes), closer to
  the paper's statistical power.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


@dataclass(frozen=True)
class BenchScale:
    """All size knobs of the benchmark suite in one place."""

    name: str
    # effectiveness (Fig. 5, 8, 9, 10)
    eval_papers: int
    eval_authors: int
    eval_concepts: int
    test_queries: int
    dev_queries: int
    # efficiency (Fig. 11)
    full_papers: int
    full_authors: int
    efficiency_queries: int
    # scalability (Fig. 12-13)
    snapshot_papers: int
    snapshot_authors: int
    snapshot_queries: int


SCALES = {
    "small": BenchScale(
        name="small",
        eval_papers=1400,
        eval_authors=500,
        eval_concepts=350,
        test_queries=40,
        dev_queries=30,
        full_papers=14000,
        full_authors=4500,
        efficiency_queries=10,
        snapshot_papers=12000,
        snapshot_authors=3800,
        snapshot_queries=25,
    ),
    "paper": BenchScale(
        name="paper",
        eval_papers=4000,
        eval_authors=1400,
        eval_concepts=900,
        test_queries=150,
        dev_queries=100,
        full_papers=24000,
        full_authors=7500,
        efficiency_queries=40,
        snapshot_papers=30000,
        snapshot_authors=9500,
        snapshot_queries=80,
    ),
}


def bench_scale() -> BenchScale:
    """The active scale, selected by ``REPRO_BENCH_SCALE``."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    if name not in SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}, got {name!r}"
        )
    return SCALES[name]


def report(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/ and print it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}] -> {path}")
    print(text)

