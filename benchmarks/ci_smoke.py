"""CI smoke-benchmark driver: one machine-readable perf record per commit.

Merges the metrics the smoke benchmarks wrote via ``report_json``
(``benchmarks/results/batch_engine.json``, ``serving.json``,
``gateway.json`` and ``obs.json``) into
``benchmarks/results/ci_smoke.json``, which the CI workflow uploads as an
artifact — giving every commit a comparable record of the perf trajectory
(batch speedup, cache hit-rate, warm/cold serving latency, micro-batch
amortization).  Two sections are
computed here: ``twosbound``, the summed work of online 2SBound over a
fixed query set, and ``datasets``, the build time of the ledger's
BibNet-2200 graph.

A missing or non-smoke input is recomputed in its smoke configuration, so
the script also works standalone::

    PYTHONPATH=src python benchmarks/ci_smoke.py
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

os.environ["REPRO_BENCH_BATCH_SMOKE"] = "1"
os.environ["REPRO_BENCH_SERVING_SMOKE"] = "1"
os.environ["REPRO_BENCH_GATEWAY_SMOKE"] = "1"
os.environ["REPRO_BENCH_OBS_SMOKE"] = "1"

from benchmarks.common import RESULTS_DIR  # noqa: E402
from repro.datasets import BibNetConfig, generate_bibnet  # noqa: E402
from repro.topk import twosbound_topk  # noqa: E402
from repro.utils.timer import Timer  # noqa: E402


def _metrics(name: str, rerun) -> dict:
    """Load ``results/<name>.json`` if it holds smoke metrics, else rerun."""
    path = RESULTS_DIR / f"{name}.json"
    if path.exists():
        payload = json.loads(path.read_text())
        if payload.get("mode") == "smoke":
            return payload
    _, metrics = rerun()
    return metrics


def _twosbound() -> dict:
    """2SBound work summed over 20 paper queries on the smoke BibNet.

    No clock and no randomness enter these counts, so they repeat exactly:
    a change to expansion order, border bookkeeping or bound arithmetic
    that alters one decision moves them.
    """
    bib = generate_bibnet(BibNetConfig(n_papers=300, n_authors=120, seed=13))
    results = [
        twosbound_topk(bib.graph, q, 10, epsilon=0.005) for q in bib.paper_nodes[::15].tolist()
    ]
    metrics = {"queries": len(results)}
    for key in ("rounds", "seen_f", "seen_t", "seen_r"):
        metrics[key] = sum(getattr(r, key) for r in results)
    return metrics


def _datasets() -> dict:
    """Best of three builds of BibNet-2200, the BibNet ledger workloads' graph.

    Generating it is most of those workloads' set-up time.  A raw timing,
    so check_regression reports it without gating it.
    """
    config = BibNetConfig(n_papers=2200, n_authors=740, seed=29)
    times = []
    for _ in range(3):
        with Timer() as t:
            generate_bibnet(config)
        times.append(t.elapsed)
    return {"bibnet_2200_s": min(times)}


def main() -> int:
    from benchmarks import (
        bench_batch_engine,
        bench_gateway,
        bench_obs,
        bench_serving,
    )

    payload = {
        "schema": 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "batch_engine": _metrics(
            "batch_engine",
            lambda: bench_batch_engine.run_batch_engine(*bench_batch_engine._setup()),
        ),
        "serving": _metrics(
            "serving", lambda: bench_serving.run_serving(*bench_serving._setup())
        ),
        # The gateway leg records the serving-path health numbers per commit:
        # the byte-LRU hit rate, admission shed rate, queue-depth bound and
        # inline hits, and the local fast path's outcomes and miss speedup.
        "gateway": _metrics(
            "gateway", lambda: bench_gateway.run_gateway(*bench_gateway._setup())
        ),
        # The obs leg prices the PR-10 observability layer: the disabled
        # fast path must stay under 2% of replay walltime (asserted
        # in-bench), the enabled-mode delta is tracked report-only, and the
        # deterministic cache-hit / certified counts are gated exactly.
        "obs": _metrics("obs", lambda: bench_obs.run_obs(*bench_obs._setup())),
        "twosbound": _twosbound(),
        "datasets": _datasets(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "ci_smoke.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[ci_smoke] -> {out}")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
