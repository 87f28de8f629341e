"""Run one ledger workload and print its metrics as the last stdout line.

Usage, from the repository root::

    python3 perfbench/run.py --workload zipf-gateway --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
untraced.  ``--trace 1`` prints the per-layer metrics: it runs a fixed
number of requests untraced, then the same requests again with the layer
entry points wrapped (see ``trace.py``), and writes the spans to
``--out`` (default ``.perfbench/``) at exit.  ``--tiny`` swaps in toy-sized
graphs for the benchmark's own tests.

The program under test is imported from ``src/`` beside this directory,
after dropping every ``REPRO_*`` environment variable so that the run uses
the default configuration.  Without ``src/`` the run exits with an error
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
#: Set-ups per run: at least ``SETUP_REPS``, more while they are cheap.
SETUP_REPS = 3
SETUP_MAX_REPS = 9
SETUP_CHEAP_S = 3.0
#: Calibration jobs run before each set-up, and again after it.
SETUP_SAMPLES = 5


def layer_units() -> "dict[str, str]":
    """Per-layer metric name -> unit, from ``BENCHMARK.json``."""
    per_layer = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]
    return {m["name"]: m["unit"] for m in per_layer}


def _import_program() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def lower_quartile(values: "list[float]") -> float:
    """The ``len // 4``-th smallest value: the minimum of up to 7 values."""
    return sorted(values)[len(values) // 4]


def measure_setup(workload, reps: int = SETUP_REPS, max_reps: int = SETUP_MAX_REPS):
    """Build and start several times; lower quartile of each part.

    Sets up ``reps`` times, and again (up to ``max_reps``) while all
    set-ups so far took less than ``SETUP_CHEAP_S``.  Each set-up is
    calibrated by the median factor of ``SETUP_SAMPLES`` calibration jobs
    run before it and as many after it (see ``calibrate.py``), and the
    lower quartile keeps a slow stretch of the host during one set-up out
    of the figure.  Returns ``(data, setup_s, graph_s, first_query_ms)``; ``data`` is the
    last build, which the measured loops run on.
    """
    from perfbench.calibrate import Calibrator

    calibrator = Calibrator()
    raw, totals, graphs, firsts = [], [], [], []
    data = None
    while len(raw) < reps or (len(raw) < max_reps and sum(raw) < SETUP_CHEAP_S):
        data = None  # let the previous build go before timing the next
        factors = [calibrator.factor() for _ in range(SETUP_SAMPLES)]
        t0 = time.perf_counter()
        data = workload.build()
        t1 = time.perf_counter()
        server = workload.start(data)
        t2 = time.perf_counter()
        workload.stop(server)
        factors += [calibrator.factor() for _ in range(SETUP_SAMPLES)]
        factor = statistics.median(factors)
        raw.append(t2 - t0)
        totals.append(factor * (t2 - t0))
        graphs.append(factor * (t1 - t0))
        firsts.append(factor * 1e3 * (t2 - t1))
    return data, lower_quartile(totals), lower_quartile(graphs), lower_quartile(firsts)


def typical_ms(win, q: float) -> float:
    """``q``-th percentile of the window's typical latencies, in ms."""
    return 1e3 * _percentile(win.typical(), q)


def end_to_end(workload, data, inputs, seconds: float, setup_s: float):
    win = workload.window(data, inputs, seconds=seconds, count=None, checks=True)
    metrics = {
        "setup_s": (setup_s, "s"),
        "p50_ms": (typical_ms(win, 50), "ms"),
        "p99_ms": (typical_ms(win, 99), "ms"),
        "qps": (win.rate(), "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    extra = dict(
        win.extra,
        fail_frac=win.failed / max(1, win.attempted),
        completed=len(win.latencies),
        passes=win.n_passes,
    )
    return win, metrics, extra


def per_layer(workload, data, inputs, seconds: float, graph_s: float, first_ms: float):
    from perfbench.trace import Tracer, layer_metrics

    count = workload.trace_count(inputs, seconds)
    plain = workload.window(data, inputs, seconds=None, count=count, checks=True)
    tracer = Tracer()
    traced = workload.window(data, inputs, seconds=None, count=count, checks=False, tracer=tracer)
    # An untraced window on each side of the traced one: the first window
    # of a process runs slower, which alone read as negative overhead.
    after = workload.window(data, inputs, seconds=None, count=count, checks=False)
    plain.attempted += after.attempted
    plain.failed += after.failed
    plain_p50 = (typical_ms(plain, 50) + typical_ms(after, 50)) / 2
    traced_p50 = typical_ms(traced, 50)
    counts = {
        "gateway.admitted": 0,
        "gateway.shed": 0,
        "cache.hits": 0,
        "cache.misses": 0,
        "cache.inserts": 0,
        "cache.evictions": 0,
        **traced.counts,
    }
    lookups = counts["cache.hits"] + counts["cache.misses"]
    values = {
        **counts,
        "cache.hit_rate": counts["cache.hits"] / lookups if lookups else 0.0,
        **layer_metrics(tracer, traced.attempted),
        "setup.graph_s": graph_s,
        "setup.first_query_ms": first_ms,
        "trace.overhead_frac": traced_p50 / plain_p50 - 1.0 if plain_p50 else 0.0,
    }
    extra = {"requests": count, "untraced_failed": plain.failed}
    return plain, traced, tracer, values, extra


def provenance(workload, data, args) -> dict:
    import numpy as np
    import scipy

    from repro.ops.kernels import active_kernel
    from repro.parallel.rows import active_route

    graph = data.graph
    route = active_route()
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel": active_kernel().name,
        "route": None if route is None else route.reason or f"{route.shards} shards",
        "graph_nodes": graph.n_nodes,
        "graph_nnz": int(graph.transition.nnz),
        **workload.provenance(data, args.seconds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench")
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.tiny)
    # A tiny run checks the benchmark itself; one set-up is enough there.
    data, setup_s, graph_s, first_ms = measure_setup(workload, *((1, 1) if args.tiny else ()))
    inputs = workload.inputs(data, args.seed, args.seconds)
    if args.trace:
        plain, traced, tracer, values, extra = per_layer(
            workload, data, inputs, args.seconds, graph_s, first_ms
        )
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        units = layer_units()
        metrics = {name: (values[name], unit) for name, unit in units.items()}
        args.out.mkdir(parents=True, exist_ok=True)
        tracer.dump(args.out / f"spans-{workload.name}-seed{args.seed}.jsonl")
    else:
        win, metrics, extra = end_to_end(workload, data, inputs, args.seconds, setup_s)
        attempted, failed = win.attempted, win.failed
    print(json.dumps({"provenance": provenance(workload, data, args), "extra": extra}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
