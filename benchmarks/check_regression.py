"""CI perf-regression gate over the ``ci_smoke.json`` metrics.

Compares the freshly-generated ``benchmarks/results/ci_smoke.json`` against
the committed baseline ``benchmarks/results/ci_smoke_baseline.json`` and
exits non-zero when any gated metric leaves its tolerance band — turning a
perf or quality regression into a red CI job instead of a silently drifting
artifact.

Three kinds of band, chosen per metric:

- ``equal``  — deterministic metrics (replay hit rates, certified/escalated
  counts, shed rate): the value must stay within ``atol + rtol * |base|``
  of the baseline in *both* directions, so an unexplained improvement is as
  loud as a regression (it usually means the workload changed and the
  baseline is stale);
- ``min``    — bigger-is-better metrics (speedups): the value must not drop
  below ``base * (1 - tol) - atol``.  Wall-clock speedups get wide bands —
  CI machines are noisy — while the band still catches a halving;
- ``max``    — smaller-is-better metrics (parity residuals): the value must
  not rise above ``base * (1 + tol) + atol``.

Raw millisecond timings are deliberately *report-only* (printed, never
gated): they scale with the machine, so gating them would flake on every
runner change.  Ratios and counts are machine-portable.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --update-baseline

``--update-baseline`` rewrites the baseline from the current metrics; the
diff of the committed baseline is then the reviewable record of an accepted
perf change.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
CURRENT_PATH = RESULTS_DIR / "ci_smoke.json"
BASELINE_PATH = RESULTS_DIR / "ci_smoke_baseline.json"


@dataclass(frozen=True)
class Check:
    """One gated metric: a dotted path into the payload plus its band."""

    path: str
    mode: str  # "equal" | "min" | "max"
    tol: float = 0.0  # relative band (min/max) or rtol (equal)
    atol: float = 0.0
    gate: bool = True  # report-only when False


CHECKS = (
    # Exactness/parity residuals: these are the project's correctness
    # trajectory; any growth beyond noise is a red flag.
    Check("batch_engine.column_parity_max_abs", "max", atol=1e-9),
    Check("serving.topk_parity", "equal"),
    # Deterministic replay metrics: equality bands (stale baselines and
    # workload drift fail loudly in either direction).
    Check("serving.cache_hit_rate", "equal", atol=0.02),
    Check("gateway.lru_hit_rate", "equal", atol=0.02),
    Check("gateway.shed_rate", "equal", atol=0.02),
    Check("gateway.max_queue_depth", "equal"),
    # Admitted queries whose columns were all cached resolve at submit; on
    # the replay clock, with no evictions, which ones are is deterministic.
    Check("gateway.inline_hits", "equal"),
    # The admission section's lane latencies are read off the same replay
    # clock (ticks, not wall time), so their p99 repeats exactly.
    Check("gateway.lane_p99_ms", "equal", atol=1e-6),
    # The local fast path's certification outcomes are deterministic for a
    # fixed benchmark config (its budget counts sweeps, not wall time), so
    # they are gated exactly: a single certified query turning escalated,
    # or the reverse, is a change in the solver's decisions.
    Check("gateway.n_local_certified", "equal"),
    Check("gateway.n_local_escalated", "equal"),
    # Observability: the bench's replay counters are deterministic (fixed
    # stream, fresh gateway per replay) — drift means serving behavior
    # changed, not the clock.  The overhead percentages ride report-only:
    # the disabled bound is asserted in-bench, and the enabled delta is
    # walltime-noisy on shared runners.
    Check("obs.cache_hits", "equal"),
    Check("obs.n_local_certified", "equal"),
    Check("obs.disabled_overhead_pct", "max", gate=False),
    Check("obs.enabled_overhead_pct", "max", gate=False),
    # 2SBound's summed work over a fixed query set is deterministic; any
    # drift means expansion or bound bookkeeping changed a decision.
    Check("twosbound.rounds", "equal"),
    Check("twosbound.seen_f", "equal"),
    Check("twosbound.seen_t", "equal"),
    Check("twosbound.seen_r", "equal"),
    # Wall-clock ratios: wide bands (CI noise), still catch a collapse.
    Check("batch_engine.batch_speedup", "min", tol=0.5),
    Check("serving.median_speedup", "min", tol=0.5),
    Check("serving.microbatch_speedup", "min", tol=0.5),
    Check("gateway.miss_p99_speedup", "min", tol=0.5),
    # Raw timings: machine-scaled, report-only.
    Check("serving.warm_median_ms", "max", gate=False),
    Check("serving.cold_median_ms", "max", gate=False),
    Check("gateway.miss_p99_ms_batcher", "max", gate=False),
    Check("gateway.miss_p99_ms_local", "max", gate=False),
    Check("datasets.bibnet_2200_s", "max", gate=False),
)


def resolve(payload: dict, path: str):
    """Follow a dotted path; ``KeyError`` names the missing segment."""
    value = payload
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            raise KeyError(path)
        value = value[part]
    return value


def _violation(check: Check, base: float, cur: float) -> "str | None":
    """The failure description, or ``None`` when the value is in band."""
    base = float(base)
    cur = float(cur)
    if check.mode == "equal":
        band = check.atol + check.tol * abs(base)
        if abs(cur - base) > band:
            return f"|{cur:.6g} - {base:.6g}| > {band:.6g}"
    elif check.mode == "min":
        floor = base * (1.0 - check.tol) - check.atol
        if cur < floor:
            return f"{cur:.6g} < floor {floor:.6g} (baseline {base:.6g})"
    elif check.mode == "max":
        ceil = base * (1.0 + check.tol) + check.atol
        if cur > ceil:
            return f"{cur:.6g} > ceiling {ceil:.6g} (baseline {base:.6g})"
    else:  # pragma: no cover - spec bug
        raise ValueError(f"unknown mode {check.mode!r} for {check.path}")
    return None


def compare(baseline: dict, current: dict) -> "tuple[list[str], list[str]]":
    """``(failures, report_lines)`` for the current payload vs the baseline."""
    failures: "list[str]" = []
    lines: "list[str]" = []
    recorded = baseline.get("metrics", {})
    for check in CHECKS:
        try:
            cur = resolve(current, check.path)
        except KeyError:
            failures.append(f"{check.path}: missing from current metrics")
            continue
        if check.path not in recorded:
            if check.gate:
                failures.append(
                    f"{check.path}: not in baseline — run --update-baseline"
                )
            continue
        base = recorded[check.path]
        why = _violation(check, base, cur)
        tag = "GATE" if check.gate else "info"
        status = "ok" if why is None else "FAIL"
        lines.append(
            f"  [{tag}] {check.path}: {float(cur):.6g} "
            f"(baseline {float(base):.6g}) {status if check.gate else ''}".rstrip()
        )
        if why is not None and check.gate:
            failures.append(f"{check.path}: {why}")
    return failures, lines


def build_baseline(current: dict) -> dict:
    """A fresh baseline payload distilled from the current metrics."""
    metrics = {}
    for check in CHECKS:
        try:
            metrics[check.path] = resolve(current, check.path)
        except KeyError:
            pass  # a bench that did not run leaves no baseline entry
    return {
        "schema": 1,
        "source": CURRENT_PATH.name,
        "note": (
            "Committed perf baseline for benchmarks/check_regression.py; "
            "regenerate with --update-baseline and commit the diff."
        ),
        "metrics": metrics,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", type=Path, default=CURRENT_PATH)
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current metrics and exit 0",
    )
    args = parser.parse_args(argv)

    if not args.current.exists():
        print(f"[check_regression] no current metrics at {args.current}", file=sys.stderr)
        return 2
    current = json.loads(args.current.read_text())

    if args.update_baseline:
        payload = build_baseline(current)
        args.baseline.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"[check_regression] baseline updated -> {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"[check_regression] no baseline at {args.baseline}", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())

    failures, lines = compare(baseline, current)
    print(f"[check_regression] {args.current} vs {args.baseline}")
    print("\n".join(lines))
    if failures:
        print(f"\n[check_regression] {len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\n[check_regression] all {sum(c.gate for c in CHECKS)} gated metrics in band")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
