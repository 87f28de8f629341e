"""The benchmark's own tests: every workload end to end at toy scale.

Each run is a subprocess of ``run.py --tiny`` (the benchmark drops the
``REPRO_*`` environment, which must not leak into this process).  Run with::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LEDGER = json.loads((HERE / "ledger.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Layer boundaries (span names) each workload must cross in its traced run.
BOUNDARIES = {
    "zipf-gateway": {"gateway.submit", "cache.get_many", "engine.solve", "ops.matmat"},
    "cold-topk-local": {"gateway.submit", "topk.local"},
    "bulk-warm": {"cache.get_many", "engine.solve", "ops.matmat"},
    "twosbound-cold": {"topk.twosbound"},
}
#: The boundary each workload's requests enter through.
ENTRY = {
    "zipf-gateway": {"gateway.submit"},
    "cold-topk-local": {"gateway.submit"},
    "bulk-warm": {"cache.get_many"},
    "twosbound-cold": {"topk.twosbound"},
}


def _run(workload: str, trace: int, out: Path) -> "tuple[dict, dict]":
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--tiny", "--out", str(out),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _check_result(result: dict, expected: "list[dict]") -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_spec_and_ledger_agree():
    layer_metrics = [name for layer in LEDGER["layers"] for name in layer["metrics"]]
    assert sorted(layer_metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for layer in LEDGER["layers"]:
        for metric, workload in layer["moves"]:
            assert metric in e2e and workload in WORKLOADS
    exact = {k: v for k, v in LEDGER["exact_counts"].items() if k != "note"}
    for workload, names in exact.items():
        assert workload in WORKLOADS and set(names) <= set(layer_metrics)
    assert "setup_s" in e2e


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_prints_every_metric(workload, tmp_path):
    info, result = _run(workload, 0, tmp_path)
    _check_result(result, SPEC["end_to_end"])
    assert info["provenance"]["workload"] == workload
    assert info["extra"]["fail_frac"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_spans_every_boundary_within_one_request(workload, tmp_path):
    _info, result = _run(workload, 1, tmp_path)
    _check_result(result, SPEC["per_layer"])
    spans = [
        json.loads(line)
        for line in (tmp_path / f"spans-{workload}-seed1.jsonl").read_text().splitlines()
    ]
    assert BOUNDARIES[workload] <= {s["name"] for s in spans}
    by_id = {s["sid"]: s for s in spans}
    nested = set()
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["rid"] is not None and parent["rid"] == span["rid"]
            assert parent["start"] <= span["start"]
            nested.add(span["name"])
    # Every boundary below a request's entry point is reached nested in it.
    assert BOUNDARIES[workload] - ENTRY[workload] <= nested
