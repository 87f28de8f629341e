"""Exporters: JSON snapshot, Prometheus text format, trace summaries.

Three consumers, three shapes:

- :func:`snapshot` — one JSON-ready dict: the default registry's metrics,
  every registered **collector** (live components such as gateways publish
  their own stats/cache views here), the trace-sink occupancy, and the
  process-wide :func:`repro.ops.active_kernel` /
  :func:`repro.parallel.active_route` reports, so the kernel and the
  engine's last block split are visible in the same document as the
  counters they explain.
- :func:`render_prometheus` — the ``text/plain; version=0.0.4`` exposition
  format (``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket{le=...}``
  histogram rows) for scrape endpoints; deterministic ordering so goldens
  can compare exact text.
- :func:`summarize_trace` — indented span trees with durations, shared by
  the ``python -m repro.obs summarize`` CLI.

Collectors are weak by convention: a collector returning ``None`` (its
subject died) is dropped on the next snapshot, so short-lived gateways in
tests cannot leak registrations.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Callable

from repro.obs import registry as _registry
from repro.obs import trace as _trace

_collectors: "dict[str, Callable[[], dict | None]]" = {}
_collectors_lock = threading.Lock()

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def register_collector(name: str, fn: "Callable[[], dict | None]") -> None:
    """Register a callable contributing a named section to the snapshot.

    ``fn`` is invoked outside the collector lock on every
    :func:`snapshot`; returning ``None`` unregisters it (the weak-collector
    convention for components that may die before unregistering).
    """
    with _collectors_lock:
        _collectors[name] = fn


def unregister_collector(name: str) -> None:
    """Remove a collector (idempotent)."""
    with _collectors_lock:
        _collectors.pop(name, None)


def _run_collectors() -> dict:
    with _collectors_lock:
        items = list(_collectors.items())
    out = {}
    dead = []
    for name, fn in items:
        try:
            value = fn()
        except Exception as exc:
            value = {"error": repr(exc)}
        if value is None:
            dead.append(name)
        else:
            out[name] = value
    if dead:
        with _collectors_lock:
            for name in dead:
                _collectors.pop(name, None)
    return out


def _runtime_reports() -> dict:
    """Kernel and routing singletons, imported lazily (obs stays dep-free)."""
    from repro.ops import active_kernel
    from repro.parallel.rows import active_route

    kernel = active_kernel()
    route = active_route()
    return {
        "kernel": {
            "name": kernel.name,
            "fallback_reason": kernel.fallback_reason,
        },
        "route": None
        if route is None
        else {"columns": route.columns, "blocks": route.blocks, "threads": route.threads},
    }


def snapshot(include_runtime: bool = True) -> dict:
    """One JSON-ready view of everything observability knows right now."""
    payload = {
        "schema": 1,
        "enabled": _registry.enabled(),
        "metrics": _registry.REGISTRY.snapshot(),
        "collectors": _run_collectors(),
        "trace": _trace.sink_stats(),
    }
    if include_runtime:
        payload.update(_runtime_reports())
    return payload


def write_snapshot(path, include_runtime: bool = True) -> dict:
    """Write :func:`snapshot` as indented JSON; returns the payload."""
    payload = snapshot(include_runtime=include_runtime)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


# --------------------------------------------------------------------------- #
# Prometheus text format
# --------------------------------------------------------------------------- #


def _fmt_value(value) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        raw = str(labels[key])
        escaped = raw.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def render_metrics_text(metrics: dict) -> str:
    """Prometheus text for a :meth:`MetricsRegistry.snapshot`-shaped dict.

    Shared by :func:`render_prometheus` (live registry) and the CLI's
    offline path (a saved snapshot file) — one renderer, one golden.
    """
    lines: "list[str]" = []
    for name in sorted(metrics):
        entry = metrics[name]
        if not _NAME_OK.match(name):
            raise ValueError(f"metric name {name!r} is not a valid Prometheus name")
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['type']}")
        for sample in entry["samples"]:
            labels = sample["labels"]
            if entry["type"] == "histogram":
                cumulative = 0
                for bound, count in zip(sample["buckets"], sample["counts"]):
                    cumulative += count
                    le = dict(labels, le=_fmt_value(bound))
                    lines.append(f"{name}_bucket{_fmt_labels(le)} {cumulative}")
                cumulative += sample["counts"][-1]
                le = dict(labels, le="+Inf")
                lines.append(f"{name}_bucket{_fmt_labels(le)} {cumulative}")
                lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(sample['sum'])}")
                lines.append(f"{name}_count{_fmt_labels(labels)} {sample['count']}")
            else:
                lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(sample['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_prometheus(
    registry: "_registry.MetricsRegistry | None" = None, include_runtime: bool = True
) -> str:
    """The registry (default: the process registry) in exposition format.

    ``include_runtime`` appends the enabled flag plus the kernel/route
    reports as labeled gauges — the snapshot's routing visibility, scrape
    edition.  Golden tests pass an isolated registry and turn it off.
    """
    reg = _registry.REGISTRY if registry is None else registry
    text = render_metrics_text(reg.snapshot())
    if not include_runtime:
        return text
    runtime = _runtime_reports()
    kernel = runtime["kernel"]
    lines = [
        "# TYPE repro_obs_enabled gauge",
        f"repro_obs_enabled {int(_registry.enabled())}",
        "# TYPE repro_active_kernel gauge",
        "repro_active_kernel"
        + _fmt_labels(
            {
                "kernel": kernel["name"],
                "fallback": kernel["fallback_reason"] or "",
            }
        )
        + " 1",
    ]
    route = runtime["route"]
    if route is not None:
        lines.append("# TYPE repro_active_route_shards gauge")
        lines.append(
            "repro_active_route_shards"
            + _fmt_labels({"threads": str(route["threads"])})
            + f" {route['blocks']}"
        )
    return text + "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# Trace summaries
# --------------------------------------------------------------------------- #

#: Attributes worth showing inline in a summary tree, in display order.
_SUMMARY_ATTRS = (
    "tenant", "measure", "method", "kernel", "trigger", "batch", "hits", "misses",
    "sweeps", "residual", "certified", "escalated", "work", "outcome", "error",
)


def _span_line(record: dict, depth: int) -> str:
    attrs = record.get("attributes", {})
    shown = [f"{key}={attrs[key]}" for key in _SUMMARY_ATTRS if key in attrs]
    suffix = f"  [{' '.join(shown)}]" if shown else ""
    return (
        f"{'  ' * depth}{record['name']}  "
        f"{record.get('duration_s', 0.0) * 1e3:.3f} ms{suffix}"
    )


def summarize_trace(records: "list[dict]", max_traces: "int | None" = None) -> str:
    """Indented per-trace span trees from span dicts (ring or JSONL rows).

    Orphans (parent outside the record set — e.g. the file sink's line cap
    truncated the trace) are promoted to roots so nothing is silently
    hidden; a defensive ``visited`` set keeps a corrupt parent cycle from
    hanging the CLI.
    """
    by_trace: "dict[str, list[dict]]" = {}
    for record in records:
        by_trace.setdefault(record["trace_id"], []).append(record)
    blocks: "list[str]" = []
    for trace_id in sorted(by_trace):
        members = sorted(by_trace[trace_id], key=lambda r: (r["start_unix"], r["span_id"]))
        if max_traces is not None and len(blocks) >= max_traces:
            blocks.append(f"... {len(by_trace) - max_traces} more trace(s)")
            break
        ids = {record["span_id"] for record in members}
        children: "dict[str | None, list[dict]]" = {}
        roots = []
        for record in members:
            parent = record.get("parent_id")
            if parent is None or parent not in ids:
                roots.append(record)
            else:
                children.setdefault(parent, []).append(record)
        lines = [f"trace {trace_id} ({len(members)} spans)"]
        visited: set = set()
        stack = [(record, 1) for record in reversed(roots)]
        while stack:
            record, depth = stack.pop()
            if record["span_id"] in visited:
                continue
            visited.add(record["span_id"])
            lines.append(_span_line(record, depth))
            for child in reversed(children.get(record["span_id"], [])):
                stack.append((child, depth + 1))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
