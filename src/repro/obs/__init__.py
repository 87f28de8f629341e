"""Unified observability: metrics registry, per-query traces, exporters.

:mod:`repro.obs` is the layer the serving stack reports through:

- :mod:`repro.obs.registry` — thread-safe counters / gauges / fixed-bucket
  histograms with labels; the gated process default is a no-op until
  ``REPRO_OBS=1`` or :func:`enable`, and reads are snapshot-consistent.
- :mod:`repro.obs.trace` — context-propagated :class:`Span` trees: one
  gateway query yields one trace covering admission, lane enqueue, the
  micro-batch flush, cache hits/misses, the engine solve (method, sweeps,
  residual, kernel, dtype), the certified local top-k, and kernel dispatch.
- :mod:`repro.obs.export` — JSON snapshot (metrics + live-component
  collectors + kernel/route reports), Prometheus text format, bounded
  JSONL trace sink, and trace-tree summaries; ``python -m repro.obs``
  drives them from the command line.

Quickstart::

    from repro import obs

    obs.enable()                      # or REPRO_OBS=1 in the environment
    gateway.submit(query, k=10)       # spans + counters record themselves
    print(obs.render_prometheus())    # scrape-ready text
    obs.write_snapshot("obs.json")    # everything, JSON
    print(obs.summarize_trace([s.to_dict() for s in obs.spans()]))

Knobs: ``REPRO_OBS=1`` (enable at import), ``REPRO_OBS_MAX_SPANS`` (ring
size, default 4096), ``REPRO_OBS_TRACE=<path>`` (JSONL sink),
``REPRO_OBS_TRACE_MAX`` (file line cap, default 10000).
"""

from repro.obs.export import (
    register_collector,
    render_metrics_text,
    render_prometheus,
    snapshot,
    summarize_trace,
    unregister_collector,
    write_snapshot,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    histogram,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanContext,
    TraceSink,
    clear_spans,
    current_context,
    set_trace_file,
    sink_stats,
    span,
    spans,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "NOOP_SPAN",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "TraceSink",
    "clear_spans",
    "counter",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "register_collector",
    "render_metrics_text",
    "render_prometheus",
    "set_trace_file",
    "sink_stats",
    "snapshot",
    "span",
    "spans",
    "summarize_trace",
    "unregister_collector",
    "write_snapshot",
]
