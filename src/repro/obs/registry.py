"""Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` owns a set of named metrics and **one** lock.
Every mutation and every read of a registry's metrics serializes on that
single lock, which buys two properties cheaply:

- **exactness** — N threads x M increments land as exactly ``N * M`` (no
  lost updates, asserted by the concurrency tests);
- **snapshot consistency** — :meth:`MetricsRegistry.snapshot` reads every
  metric under one lock acquisition, so the returned numbers describe one
  instant (a counter can never appear to run ahead of its sibling).

The registry lock is a strict *leaf* in the project's lock order: no code
path acquires any other lock while holding it, so callers may update
metrics while holding their own locks without deadlock risk.  No static
analyzer rule checks this; under ``REPRO_SANITIZE=1`` the runtime
sanitizer's lock-order recording (:mod:`repro.analysis.sanitizer`) reports
any lock cycle a violation would create.

Gating
------
The process-default :data:`REGISTRY` is *gated*: its metrics are no-ops
until observability is switched on with ``REPRO_OBS=1`` in the environment
or :func:`enable` at runtime.  The disabled fast path is one module-global
check and an immediate return — no lock, no allocation — so instrumented
hot loops cost near nothing in production-off mode (the ledger in
``perfbench/`` runs every workload that way, so the cost is inside its
numbers).  Registries built directly
(``MetricsRegistry()``) are ungated: :class:`repro.gateway.GatewayStats`
rides one so per-gateway counts stay exact whether or not global
observability is on.

Labels are declared at metric creation (``labels=("tenant",)``) and must be
supplied in full on every update; values are stringified and keyed as
tuples.  Creating the same name twice returns the existing metric (or
raises on a type/label mismatch), so module-level metric handles are safe
under repeated imports.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Sequence

_enabled = os.environ.get("REPRO_OBS", "") == "1"


def enable() -> None:
    """Switch the gated default registry (and tracing) on."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Switch the gated default registry (and tracing) off."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether global observability is currently on."""
    return _enabled


#: Default histogram buckets (seconds-flavored, Prometheus-style uppers).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class _Metric:
    """Shared plumbing: name, declared labels, the owning registry's lock."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, label_names: "tuple[str, ...]", registry: "MetricsRegistry"
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self._registry = registry
        self._lock = registry._lock

    def _live(self) -> bool:
        return not self._registry._gated or _enabled

    def _key(self, labels: dict) -> tuple:
        names = self.label_names
        if len(labels) != len(names) or any(name not in labels for name in names):
            raise ValueError(
                f"metric {self.name!r} takes labels {list(names)}, got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in names)

    def _sample_rows(self) -> "list[tuple[tuple, object]]":
        """Sorted ``(label_key, raw_value)`` rows (call with the lock held)."""
        return sorted(self._values.items())  # type: ignore[attr-defined]


class Counter(_Metric):
    """Monotonically increasing value (per label set)."""

    kind = "counter"

    def __init__(self, name, help, label_names, registry) -> None:
        super().__init__(name, help, label_names, registry)
        self._values: "dict[tuple, float]" = {}

    def inc(self, value: float = 1.0, **labels) -> None:
        if not self._live():
            return
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {value})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())


class Gauge(_Metric):
    """A value that can go up and down (per label set)."""

    kind = "gauge"

    def __init__(self, name, help, label_names, registry) -> None:
        super().__init__(name, help, label_names, registry)
        self._values: "dict[tuple, float]" = {}

    def set(self, value: float, **labels) -> None:
        if not self._live():
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def add(self, delta: float, **labels) -> None:
        if not self._live():
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + delta

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)


class Histogram(_Metric):
    """Fixed-bucket distribution: per-bucket counts plus sum and count.

    ``buckets`` are sorted upper bounds; an implicit ``+Inf`` bucket catches
    the tail.  Bucket edges are inclusive (``value <= bound``), matching the
    Prometheus ``le`` convention the exporter renders cumulatively.
    """

    kind = "histogram"

    def __init__(self, name, help, label_names, registry, buckets=DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, label_names, registry)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"buckets must be sorted and distinct, got {buckets!r}")
        self.buckets = bounds
        # key -> [per-bucket counts (len(buckets)+1), sum, count]
        self._values: "dict[tuple, list]" = {}

    def observe(self, value: float, **labels) -> None:
        if not self._live():
            return
        value = float(value)
        key = self._key(labels)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            row = self._values.get(key)
            if row is None:
                row = self._values[key] = [[0] * (len(self.buckets) + 1), 0.0, 0]
            row[0][idx] += 1
            row[1] += value
            row[2] += 1

    def counts(self, **labels) -> "tuple[list[int], float, int]":
        """``(per_bucket_counts, sum, count)`` for one label set."""
        with self._lock:
            row = self._values.get(self._key(labels))
            if row is None:
                return [0] * (len(self.buckets) + 1), 0.0, 0
            return list(row[0]), row[1], row[2]


class MetricsRegistry:
    """A named-metric collection with one lock and consistent snapshots."""

    def __init__(self, gated: bool = False) -> None:
        self._gated = bool(gated)
        self._lock = threading.Lock()
        self._metrics: "dict[str, _Metric]" = {}

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, tuple(labels))

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, tuple(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._get_or_create(Histogram, name, help, tuple(labels), buckets=buckets)
        if metric.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with buckets {metric.buckets}"
            )
        return metric

    def _get_or_create(self, cls, name, help, label_names, **extra):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {list(existing.label_names)}"
                    )
                return existing
            metric = cls(name, help, label_names, self, **extra)
            self._metrics[name] = metric
            return metric

    def get(self, name: str) -> "_Metric | None":
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> dict:
        """``{name: {type, help, label_names, samples}}`` — one instant.

        Every metric is read under one acquisition of the shared lock, so
        the numbers are mutually consistent.  Histogram samples carry the
        bucket bounds, per-bucket counts, sum and count.
        """
        with self._lock:
            out = {}
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                samples = []
                for key, raw in metric._sample_rows():
                    labels = dict(zip(metric.label_names, key))
                    if metric.kind == "histogram":
                        samples.append(
                            {
                                "labels": labels,
                                "buckets": list(metric.buckets),
                                "counts": list(raw[0]),
                                "sum": raw[1],
                                "count": raw[2],
                            }
                        )
                    else:
                        samples.append({"labels": labels, "value": raw})
                out[name] = {
                    "type": metric.kind,
                    "help": metric.help,
                    "label_names": list(metric.label_names),
                    "samples": samples,
                }
            return out


#: The process-default registry; gated on :func:`enabled`.
REGISTRY = MetricsRegistry(gated=True)


def counter(name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
    """Get-or-create a counter on the gated default registry."""
    return REGISTRY.counter(name, help, labels)


def gauge(name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
    """Get-or-create a gauge on the gated default registry."""
    return REGISTRY.gauge(name, help, labels)


def histogram(
    name: str,
    help: str = "",
    labels: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> Histogram:
    """Get-or-create a fixed-bucket histogram on the gated default registry."""
    return REGISTRY.histogram(name, help, labels, buckets)
