"""Admission control: per-tenant token buckets + queue-depth load shedding.

A multi-tenant front cannot let one tenant's flood starve everyone (or let
the lane queues grow without bound while solve latency compounds).  The
gateway therefore decides *before* enqueueing:

1. **Rate limiting** — each tenant owns a token bucket refilled at ``rate``
   tokens/second up to ``burst`` capacity; a query that finds the bucket
   empty is shed with ``reason="rate_limit"`` and a ``retry_after`` hint.
2. **Load shedding** — a query whose target lane already holds
   ``max_queue_depth`` pending requests is shed with ``reason="queue_full"``
   rather than queued: queue depth is a *bound*, never a hope.  A query
   whose columns are all cached is served at submit, never queued, so the
   gateway admits it at depth 0: only its rate limit applies.

Shedding is typed — callers receive a :class:`Shed` value, not an exception
and not a dangling future.  The complementary invariant (asserted across the
gateway test suite) is that every query *not* shed receives a future that
always resolves: load shedding happens strictly before enqueueing, so no
accepted future is ever abandoned.

Clocks are injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.utils.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class Shed:
    """A typed rejection: the query was *not* enqueued and has no future.

    ``reason`` is one of ``"rate_limit"`` (the tenant's token bucket was
    empty), ``"queue_full"`` (the target lane's pending queue is at its
    bound) or ``"closed"`` (the gateway is shut down).  ``retry_after`` is
    a seconds hint for rate-limited tenants (None otherwise).
    """

    reason: str
    tenant: str
    lane: "tuple | None" = None
    retry_after: "float | None" = None

    def __bool__(self) -> bool:
        # A Shed is falsy so `if not result: ...` reads naturally at call
        # sites that only care about admission.
        return False


@dataclass(frozen=True)
class AdmissionConfig:
    """Gateway-wide admission knobs.

    ``rate=None`` disables rate limiting; ``max_queue_depth=None`` disables
    depth shedding.  ``burst`` is the token-bucket capacity (a tenant idle
    long enough may send ``burst`` queries back-to-back before the
    steady-state ``rate`` applies).
    """

    rate: "float | None" = None
    burst: int = 16
    max_queue_depth: "int | None" = 64

    def __post_init__(self) -> None:
        # NaN fails every comparison, so a NaN limit would switch itself
        # off; an infinite burst would overflow the first token refill.
        if self.rate is not None:
            check_positive(self.rate, "rate")
        check_positive_int(self.burst, "burst")
        if self.max_queue_depth is not None:
            check_positive_int(self.max_queue_depth, "max_queue_depth")


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Starts full.  ``try_acquire()`` takes one token if available and returns
    ``None``; otherwise it returns the seconds until a token will exist
    (the ``retry_after`` hint).  Thread-safe.
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = check_positive(rate, "rate")
        self.burst = check_positive_int(burst, "burst")
        self._clock = clock
        self._tokens = float(self.burst)
        self._last = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> "float | None":
        with self._lock:
            now = self._clock()
            self._tokens = min(
                float(self.burst), self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return None
            return (1.0 - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        """Current token count (refreshed to now) — for introspection."""
        with self._lock:
            now = self._clock()
            return min(float(self.burst), self._tokens + (now - self._last) * self.rate)


class AdmissionController:
    """Combines per-tenant token buckets with per-lane depth shedding.

    One controller serves one gateway; buckets are created lazily per tenant
    (all with the same ``rate``/``burst`` — per-tenant tiers would just be a
    dict of configs, left for when someone needs it).
    """

    def __init__(
        self,
        config: "AdmissionConfig | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or AdmissionConfig()
        self._clock = clock
        self._buckets: "dict[str, TokenBucket]" = {}
        self._lock = threading.Lock()

    def _bucket(self, tenant: str) -> Optional[TokenBucket]:
        if self.config.rate is None:
            return None
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.config.rate, self.config.burst, self._clock)
                self._buckets[tenant] = bucket
            return bucket

    def admit(self, tenant: str, lane: tuple, lane_depth: int) -> "Shed | None":
        """``None`` if the query may be enqueued, else a :class:`Shed`.

        Checked in order: rate limit first (cheap, per-tenant fairness),
        then queue depth (global protection).  A rate-limited query does
        not consume queue capacity; a depth-shed query *has* consumed a
        token — the tenant spent its budget on a query the service could
        not absorb, which keeps the bucket an honest arrival meter.
        """
        bucket = self._bucket(tenant)
        if bucket is not None:
            retry_after = bucket.try_acquire()
            if retry_after is not None:
                return Shed(
                    reason="rate_limit",
                    tenant=tenant,
                    lane=lane,
                    retry_after=retry_after,
                )
        depth_bound = self.config.max_queue_depth
        if depth_bound is not None and lane_depth >= depth_bound:
            return Shed(reason="queue_full", tenant=tenant, lane=lane)
        return None
