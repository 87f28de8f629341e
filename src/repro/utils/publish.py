"""Write-after-publish tripwire for shared read-only arrays.

Producers of arrays that many readers share (the column cache, the
shared-memory attach) call :func:`publish_guard` on every array they hand
out; :func:`check_published` reports any of them that has been made
writable again and re-freezes it.  The tripwire starts disarmed, so a
publish costs one flag check; :func:`repro.analysis.sanitizer.install`
arms it for sanitized runs (``REPRO_SANITIZE=1``).  Living here rather than
in the analyzer keeps :mod:`repro.analysis` out of the runtime's imports.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any

# Created at import, before any sanitizer can patch ``threading.Lock``
# (the sanitizer imports this module first), so the lock is never recorded.
_lock = threading.Lock()
_armed = False
_published: "dict[int, tuple[weakref.ref, str]]" = {}


def arm() -> None:
    """Start registering published arrays."""
    global _armed
    _armed = True


def disarm() -> None:
    """Stop registering published arrays (already registered ones stay)."""
    global _armed
    _armed = False


def clear() -> None:
    """Forget every registered array."""
    with _lock:
        _published.clear()


def publish_guard(array: Any, label: str) -> None:
    """Register a published read-only array with the tripwire.

    No-op unless armed, so producers can call this unconditionally on their
    hot paths.
    """
    if not _armed:
        return
    try:
        ref = weakref.ref(array)
    except TypeError:  # pragma: no cover - non-weakref-able publishables
        return
    with _lock:
        _published[id(array)] = (ref, label)


def check_published() -> "list[str]":
    """Report published arrays that have been made writable again.

    Each offender is re-frozen (``setflags(write=False)``) so one bad actor
    cannot keep corrupting shared state after being reported.  Dead
    references are pruned as a side effect.
    """
    violations = []
    with _lock:
        entries = list(_published.items())
    dead = []
    for key, (ref, label) in entries:
        array = ref()
        if array is None:
            dead.append(key)
            continue
        if getattr(array.flags, "writeable", False):
            violations.append(
                f"published array {label!r} became writable after publish "
                "(someone called setflags/flags.writeable on shared data)"
            )
            array.setflags(write=False)
    if dead:
        with _lock:
            for key in dead:
                _published.pop(key, None)
    return violations
