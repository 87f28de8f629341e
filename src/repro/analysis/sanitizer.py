"""Runtime concurrency sanitizer: lock-order recording + publish tripwires.

The static rules in :mod:`repro.analysis.rules` catch the lexically visible
shape of a concurrency bug; this module catches the dynamic interleavings
they cannot see.  It is strictly opt-in — set ``REPRO_SANITIZE=1`` (the CI
``sanitized`` job does) and the pytest plugin installs it for the run; at the
default setting nothing here is active and production code pays nothing.

Three checks:

- **Lock-order recording** — :func:`install` swaps ``threading.Lock`` /
  ``threading.RLock`` for factories returning :class:`SanitizedLock`
  wrappers.  Every acquisition while other locks are held adds ``held ->
  acquired`` edges to a process-wide graph keyed by lock *instance*;
  :func:`find_lock_cycles` reports any cycle (the classic A→B / B→A
  inversion means two threads can deadlock under the right interleaving,
  even if this run got lucky).  Recording is passive: the violation is
  surfaced at a checkpoint, not raised inside some innocent ``acquire``.
- **Write-after-publish tripwire** — producers of shared read-only arrays
  (the column cache) call :func:`publish_guard`;
  :func:`check_published` reports any published array that has been flipped
  writable again and re-freezes it.  Both live in the runtime module
  :mod:`repro.utils.publish` (re-exported here); :func:`install` arms it.
- The pytest plugin layers a per-module thread leak check on top;
  see :mod:`repro.analysis.pytest_plugin`.

Wrapper compatibility notes: ``threading.Condition`` probes its lock for
``_release_save``/``_acquire_restore``/``_is_owned``.  For a wrapped plain
``Lock`` those probes raise ``AttributeError`` (as on a real Lock) and the
Condition falls back to ``release()``/``acquire()`` — which route through
the wrapper, so waits are recorded.  For a wrapped ``RLock`` the probes
reach the real lock via ``__getattr__`` delegation; the save/restore pair
then bypasses the recorder, which is correct — the waiting thread is
blocked and acquires nothing while its lock is lent out.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Any, Callable

from repro.analysis.cycles import find_cycles
from repro.utils import publish as _publish
from repro.utils.publish import check_published, publish_guard

__all__ = [
    "LockOrderViolation",
    "SanitizedLock",
    "check_published",
    "enabled",
    "find_lock_cycles",
    "install",
    "is_installed",
    "publish_guard",
    "reset",
    "uninstall",
]

#: real factories, captured before any monkey-patching can happen.
_real_lock_factory = threading.Lock
_real_rlock_factory = threading.RLock


class LockOrderViolation(AssertionError):
    """A cycle exists in the recorded lock acquisition graph."""


def enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` opts this process into sanitizing."""
    return os.environ.get("REPRO_SANITIZE", "").strip() not in ("", "0")


# --------------------------------------------------------------------------- #
# Recorder state (module-global: the acquisition graph is process-wide)
# --------------------------------------------------------------------------- #

_state_lock = _real_lock_factory()
_installed = False
_active = False
_next_uid = 0
_lock_sites: "dict[int, str]" = {}  # uid -> creation site
_edges: "dict[tuple[int, int], str]" = {}  # (held, acquired) -> acquire site


class _Held(threading.local):
    def __init__(self) -> None:
        self.stack: "list[int]" = []


_held = _Held()


def _caller_site() -> str:
    """``file:line`` of the nearest frame outside sanitizer/threading code."""
    skip = (__file__, threading.__file__)
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename in skip:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - only with exotic embedding
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


def _record_acquired(uid: int) -> None:
    stack = _held.stack
    if uid in stack:
        # Reentrant re-acquisition (RLock): not a new ordering fact, but
        # push anyway so releases stay balanced.
        stack.append(uid)
        return
    if stack:
        site = _caller_site()
        with _state_lock:
            for held_uid in stack:
                _edges.setdefault((held_uid, uid), site)
    stack.append(uid)


def _record_released(uid: int) -> None:
    stack = _held.stack
    # Remove the most recent occurrence; locks are almost always released
    # LIFO but nothing requires it.
    for index in range(len(stack) - 1, -1, -1):
        if stack[index] == uid:
            del stack[index]
            return


class SanitizedLock:
    """Wrapper around a real Lock/RLock that records acquisition order."""

    __slots__ = ("_lock", "_uid", "__weakref__")

    def __init__(self, real: Any, uid: int) -> None:
        object.__setattr__(self, "_lock", real)
        object.__setattr__(self, "_uid", uid)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired and _active:
            _record_acquired(self._uid)
        return acquired

    def release(self) -> None:
        self._lock.release()
        if _active:
            _record_released(self._uid)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __getattr__(self, name: str) -> Any:
        # Delegation keeps threading.Condition working over RLock wrappers
        # (_release_save / _acquire_restore / _is_owned) — see module
        # docstring for why bypassing the recorder there is correct.
        return getattr(object.__getattribute__(self, "_lock"), name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        site = _lock_sites.get(self._uid, "?")
        return f"<SanitizedLock uid={self._uid} from {site} wrapping {self._lock!r}>"


def _make_factory(real_factory: Callable[[], Any]) -> Callable[[], SanitizedLock]:
    def factory() -> SanitizedLock:
        global _next_uid
        real = real_factory()
        with _state_lock:
            uid = _next_uid
            _next_uid += 1
        _lock_sites[uid] = _caller_site()
        return SanitizedLock(real, uid)

    return factory


def install() -> None:
    """Patch ``threading.Lock``/``RLock`` and activate recording.

    Locks created *before* install (module-import-time globals of already
    imported modules) stay unwrapped and simply go unrecorded; the pytest
    plugin installs at ``pytest_configure``, before the repro modules under
    test are imported, so in practice the interesting locks are all seen.
    """
    global _installed, _active
    _publish.arm()
    with _state_lock:
        if _installed:
            _active = True
            return
        _installed = True
    threading.Lock = _make_factory(_real_lock_factory)
    threading.RLock = _make_factory(_real_rlock_factory)
    _active = True


def uninstall() -> None:
    """Restore the real factories and deactivate recording."""
    global _installed, _active
    _active = False
    _publish.disarm()
    with _state_lock:
        if not _installed:
            return
        _installed = False
    threading.Lock = _real_lock_factory
    threading.RLock = _real_rlock_factory


def is_installed() -> bool:
    return _installed


def reset() -> None:
    """Forget recorded edges, creation sites, and published arrays."""
    with _state_lock:
        _edges.clear()
        _lock_sites.clear()
    _held.stack.clear()
    _publish.clear()


# --------------------------------------------------------------------------- #
# Cycle detection
# --------------------------------------------------------------------------- #


def find_lock_cycles() -> "list[str]":
    """Human-readable descriptions of every cycle in the acquisition graph.

    Empty list means the recorded order is a partial order — no deadlock is
    possible among the wrapped locks under any interleaving of the
    acquisitions observed so far.
    """
    with _state_lock:
        edges = dict(_edges)
        sites = dict(_lock_sites)
    adjacency: "dict[int, set[int]]" = {}
    for held, acquired in edges:
        adjacency.setdefault(held, set()).add(acquired)
        adjacency.setdefault(acquired, set())
    descriptions = []
    for cycle in find_cycles(adjacency):
        hops = []
        for held, acquired in zip(cycle, cycle[1:]):
            where = edges.get((held, acquired), "?")
            hops.append(
                f"lock@{sites.get(held, '?')} then lock@{sites.get(acquired, '?')}"
                f" (at {where})"
            )
        descriptions.append("lock-order cycle: " + " ; ".join(hops))
    return descriptions


def assert_lock_order() -> None:
    """Raise :class:`LockOrderViolation` if the acquisition graph has a cycle."""
    cycles = find_lock_cycles()
    if cycles:
        raise LockOrderViolation("\n".join(cycles))
