"""Pytest plugin: per-module concurrency hygiene, armed by ``REPRO_SANITIZE=1``.

Loaded unconditionally from the rootdir ``conftest.py`` but inert unless
:func:`repro.analysis.sanitizer.enabled` — the default test run pays
nothing.  When armed (the CI ``analysis`` job exports ``REPRO_SANITIZE=1``)
it does three things:

- installs the lock-order recorder at ``pytest_configure`` (before test
  collection imports the repro modules, so their locks get wrapped) and
  computes the *static* lock-order edge set over ``src/repro`` so each
  module teardown can also fail on static/runtime **unified** cycles —
  an inversion where one direction only ever executes in production code
  paths the tests never drive (``REPRO_SANITIZE_STATIC=0`` opts out of
  the static half);
- an autouse module-scoped fixture snapshots live threads and shared-memory
  segments per test module, then asserts on teardown that the module leaked
  neither — threads must be joined by the code that started them, segments
  unlinked by their publisher (the long-lived publish cache and executor
  infrastructure are exempted by name);
- the same fixture asserts the module introduced no lock-order cycle and
  tripped no write-after-publish guard.

Failures surface as errors on the *module*, pointing at the file that
leaked rather than at whichever unlucky test ran last.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.analysis import sanitizer

#: static held->acquired lock-order edges keyed by creation site, computed
#: once per armed session at configure time (empty when opted out or when
#: the tree is not where we expect it, e.g. running from an sdist).
_static_edges: "dict[tuple[str, str], str]" = {}

#: worker threads owned by long-lived executor machinery; they outlive any
#: single module by design (the default process pool persists until
#: repro.parallel.shutdown) and are not a module's leak.  Matched by type
#: name because _ExecutorManagerThread is anonymous ("Thread-N") on some
#: Python versions.
_THREAD_ALLOWLIST_TYPES = frozenset({"_ExecutorManagerThread"})
_THREAD_ALLOWLIST_PREFIXES = ("QueueFeederThread", "QueueManagerThread")

_JOIN_GRACE_SECONDS = 2.0


def _interesting_threads() -> "set[threading.Thread]":
    alive = set()
    for thread in threading.enumerate():
        if thread is threading.main_thread():
            continue
        if type(thread).__qualname__ in _THREAD_ALLOWLIST_TYPES:
            continue
        if any(thread.name.startswith(prefix) for prefix in _THREAD_ALLOWLIST_PREFIXES):
            continue
        alive.add(thread)
    return alive


def _live_foreign_segments() -> "set[str]":
    from repro.parallel.pool import published_segment_names
    from repro.parallel.shm import live_segment_names

    return set(live_segment_names()) - published_segment_names()


def pytest_configure(config: pytest.Config) -> None:
    if sanitizer.enabled():
        sanitizer.install()
        if os.environ.get("REPRO_SANITIZE_STATIC", "").strip() != "0":
            _static_edges.clear()
            _static_edges.update(_compute_static_edges(config))


def _compute_static_edges(config: pytest.Config) -> "dict[tuple[str, str], str]":
    from repro.analysis.summaries import static_site_edges

    tree = os.path.join(str(config.rootpath), "src", "repro")
    if not os.path.isdir(tree):
        return {}
    try:
        return static_site_edges([tree])
    except Exception as exc:  # pragma: no cover - defensive
        # A broken static pass must degrade to runtime-only checking, not
        # take the whole test session down with it.
        config.issue_config_time_warning(
            pytest.PytestWarning(f"static lock-order edge pass failed: {exc!r}"),
            stacklevel=2,
        )
        return {}


def pytest_unconfigure(config: pytest.Config) -> None:
    if sanitizer.is_installed():
        sanitizer.uninstall()


@pytest.fixture(autouse=True, scope="module")
def _repro_sanitize_module(request: pytest.FixtureRequest):
    if not sanitizer.enabled():
        yield
        return

    threads_before = _interesting_threads()
    segments_before = _live_foreign_segments()

    yield

    module = request.module.__name__

    # A module's final test may finish while its workers are still winding
    # down (stop() signatures that signal before joining); give stragglers a
    # short grace period before calling them leaked.
    deadline = time.monotonic() + _JOIN_GRACE_SECONDS
    leaked = _interesting_threads() - threads_before
    while leaked and time.monotonic() < deadline:
        for thread in list(leaked):
            thread.join(timeout=0.1)
        leaked = {t for t in _interesting_threads() - threads_before if t.is_alive()}

    problems = []
    if leaked:
        names = sorted(thread.name for thread in leaked)
        problems.append(
            f"leaked threads: {names} — every worker started by this module "
            "must be joined by its owner's stop()/close()"
        )

    leaked_segments = _live_foreign_segments() - segments_before
    if leaked_segments:
        problems.append(
            f"leaked shared-memory segments: {sorted(leaked_segments)} — "
            "publishers must destroy() what they publish"
        )

    problems.extend(sanitizer.check_published())
    problems.extend(sanitizer.find_lock_cycles())
    if _static_edges:
        problems.extend(sanitizer.find_unified_cycles(_static_edges))

    if problems:
        pytest.fail(
            f"concurrency sanitizer: {module} failed "
            + "; ".join(problems),
            pytrace=False,
        )
