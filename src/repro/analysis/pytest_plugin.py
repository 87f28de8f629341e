"""Pytest plugin: per-module concurrency hygiene, armed by ``REPRO_SANITIZE=1``.

Loaded unconditionally from the rootdir ``conftest.py`` but inert unless
:func:`repro.analysis.sanitizer.enabled` — the default test run pays
nothing.  When armed (the CI ``analysis`` job exports ``REPRO_SANITIZE=1``)
it does three things:

- installs the lock-order recorder at ``pytest_configure`` (before test
  collection imports the repro modules, so their locks get wrapped);
- an autouse module-scoped fixture snapshots live threads per test
  module, then asserts on teardown that the module leaked none — threads
  must be joined by the code that started them;
- the same fixture asserts the module introduced no lock-order cycle and
  tripped no write-after-publish guard.

Failures surface as errors on the *module*, pointing at the file that
leaked rather than at whichever unlucky test ran last.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis import sanitizer

_JOIN_GRACE_SECONDS = 2.0


def _live_threads() -> "set[threading.Thread]":
    return {t for t in threading.enumerate() if t is not threading.main_thread()}


def pytest_configure(config: pytest.Config) -> None:
    if sanitizer.enabled():
        sanitizer.install()


def pytest_unconfigure(config: pytest.Config) -> None:
    if sanitizer.is_installed():
        sanitizer.uninstall()


@pytest.fixture(autouse=True, scope="module")
def _repro_sanitize_module(request: pytest.FixtureRequest):
    if not sanitizer.enabled():
        yield
        return

    threads_before = _live_threads()

    yield

    module = request.module.__name__

    # A module's final test may finish while its workers are still winding
    # down (stop() signatures that signal before joining); give stragglers a
    # short grace period before calling them leaked.
    deadline = time.monotonic() + _JOIN_GRACE_SECONDS
    leaked = _live_threads() - threads_before
    while leaked and time.monotonic() < deadline:
        for thread in list(leaked):
            thread.join(timeout=0.1)
        leaked = {t for t in _live_threads() - threads_before if t.is_alive()}

    problems = []
    if leaked:
        names = sorted(thread.name for thread in leaked)
        problems.append(
            f"leaked threads: {names} — every worker started by this module "
            "must be joined by its owner's stop()/close()"
        )

    problems.extend(sanitizer.check_published())
    problems.extend(sanitizer.find_lock_cycles())

    if problems:
        pytest.fail(
            f"concurrency sanitizer: {module} failed "
            + "; ".join(problems),
            pytrace=False,
        )
