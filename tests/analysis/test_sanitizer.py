"""Runtime sanitizer: lock-order inversion detection and publish tripwires.

The inversion test is the subsystem's acceptance gate: a deliberately
seeded A→B / B→A ordering across two threads must surface as a cycle even
though the interleaving never actually deadlocked.
"""

import threading

import numpy as np
import pytest

from repro.analysis import sanitizer


@pytest.fixture
def recorder():
    # Under REPRO_SANITIZE=1 the pytest plugin has already installed the
    # recorder; leave it installed in that case, otherwise clean up fully.
    was_installed = sanitizer.is_installed()
    sanitizer.install()
    sanitizer.reset()
    try:
        yield sanitizer
    finally:
        # Always reset so the deliberately seeded cycles in this module
        # cannot leak into the plugin's end-of-module lock-order check.
        sanitizer.reset()
        if not was_installed:
            sanitizer.uninstall()


def _run_in_thread(fn):
    thread = threading.Thread(target=fn, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _nest(outer, inner):
    """A thread body that takes ``outer`` and then ``inner``."""

    def body():
        with outer:
            with inner:
                pass

    return body


class TestLockOrder:
    def test_seeded_inversion_is_detected(self, recorder):
        lock_a = threading.Lock()
        lock_b = threading.Lock()

        def forward():
            with lock_a:
                with lock_b:
                    pass

        def backward():
            with lock_b:
                with lock_a:
                    pass

        # Run sequentially on purpose: no deadlock ever happens, yet the
        # A→B and B→A edges together prove one is possible.
        _run_in_thread(forward)
        _run_in_thread(backward)

        cycles = recorder.find_lock_cycles()
        assert cycles, "A→B/B→A inversion went undetected"
        assert "lock-order cycle" in cycles[0]
        with pytest.raises(sanitizer.LockOrderViolation):
            recorder.assert_lock_order()

    def test_three_lock_rotation_is_detected(self, recorder):
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        lock_c = threading.Lock()
        # No pair is ever taken in both orders; only the three orders
        # together close the cycle.
        for outer, inner in ((lock_a, lock_b), (lock_b, lock_c), (lock_c, lock_a)):
            _run_in_thread(_nest(outer, inner))

        (cycle,) = recorder.find_lock_cycles()
        assert cycle.count(" then ") == 3

    def test_report_names_creation_and_acquisition_sites(self, recorder):
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        _run_in_thread(_nest(lock_a, lock_b))
        _run_in_thread(_nest(lock_b, lock_a))

        (cycle,) = recorder.find_lock_cycles()
        assert f"lock@{__file__}:" in cycle
        assert f"(at {__file__}:" in cycle

    def test_locks_from_one_site_are_told_apart(self, recorder):
        # Nodes are lock instances, not creation sites: two locks made on
        # one line and taken in both orders can still deadlock.
        lock_a, lock_b = [threading.Lock() for _ in range(2)]
        _run_in_thread(_nest(lock_a, lock_b))
        _run_in_thread(_nest(lock_b, lock_a))
        assert recorder.find_lock_cycles()

    def test_reset_forgets_a_recorded_inversion(self, recorder):
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        _run_in_thread(_nest(lock_a, lock_b))
        _run_in_thread(_nest(lock_b, lock_a))
        assert recorder.find_lock_cycles()

        recorder.reset()
        assert recorder.find_lock_cycles() == []
        recorder.assert_lock_order()

    def test_consistent_order_is_clean(self, recorder):
        lock_a = threading.Lock()
        lock_b = threading.Lock()

        def nested():
            with lock_a:
                with lock_b:
                    pass

        for _ in range(3):
            _run_in_thread(nested)

        assert recorder.find_lock_cycles() == []
        recorder.assert_lock_order()

    def test_rlock_reentry_is_not_a_cycle(self, recorder):
        rlock = threading.RLock()

        def reenter():
            with rlock:
                with rlock:
                    pass

        _run_in_thread(reenter)
        assert recorder.find_lock_cycles() == []

    def test_failed_try_acquire_records_nothing(self, recorder):
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        lock_b.acquire()

        def try_both():
            with lock_a:
                assert lock_b.acquire(blocking=False) is False

        _run_in_thread(try_both)
        lock_b.release()
        assert recorder.find_lock_cycles() == []

    def test_condition_works_over_wrapped_locks(self, recorder):
        # threading.Condition probes its lock for _release_save & friends;
        # the wrapper must stay compatible for both Lock and RLock.
        for factory in (threading.Lock, threading.RLock):
            cond = threading.Condition(factory())
            hits = []

            def waiter(cond=cond, hits=hits):
                with cond:
                    while not hits:
                        cond.wait(timeout=5)

            thread = threading.Thread(target=waiter, daemon=True)
            thread.start()
            with cond:
                hits.append(1)
                cond.notify_all()
            thread.join(timeout=10)
            assert not thread.is_alive()


class TestPublishTripwire:
    def test_write_after_publish_is_reported_and_refrozen(self, recorder):
        array = np.zeros(8)
        array.setflags(write=False)
        recorder.publish_guard(array, "tripwire-test")
        assert recorder.check_published() == []

        array.setflags(write=True)
        violations = recorder.check_published()
        assert violations and "tripwire-test" in violations[0]
        assert not array.flags.writeable

    def test_guard_is_noop_when_inactive(self):
        was_installed = sanitizer.is_installed()
        if was_installed:
            pytest.skip("sanitizer armed for this run; inactive path untestable")
        array = np.zeros(4)
        sanitizer.publish_guard(array, "inactive")
        assert sanitizer.check_published() == []


class TestEnabling:
    def test_enabled_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitizer.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitizer.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitizer.enabled()

    def test_install_is_idempotent(self, recorder):
        recorder.install()
        recorder.install()
        lock = threading.Lock()
        assert isinstance(lock, sanitizer.SanitizedLock)
