"""Runtime lockset detector tests.

The racy fixtures here are deliberately *unannotated* (fields are passed
explicitly to ``track``) so the repo-wide static self-lint stays clean;
annotation-driven tracking is exercised on the correctly-locked serve
classes instead.
"""

import threading

import pytest

from repro.analysis.racecheck import (
    AuditedLock,
    RaceDetector,
    held_locks,
    track,
    untrack,
)


class RacyCounter:
    """Shared counter with no locking at all."""

    def __init__(self):
        self.value = 0

    def bump(self):
        for _ in range(200):
            self.value += 1


class LockedCounter:
    """Same counter, every access under one lock."""

    def __init__(self):
        self.lock = threading.Lock()
        self.value = 0

    def bump(self):
        for _ in range(200):
            with self.lock:
                self.value += 1

    def read(self):
        with self.lock:
            return self.value


def hammer(target, threads=4):
    workers = [threading.Thread(target=target) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


class TestAuditedLock:
    def test_held_set_tracks_acquire_release(self):
        lock = AuditedLock("test")
        assert lock not in held_locks()
        with lock:
            assert lock in held_locks()
        assert lock not in held_locks()

    def test_rlock_refcount(self):
        lock = AuditedLock("re", inner=threading.RLock())
        with lock:
            with lock:
                assert lock in held_locks()
            assert lock in held_locks()
        assert lock not in held_locks()

    def test_locked_and_nonblocking(self):
        lock = AuditedLock("nb")
        assert lock.acquire(blocking=False)
        assert lock.locked()
        assert held_locks() == (lock,)
        lock.release()
        assert not lock.locked()

    def test_held_set_is_per_thread(self):
        lock = AuditedLock("mine")
        seen = []
        with lock:
            other = threading.Thread(target=lambda: seen.append(held_locks()))
            other.start()
            # Joining while held is the point here: the other thread must
            # see an empty held-set even while we hold the lock.
            other.join()  # repro-lint: disable=RL105
        assert seen == [()]


class TestDetector:
    def test_racy_counter_flagged_with_both_stacks(self):
        counter = RacyCounter()
        with RaceDetector(capture_stacks=True) as detector:
            detector.track(counter, fields=["value"])
            hammer(counter.bump)
        assert not detector.ok
        [violation] = detector.violations
        assert violation.owner == "RacyCounter"
        assert violation.field == "value"
        assert "lockset is empty" in violation.message
        assert "bump" in violation.current.stack
        assert violation.previous is not None
        rendered = violation.render()
        assert "racing access" in rendered
        assert "previous access" in rendered

    def test_locked_twin_clean(self):
        counter = LockedCounter()
        with RaceDetector() as detector:
            detector.track(counter, fields=["value"])
            hammer(counter.bump)
            assert counter.read() == 4 * 200
        assert detector.ok
        assert detector.report() == "racecheck: no violations"

    def test_read_only_sharing_clean(self):
        counter = RacyCounter()
        counter.value = 42
        reads = []
        with RaceDetector() as detector:
            detector.track(counter, fields=["value"])
            hammer(lambda: reads.append(counter.value))
        assert detector.ok
        assert reads == [42] * 4

    def test_init_phase_unlocked_writes_clean(self):
        counter = RacyCounter()
        with RaceDetector() as detector:
            detector.track(counter, fields=["value"])
            counter.bump()  # single thread, no lock: allowed
            counter.bump()
        assert detector.ok

    def test_violation_reported_once_per_field(self):
        counter = RacyCounter()
        with RaceDetector() as detector:
            detector.track(counter, fields=["value"])
            hammer(counter.bump, threads=8)
        assert len(detector.violations) == 1

    def test_track_requires_fields_or_annotations(self):
        with RaceDetector() as detector:
            with pytest.raises(ValueError, match="guarded-by"):
                detector.track(RacyCounter())

    def test_pristine_class_restored(self):
        counter = LockedCounter()
        with RaceDetector() as detector:
            detector.track(counter, fields=["value"])
            assert type(counter) is not LockedCounter
            assert getattr(type(counter), "__racecheck_tracked__", False)
        assert type(counter) is LockedCounter
        assert "__racecheck_tracked__" not in type(counter).__dict__

    def test_untrack_idempotent(self):
        counter = LockedCounter()
        with RaceDetector() as detector:
            detector.track(counter, fields=["value"])
            detector.untrack(counter)
            detector.untrack(counter)
            assert type(counter) is LockedCounter

    def test_track_idempotent(self):
        counter = LockedCounter()
        with RaceDetector() as detector:
            detector.track(counter, fields=["value"])
            tracked_cls = type(counter)
            detector.track(counter, fields=["value"])
            assert type(counter) is tracked_cls

    def test_module_level_track_requires_active_detector(self):
        with pytest.raises(RuntimeError, match="no active RaceDetector"):
            track(LockedCounter(), fields=["value"])

    def test_module_level_track_uses_innermost_detector(self):
        counter = LockedCounter()
        with RaceDetector() as detector:
            assert track(counter, fields=["value"]) is counter
            assert type(counter) is not LockedCounter
            untrack(counter)
            assert type(counter) is LockedCounter
            assert detector.ok


class TestAnnotationDrivenTracking:
    def test_score_cache_fields_auto_selected(self):
        from repro.serve.cache import ScoreCache

        cache = ScoreCache(capacity=8)
        with RaceDetector() as detector:
            detector.track(cache)

            def worker():
                for i in range(100):
                    cache.put(("g", i % 16), i)
                    cache.get(("g", (i + 3) % 16))
                    cache.stats()

            hammer(worker)
        assert detector.ok, detector.report()

    def test_circuit_breaker_clean_under_stress(self):
        from repro.serve.fallback import CircuitBreaker

        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=0.001)
        with RaceDetector() as detector:
            detector.track(breaker)

            def worker():
                for i in range(100):
                    breaker.allow()
                    if i % 7 == 0:
                        breaker.record_failure()
                    else:
                        breaker.record_success()
                    _ = breaker.state, breaker.trips

            hammer(worker)
        assert detector.ok, detector.report()

    def test_microbatcher_condition_is_rebuilt_audited(self):
        from repro.serve.engine import MicroBatcher
        from repro.analysis.race_smoke import _StubEngine

        # The single flight has no condition left: its one lock guards
        # the flight table and counters, and joiners wait on per-flight
        # events outside it.
        batcher = MicroBatcher(_StubEngine())
        with RaceDetector() as detector:
            detector.track(batcher)
            assert isinstance(batcher._lock, AuditedLock)

            def worker():
                for i in range(50):
                    batcher.scores_for_group(i % 8)

            hammer(worker)
            batcher.close()
        assert detector.ok, detector.report()
        # Joiners released by their flights left no lock held.
        assert held_locks() == ()
