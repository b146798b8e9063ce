"""The per-group single flight behind served misses (``MicroBatcher``).

A miss scores at once on the caller's thread; concurrent misses of one
group share that engine call; and flights are keyed by the index version
a request saw, so a read after a hot swap never receives a row scored
on the old index.
"""

import threading
import time
from types import SimpleNamespace

import numpy as np

from repro.serve import MicroBatcher

NUM_ITEMS = 8


def wait_for_joined(batcher, count, timeout=10.0):
    """Poll until ``count`` requests have joined flights still in the air."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with batcher._lock:
            joined = sum(flight.requests for flight in batcher._flights.values())
        if joined >= count:
            return True
        time.sleep(0.001)
    return False


class _StubEngine:
    """Scores ``group + item + index.offset``; holds calls on old indexes.

    Every call records ``(thread, index version, groups)``; a call that
    reads an index in ``held`` signals ``entered`` and blocks until
    ``gate`` opens.
    """

    def __init__(self, held=()):
        self.index = SimpleNamespace(version="v1", offset=0.0)
        self.held = set(held)
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.calls = []

    def scores_for_groups(self, group_ids):
        index = self.index
        self.calls.append((threading.get_ident(), index.version, list(group_ids)))
        if index.version in self.held:
            self.entered.set()
            self.gate.wait()
        base = np.arange(NUM_ITEMS, dtype=np.float64) + index.offset
        return np.stack([base + float(g) for g in group_ids])


def _row(group, offset=0.0):
    return np.arange(NUM_ITEMS, dtype=np.float64) + offset + float(group)


def test_lone_miss_reaches_the_engine_without_a_timed_wait(monkeypatch):
    waits = []
    condition_wait = threading.Condition.wait

    def recorded_wait(self, timeout=None):
        waits.append(timeout)
        return condition_wait(self, timeout)

    monkeypatch.setattr(threading.Condition, "wait", recorded_wait)
    engine = _StubEngine()
    batcher = MicroBatcher(engine)
    row = batcher.scores_for_group(3)
    np.testing.assert_array_equal(row, _row(3))
    # Scored at once on the caller's own thread: no window, no sleep.
    assert engine.calls == [(threading.get_ident(), "v1", [3])]
    assert waits == []
    assert (batcher.batches_run, batcher.requests_served) == (1, 1)


def test_concurrent_misses_of_one_group_make_one_engine_call():
    engine = _StubEngine(held={"v1"})
    batcher = MicroBatcher(engine)
    rows, errors = [], []

    def read():
        try:
            rows.append(batcher.scores_for_group(2))
        except Exception as error:  # surfaced in the main thread
            errors.append(error)

    threads = [threading.Thread(target=read) for _ in range(6)]
    try:
        for thread in threads:
            thread.start()
        assert wait_for_joined(batcher, len(threads))
    finally:
        engine.gate.set()
        for thread in threads:
            thread.join(timeout=10)
    assert not errors
    assert [call[1:] for call in engine.calls] == [("v1", [2])]
    assert len(rows) == 6
    for row in rows:
        np.testing.assert_array_equal(row, _row(2))
    assert (batcher.batches_run, batcher.requests_served) == (1, 6)
    # The flight landed: the next miss of the group flies again.
    batcher.scores_for_group(2)
    assert len(engine.calls) == 2


def test_read_after_a_swap_never_joins_a_flight_on_the_old_index():
    engine = _StubEngine(held={"v1"})
    batcher = MicroBatcher(engine)
    answers = {}

    def read(name):
        answers[name] = batcher.scores_for_group(4)

    old_read = threading.Thread(target=read, args=("old",))
    new_read = threading.Thread(target=read, args=("new",))
    try:
        old_read.start()
        assert engine.entered.wait(timeout=10)
        # The hot swap lands while the old index's flight is in the air.
        engine.index = SimpleNamespace(version="v2", offset=100.0)
        new_read.start()
        new_read.join(timeout=10)
        # The new read flew on its own instead of waiting for the old row.
        assert not new_read.is_alive()
        np.testing.assert_array_equal(answers["new"], _row(4, offset=100.0))
    finally:
        engine.gate.set()
        old_read.join(timeout=10)
        new_read.join(timeout=10)
    np.testing.assert_array_equal(answers["old"], _row(4))
    assert sorted(call[1] for call in engine.calls) == ["v1", "v2"]


def test_errors_reach_every_joiner_and_the_flight_lands():
    engine = _StubEngine(held={"v1"})
    failing = engine.scores_for_groups

    def scores_for_groups(group_ids):
        failing(group_ids)
        raise KeyError("no such group")

    engine.scores_for_groups = scores_for_groups
    batcher = MicroBatcher(engine)
    errors = []

    def read():
        try:
            batcher.scores_for_group(1)
        except KeyError as error:
            errors.append(error)

    threads = [threading.Thread(target=read) for _ in range(3)]
    try:
        for thread in threads:
            thread.start()
        assert wait_for_joined(batcher, len(threads))
    finally:
        engine.gate.set()
        for thread in threads:
            thread.join(timeout=10)
    assert len(errors) == 3
    assert (batcher.batches_run, batcher.requests_served) == (1, 3)
    with batcher._lock:
        assert batcher._flights == {}
