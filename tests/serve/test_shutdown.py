"""Shutdown-ordering regressions: close() vs concurrent submitters.

Covers the lifecycle contract: ``close`` is idempotent, no new work is
accepted afterwards (callers degrade or get a clean error, never a
hang), and a close racing with in-flight requests leaves every caller
with a valid answer or a deliberate exception.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import RecommendationService
from repro.serve.engine import MicroBatcher
from repro.serve.fallback import ResilientScorer

NUM_ITEMS = 16


class _StubEngine:
    num_items = NUM_ITEMS
    index = SimpleNamespace(version="stub")

    def __init__(self, gate=None):
        # With a gate, every engine call signals ``entered`` and blocks
        # until the gate opens: a flight stays in the air on demand.
        self.gate = gate
        self.entered = threading.Event()

    def scores_for_groups(self, group_ids):
        if self.gate is not None:
            self.entered.set()
            self.gate.wait()
        base = np.arange(NUM_ITEMS, dtype=np.float64)
        return np.stack([base + float(g) for g in group_ids])


def _primary(group_id):
    return np.full(NUM_ITEMS, float(group_id))


def _fallback(group_id):
    return np.zeros(NUM_ITEMS)


class TestResilientScorerClose:
    def test_close_is_idempotent(self):
        scorer = ResilientScorer(_primary, _fallback, deadline_ms=50.0)
        scorer.close()
        scorer.close()
        assert scorer.closed

    def test_scores_after_close_uses_fallback(self):
        scorer = ResilientScorer(_primary, _fallback, deadline_ms=50.0)
        scorer.close()
        answer = scorer.scores(3)
        assert answer.source == "fallback:closed"
        assert np.array_equal(answer.scores, np.zeros(NUM_ITEMS))
        assert scorer.fallback_answers == 1
        assert scorer.primary_answers == 0

    def test_concurrent_close_vs_submit_never_hangs(self):
        scorer = ResilientScorer(_primary, _fallback, deadline_ms=250.0)
        release = threading.Event()
        answers = []

        def submitter(worker_id):
            release.wait()
            for i in range(50):
                answers.append(scorer.scores(worker_id * 50 + i))

        def closer():
            release.wait()
            scorer.close()

        threads = [threading.Thread(target=submitter, args=(w,)) for w in range(4)]
        threads.append(threading.Thread(target=closer))
        for t in threads:
            t.start()
        release.set()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(answers) == 200
        valid = {"primary", "fallback:closed", "fallback:deadline",
                 "fallback:circuit-open", "fallback:error"}
        assert {a.source for a in answers} <= valid
        for answer in answers:
            assert answer.scores.shape == (NUM_ITEMS,)


class TestMicroBatcherClose:
    def test_close_is_idempotent(self):
        batcher = MicroBatcher(_StubEngine())
        batcher.close()
        batcher.close()
        assert batcher.closed

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(_StubEngine())
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.scores_for_group(0)

    def test_concurrent_close_vs_submit_never_strands_a_waiter(self):
        batcher = MicroBatcher(_StubEngine())
        release = threading.Event()
        served = []
        refused = []

        def submitter(worker_id):
            release.wait()
            for i in range(25):
                try:
                    scores = batcher.scores_for_group((worker_id + i) % 8)
                except RuntimeError:
                    refused.append(worker_id)
                else:
                    served.append(scores)

        def closer():
            release.wait()
            batcher.close()

        threads = [threading.Thread(target=submitter, args=(w,)) for w in range(4)]
        threads.append(threading.Thread(target=closer))
        for t in threads:
            t.start()
        release.set()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        # Every call resolved: either a valid row or a clean refusal.
        assert len(served) + len(refused) == 100
        for scores in served:
            assert scores.shape == (NUM_ITEMS,)

    def test_pending_requests_complete_when_closed_mid_window(self):
        gate = threading.Event()
        engine = _StubEngine(gate)
        batcher = MicroBatcher(engine)
        result = {}

        def submitter():
            result["scores"] = batcher.scores_for_group(5)

        t = threading.Thread(target=submitter)
        t.start()
        # The flight is in the air (its engine call is held); close()
        # refuses new work but the in-flight request still gets its row.
        assert engine.entered.wait(timeout=10)
        batcher.close()
        gate.set()
        t.join(timeout=10)
        assert not t.is_alive()
        assert result["scores"][0] == 5.0


class TestServiceClose:
    def test_service_close_closes_both_layers(self, index):
        service = RecommendationService(index, deadline_ms=None)
        service.recommend(0, k=3)
        service.close()
        assert service.resilient.closed
        assert service.batcher.closed
        service.close()  # idempotent

    def test_recommend_after_close_degrades_not_crashes(self, index):
        service = RecommendationService(index, deadline_ms=None)
        service.close()
        payload = service.recommend(0, k=3)
        assert payload["source"] == "fallback:closed"
        assert len(payload["items"]) == 3
