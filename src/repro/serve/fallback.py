"""Graceful degradation: deadlines, circuit breaking, popularity fallback.

A production recommender must answer every request, even when the model
path is slow or broken.  This module implements the standard resilience
triad:

* **deadline** — the primary scorer runs in a worker thread with a
  per-request timeout; a request that blows its budget is answered by
  the fallback instead, and its future is *cancelled*: a call that has
  not started yet is dropped from the queue, so a hung primary cannot
  pin abandoned work behind it and exhaust the pool (a call already
  running finishes in the background and its result still warms the
  cache);
* **circuit breaker** — after ``failure_threshold`` consecutive primary
  failures the breaker *opens* and requests go straight to the fallback
  (no model latency, no error amplification); after ``reset_timeout``
  seconds one trial request is let through (*half-open*) and a success
  closes the circuit again;
* **popularity fallback** — the non-personalized floor of
  :class:`~repro.baselines.popularity.PopularityRecommender`, served
  from the popularity vector frozen into the index, with the same
  interacted-item exclusion as the primary path.

The clock is injectable so the breaker's time-based transitions are unit
testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, TimeoutError as FutureTimeout
from typing import Callable

import numpy as np

__all__ = ["CircuitBreaker", "CircuitOpenError", "FallbackAnswer", "ResilientScorer"]


class CircuitOpenError(RuntimeError):
    """Raised internally when the breaker short-circuits the primary."""


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open recovery.

    Parameters
    ----------
    failure_threshold:
        Consecutive primary failures that trip the breaker open.
    reset_timeout:
        Seconds the breaker stays open before allowing one trial call.
    clock:
        Monotonic time source (injectable for tests).
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be non-negative")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED  # guarded-by: _lock
        self._consecutive_failures = 0  # guarded-by: _lock
        self._opened_at: float | None = None  # guarded-by: _lock
        self._trips = 0  # guarded-by: _lock

    @property
    def state(self) -> str:
        with self._lock:
            return self._probe_state_locked()

    @property
    def trips(self) -> int:
        """How many times the breaker has tripped open."""
        with self._lock:
            return self._trips

    def _probe_state_locked(self) -> str:
        # Caller holds the lock.  Open -> half-open after the timeout.
        if self._state == self.OPEN and (
            self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """Whether the primary may be attempted right now."""
        with self._lock:
            return self._probe_state_locked() != self.OPEN

    def record_success(self) -> None:
        """A primary call succeeded: close the circuit."""
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        """A primary call failed (error or deadline miss)."""
        with self._lock:
            state = self._probe_state_locked()
            self._consecutive_failures += 1
            tripped = (
                state == self.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            )
            if tripped and self._state != self.OPEN:
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._trips += 1
            elif tripped:
                self._opened_at = self._clock()


class FallbackAnswer:
    """A score vector plus the provenance label the server reports."""

    __slots__ = ("scores", "source")

    def __init__(self, scores: np.ndarray, source: str):
        self.scores = scores
        self.source = source


class ResilientScorer:
    """Primary scorer wrapped with deadline + breaker + fallback.

    Parameters
    ----------
    primary:
        ``group_id -> (num_items,) scores`` — the model path (typically
        ``RankingEngine.scores_for_group`` or the per-group single
        flight).
    fallback:
        Same signature, must be cheap and reliable (popularity vector).
    deadline_ms:
        Per-request budget for the primary; ``None`` disables the
        timeout (errors still count as failures).
    breaker:
        Optional :class:`CircuitBreaker`; a default one is created.
    max_workers:
        Worker threads evaluating primary calls under a deadline.
    """

    def __init__(
        self,
        primary: Callable[[int], np.ndarray],
        fallback: Callable[[int], np.ndarray],
        deadline_ms: float | None = 250.0,
        breaker: CircuitBreaker | None = None,
        max_workers: int = 4,
    ):
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive (or None)")
        self.primary = primary
        self.fallback = fallback
        self.deadline = None if deadline_ms is None else float(deadline_ms) / 1000.0
        self.breaker = breaker or CircuitBreaker()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="serve-primary"
        )
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        self._primary_answers = 0  # guarded-by: _lock
        self._fallback_answers = 0  # guarded-by: _lock
        self._deadline_misses = 0  # guarded-by: _lock
        self._primary_errors = 0  # guarded-by: _lock
        self._cancelled_futures = 0  # guarded-by: _lock

    @property
    def primary_answers(self) -> int:
        with self._lock:
            return self._primary_answers

    @property
    def fallback_answers(self) -> int:
        with self._lock:
            return self._fallback_answers

    @property
    def deadline_misses(self) -> int:
        with self._lock:
            return self._deadline_misses

    @property
    def primary_errors(self) -> int:
        with self._lock:
            return self._primary_errors

    @property
    def cancelled_futures(self) -> int:
        with self._lock:
            return self._cancelled_futures

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def scores(self, group_id: int) -> FallbackAnswer:
        """Score vector for ``group_id``, degrading gracefully.

        After :meth:`close` every answer comes from the fallback
        (labelled ``fallback:closed``) — no new primary work is started.
        """
        with self._lock:
            closed = self._closed
        if closed:
            return self._serve_fallback(group_id, "fallback:closed")
        if not self.breaker.allow():
            return self._serve_fallback(group_id, "fallback:circuit-open")
        try:
            if self.deadline is None:
                vector = self.primary(group_id)
            else:
                try:
                    future = self._executor.submit(self.primary, group_id)
                except RuntimeError:
                    # close() shut the pool down between our closed check
                    # and the submit; answer like any post-close request.
                    return self._serve_fallback(group_id, "fallback:closed")
                try:
                    vector = future.result(timeout=self.deadline)
                except FutureTimeout:
                    # Cancel the abandoned call: if it is still queued
                    # behind a hung worker it is removed outright instead
                    # of occupying the pool once a thread frees up.  A
                    # call that already started cannot be cancelled and
                    # finishes in the background.
                    cancelled = future.cancel()
                    with self._lock:
                        self._deadline_misses += 1
                        if cancelled:
                            self._cancelled_futures += 1
                    self.breaker.record_failure()
                    return self._serve_fallback(group_id, "fallback:deadline")
        except Exception:
            with self._lock:
                self._primary_errors += 1
            self.breaker.record_failure()
            return self._serve_fallback(group_id, "fallback:error")
        self.breaker.record_success()
        with self._lock:
            self._primary_answers += 1
        return FallbackAnswer(vector, "primary")

    def _serve_fallback(self, group_id: int, source: str) -> FallbackAnswer:
        with self._lock:
            self._fallback_answers += 1
        return FallbackAnswer(self.fallback(group_id), source)

    def stats(self) -> dict:
        """Counters + breaker state for the ``/stats`` endpoint."""
        # Read the breaker outside our own lock: its properties take its
        # lock, and nesting unrelated component locks invites ordering
        # bugs (RL103).
        breaker_state = self.breaker.state
        breaker_trips = self.breaker.trips
        with self._lock:
            return {
                "primary_answers": self._primary_answers,
                "fallback_answers": self._fallback_answers,
                "deadline_misses": self._deadline_misses,
                "primary_errors": self._primary_errors,
                "cancelled_futures": self._cancelled_futures,
                "breaker_state": breaker_state,
                "breaker_trips": breaker_trips,
            }

    def close(self) -> None:
        """Shut the worker pool down; idempotent and safe under races.

        Marks the scorer closed first (new requests fall back without
        touching the pool), then shuts the executor down, dropping
        queued work.  Concurrent callers of :meth:`scores` either see
        the flag or catch the executor's shutdown refusal — no request
        hangs or errors out.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=False, cancel_futures=True)
