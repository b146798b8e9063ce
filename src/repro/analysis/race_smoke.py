"""Multi-thread stress suite under the lockset race detector.

``python -m repro.analysis.race_smoke`` (the ``make race-smoke``
target) hammers the thread-shared serving and observability objects —
:class:`~repro.obs.metrics.MetricsRegistry`, :class:`~repro.obs.trace.
Tracer`, :class:`~repro.serve.cache.ScoreCache`, the per-group single
flight :class:`~repro.serve.engine.MicroBatcher`,
:class:`~repro.serve.fallback.ResilientScorer`,
:class:`~repro.serve.fallback.CircuitBreaker` and the parallel
trainer's reduction counters
(:class:`~repro.core.parallel.ParallelStats`) — from N concurrent
threads, twice: once bare (the zero-overhead baseline) and once with
every object tracked by :class:`~repro.analysis.racecheck.RaceDetector`.
The run fails (exit 1) if the detector reports any lockset violation,
and prints the two wall times so the detector's overhead stays an
explicit, measured number.

The workload is deterministic — a stub engine computes ``group + item``
scores, every 13th group's primary scorer raises to exercise the
circuit breaker, and thread scheduling only affects interleaving, which
the Eraser lockset algorithm is insensitive to by construction.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from ..core.parallel import ParallelStats
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..serve.cache import ScoreCache
from ..serve.engine import MicroBatcher
from ..serve.fallback import CircuitBreaker, ResilientScorer
from .racecheck import RaceDetector

__all__ = ["StressResult", "run_stress", "main"]

NUM_ITEMS = 32
FAILING_GROUP = 7  # groups hitting this id (mod 13) exercise the breaker


class _StubEngine:
    """Deterministic engine stand-in: score(group, item) = group + item."""

    num_items = NUM_ITEMS
    index = SimpleNamespace(version="stub")

    def scores_for_groups(self, group_ids) -> np.ndarray:
        base = np.arange(self.num_items, dtype=np.float64)
        return np.stack([base + float(g) for g in group_ids])


class StressResult:
    """Wall time plus detector verdict for one stress run."""

    def __init__(self, elapsed: float, violations: list):
        self.elapsed = elapsed
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def _build_stack():
    """One fresh serving/observability stack for a stress run."""
    registry = MetricsRegistry()
    counter = registry.counter("smoke/requests", help="stress requests")
    histogram = registry.histogram("smoke/latency_ms", help="stress latency")
    tracer = Tracer()
    cache = ScoreCache(capacity=64)
    batcher = MicroBatcher(_StubEngine())
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=0.005)

    def primary(group_id: int) -> np.ndarray:
        if group_id % 13 == FAILING_GROUP:
            raise RuntimeError("injected primary failure")
        return batcher.scores_for_group(group_id)

    def fallback(group_id: int) -> np.ndarray:
        return np.zeros(NUM_ITEMS, dtype=np.float64)

    resilient = ResilientScorer(
        primary, fallback, deadline_ms=None, breaker=breaker
    )
    parallel_stats = ParallelStats()
    return (registry, counter, histogram, tracer, cache, batcher, resilient,
            breaker, parallel_stats)


def _worker(stack, worker_id: int, iterations: int) -> None:
    (registry, counter, histogram, tracer, cache, batcher, resilient,
     breaker, parallel_stats) = stack
    for i in range(iterations):
        group = (worker_id * 31 + i) % 64
        with tracer.span("request"):
            counter.inc()
            histogram.observe(float(i % 10))
            key = (group, "v0")
            vector = cache.get(key)
            if vector is None:
                answer = resilient.scores(group)
                cache.put(key, answer.scores)
        # The parallel trainer's reduction counters: writer (record) and
        # reader (snapshot) racing, as a metric exporter would.
        parallel_stats.record_round(batches=4, sparse_rows=i % 32)
        if i % 16 == 0:
            registry.snapshot()
            breaker.allow()
            resilient.stats()
            cache.stats()
            parallel_stats.record_epoch()
            parallel_stats.snapshot()


def run_stress(
    threads: int, iterations: int, detect: bool, capture_stacks: bool = False
) -> StressResult:
    """Run the stress workload; ``detect`` wraps every object in tracking."""
    stack = _build_stack()
    (registry, counter, histogram, tracer, cache, batcher, resilient,
     breaker, parallel_stats) = stack
    detector = RaceDetector(capture_stacks=capture_stacks)
    if detect:
        for obj in (registry, counter, histogram, tracer, cache,
                    batcher, resilient, breaker, parallel_stats):
            detector.track(obj)
    workers = [
        threading.Thread(
            target=_worker, args=(stack, worker_id, iterations),
            name=f"stress-{worker_id}",
        )
        for worker_id in range(threads)
    ]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - start
    if detect:
        detector.untrack_all()
    resilient.close()
    batcher.close()
    return StressResult(elapsed, list(detector.violations))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.race_smoke",
        description="Stress the thread-shared serve/obs objects under the "
        "lockset race detector.",
    )
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument(
        "--stacks",
        action="store_true",
        help="capture per-access stack traces (slower, richer reports)",
    )
    args = parser.parse_args(argv)

    baseline = run_stress(args.threads, args.iterations, detect=False)
    tracked = run_stress(
        args.threads, args.iterations, detect=True, capture_stacks=args.stacks
    )
    ratio = tracked.elapsed / baseline.elapsed if baseline.elapsed > 0 else 0.0
    print(f"race-smoke: {args.threads} threads x {args.iterations} iterations")
    print(f"  detector off: {baseline.elapsed * 1e3:9.1f} ms")
    print(f"  detector on:  {tracked.elapsed * 1e3:9.1f} ms  ({ratio:.1f}x)")
    if tracked.violations:
        print(f"  violations: {len(tracked.violations)}")
        for violation in tracked.violations:
            print(violation.render())
        return 1
    print("  violations: 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
