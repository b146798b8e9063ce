"""ServingPool: pre-fork lifecycle, crash supervision, coordinated swap.

Satellite suite from the multi-process serving PR: worker crashes must
surface honestly in ``/healthz`` (and heal when respawn is on), the
pool-wide hot-swap must follow the verify -> all-ack -> retire protocol,
and ``close`` must never leak a worker process.  The in-process half of
the hot-swap protocol (``reload_index(drop_cache=False)`` + ``retire``)
is additionally hammered under the lockset race detector.
"""

import json
import multiprocessing
import os
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.analysis.racecheck import RaceDetector
from repro.serve import (
    AdmissionConfig,
    EmbeddingIndex,
    RankingEngine,
    RecommendationService,
    ServingPool,
    build_index,
    reuse_port_available,
)
from repro.serve.index import IndexError_

# Small per-worker stacks: tests run several pools on one core.
SERVICE_CONFIG = dict(cache_capacity=32, deadline_ms=None, scorer_threads=2)


def _get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _poll(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if predicate():
                return True
        except (urllib.error.URLError, ConnectionError, OSError):
            pass  # transient: a dying worker may reset a probe connection
        time.sleep(interval)
    return False


@pytest.fixture(scope="module")
def artifact(index, tmp_path_factory):
    return index.save(tmp_path_factory.mktemp("pool") / "index.npz")


@pytest.fixture(scope="module")
def swap_artifact(model, dataset, tmp_path_factory):
    # Same model, no seen-item mask -> different content fingerprint.
    swapped = build_index(model, user_interactions=dataset.user_item)
    return swapped.save(tmp_path_factory.mktemp("pool-swap") / "index2.npz")


def _pool(artifact, **overrides):
    options = dict(
        workers=2,
        monitor_interval=0.05,
        service_config=SERVICE_CONFIG,
    )
    options.update(overrides)
    return ServingPool(artifact, **options)


class TestServing:
    def test_pool_matches_single_process_answers(self, artifact, index):
        reference_service = RecommendationService(
            EmbeddingIndex.load(artifact, mmap=True), **SERVICE_CONFIG
        )
        try:
            reference = {
                group: reference_service.recommend(group, k=4)["items"]
                for group in range(index.num_groups)
            }
        finally:
            reference_service.close()
        with _pool(artifact) as pool:
            assert pool.version == index.version
            for group in range(index.num_groups):
                payload = _get_json(f"{pool.url}/recommend?group={group}&k=4")
                assert payload["index_version"] == index.version
                assert payload["items"] == reference[group], group

    def test_healthz_reports_pool_identity(self, artifact):
        with _pool(artifact) as pool:
            health = _get_json(f"{pool.url}/healthz")
            assert health["status"] == "ok"
            assert health["pool"]["workers"] == 2
            assert health["pool"]["alive"] == 2
            assert health["pool"]["worker"] in (0, 1)
            assert health["pool"]["pid"] in pool.worker_pids()

    def test_fallback_mode_without_reuseport_serves(self, artifact):
        # The shared pre-fork listener path must work everywhere, even
        # where SO_REUSEPORT exists.
        with _pool(artifact, reuse_port=False) as pool:
            payload = _get_json(f"{pool.url}/recommend?group=0&k=3")
            assert len(payload["items"]) == 3
            assert pool.alive_workers() == 2

    def test_aggregate_stats_merge_worker_counters(self, artifact):
        with _pool(artifact) as pool:
            for group in range(6):
                _get_json(f"{pool.url}/recommend?group={group}&k=2")
            stats = pool.stats()
            aggregate = stats["aggregate"]
            assert aggregate["workers"] == 2
            assert aggregate["responding"] == 2
            assert aggregate["requests"] == 6
            assert set(aggregate["latency_ms"]) == {"p50", "p95", "p99"}
            assert len(stats["per_worker"]) == 2
            assert aggregate["requests"] == sum(
                worker["stats"]["requests"] for worker in stats["per_worker"]
            )


def _burst(url, threads, per_thread):
    """Fire concurrent GETs; returns ``(status, body, headers)`` triples."""
    results = []
    results_lock = threading.Lock()

    def client():
        for _ in range(per_thread):
            try:
                with urllib.request.urlopen(url, timeout=10) as response:
                    record = (response.status, response.read(), response.headers)
            except urllib.error.HTTPError as error:
                record = (error.code, error.read(), error.headers)
            with results_lock:
                results.append(record)

    clients = [threading.Thread(target=client) for _ in range(threads)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    return results


class _GatedScorer:
    """Primary scorer for pool workers: each call waits for ``gate``.

    Built in the parent and inherited by every forked worker, it scores
    through its own engine over the artifact, so its answers are the
    service's.
    """

    def __init__(self, artifact, gate):
        self.engine = RankingEngine(EmbeddingIndex.load(artifact, mmap=True))
        self.gate = gate

    def __call__(self, group_id):
        self.gate.wait()
        return self.engine.scores_for_group(group_id)


class TestAdmission:
    def test_burst_is_shed_with_retry_after_and_admitted_answers_match(
        self, artifact
    ):
        # One permit and no queue per worker: a burst of 8 concurrent
        # clients must both shed and serve.  Each worker's primary
        # scorer is held until the fleet has shed a request, so admitted
        # requests keep their permit while the rest of the burst
        # arrives; holding never changes scores, so the served answers
        # still equal the single-process reference.
        reference_service = RecommendationService(
            EmbeddingIndex.load(artifact, mmap=True),
            cache_capacity=0,
            deadline_ms=None,
        )
        try:
            reference = reference_service.recommend(1, k=5)["items"]
        finally:
            reference_service.close()
        gate = multiprocessing.get_context("fork").Event()
        with _pool(
            artifact,
            service_config=dict(
                cache_capacity=0,
                deadline_ms=None,
                scorer_threads=2,
                primary_override=_GatedScorer(artifact, gate),
            ),
            admission=AdmissionConfig(
                max_inflight=1, max_queue=0, queue_timeout_ms=50.0, retry_after_s=1.0
            ),
        ) as pool:
            burst = []
            firing = threading.Thread(
                target=lambda: burst.extend(
                    _burst(f"{pool.url}/recommend?group=1&k=5", threads=8, per_thread=3)
                )
            )
            firing.start()
            try:
                assert _poll(lambda: pool.stats()["aggregate"]["shed"] >= 1)
            finally:
                gate.set()
                firing.join(timeout=60)
            assert not firing.is_alive()
            served = [r for r in burst if r[0] == 200]
            shed = [r for r in burst if r[0] == 429]
            assert len(served) + len(shed) == len(burst), [r[0] for r in burst]
            assert served, "burst produced no successful responses"
            assert shed, "burst produced no 429s despite max_inflight=1"
            for _, body, headers in shed:
                assert int(headers["Retry-After"]) >= 1
                assert "error" in json.loads(body)
            for _, body, _ in served:
                assert json.loads(body)["items"] == reference
            aggregate = pool.stats()["aggregate"]
            assert aggregate["responding"] == 2
            assert aggregate["shed"] >= len(shed)


class TestCrashSupervision:
    def test_crash_without_respawn_degrades_honestly(self, artifact):
        with _pool(artifact, respawn=False) as pool:
            pool.inject_crash(0)
            assert _poll(lambda: pool.alive_workers() == 1)

            def degraded():
                health = _get_json(f"{pool.url}/healthz")
                return (
                    health["status"] == "degraded"
                    and health["pool"]["alive"] == 1
                )

            assert _poll(degraded), "healthz never reported the dead worker"

    def test_crash_with_respawn_heals(self, artifact):
        with _pool(artifact) as pool:
            before = pool.worker_pids()
            pool.inject_crash(1)
            assert _poll(lambda: pool.respawns >= 1 and pool.alive_workers() == 2)
            after = pool.worker_pids()
            assert after[1] != before[1], "slot 1 was not respawned"
            assert after[0] == before[0], "the healthy worker was disturbed"

            def healthy():
                health = _get_json(f"{pool.url}/healthz")
                return health["status"] == "ok" and health["pool"]["alive"] == 2

            assert _poll(healthy), "healthz never recovered after the respawn"

    def test_respawned_worker_serves_current_index(
        self, artifact, swap_artifact, index
    ):
        swapped_version = EmbeddingIndex.load(swap_artifact).version
        with _pool(artifact) as pool:
            report = pool.reload(swap_artifact)
            assert report["new_version"] == swapped_version
            pool.inject_crash(0)
            assert _poll(lambda: pool.respawns >= 1 and pool.alive_workers() == 2)
            # Both workers — including the respawn — serve the new version.
            for _ in range(8):
                payload = _get_json(f"{pool.url}/recommend?group=0&k=2")
                assert payload["index_version"] == swapped_version


class TestHotSwap:
    def test_coordinated_swap_across_the_pool(self, artifact, swap_artifact, index):
        swapped_version = EmbeddingIndex.load(swap_artifact).version
        with _pool(artifact) as pool:
            # Warm both workers so version-keyed entries exist to retire.
            for group in range(index.num_groups):
                _get_json(f"{pool.url}/recommend?group={group}&k=2")
            report = pool.reload(swap_artifact)
            assert report["old_version"] == index.version
            assert report["new_version"] == swapped_version
            assert report["workers"] == 2
            assert report["cache_entries_retired"] >= 1
            payload = _get_json(f"{pool.url}/recommend?group=0&k=2")
            assert payload["index_version"] == swapped_version
            aggregate = pool.stats()["aggregate"]
            assert aggregate["index_version"] == swapped_version
            assert aggregate["index_swaps"] == 2
            # No worker kept stale old-version cache entries around.
            for worker in pool.stats()["per_worker"]:
                assert worker["stats"]["cache"]["retirements"] >= 0

    def test_corrupt_artifact_is_rejected_before_any_worker_maps_it(
        self, artifact, swap_artifact, index, tmp_path
    ):
        corrupt = tmp_path / "corrupt.npz"
        blob = bytearray(swap_artifact.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        corrupt.write_bytes(bytes(blob))
        with _pool(artifact) as pool:
            with pytest.raises(IndexError_):
                pool.reload(corrupt)
            # The fleet still serves the verified version.
            assert pool.version == index.version
            payload = _get_json(f"{pool.url}/recommend?group=0&k=2")
            assert payload["index_version"] == index.version

    def test_swap_under_concurrent_load(self, artifact, swap_artifact, index):
        swapped_version = EmbeddingIndex.load(swap_artifact).version
        valid = {index.version, swapped_version}
        errors, versions = [], set()
        with _pool(artifact) as pool:
            stop = threading.Event()

            def reader():
                group = 0
                while not stop.is_set():
                    try:
                        payload = _get_json(
                            f"{pool.url}/recommend?group={group % index.num_groups}&k=2"
                        )
                    except Exception as exc:  # noqa: BLE001 - for the assert
                        errors.append(exc)
                        return
                    versions.add(payload["index_version"])
                    group += 1

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                report = pool.reload(swap_artifact)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10.0)
            assert not errors, errors[:3]
            assert report["new_version"] == swapped_version
            # Every response carried a version that was legitimately
            # installed at some point — never a mix or a ghost.
            assert versions <= valid, versions - valid


class TestShutdown:
    def test_close_leaves_zero_worker_processes(self, artifact):
        pool = _pool(artifact)
        pids = pool.worker_pids()
        assert pool.alive_workers() == 2
        pool.close()
        pool.close()  # idempotent
        assert not multiprocessing.active_children()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_closed_pool_refuses_control_operations(self, artifact, swap_artifact):
        pool = _pool(artifact)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.stats()
        with pytest.raises(RuntimeError, match="closed"):
            pool.reload(swap_artifact)

    def test_reuse_port_probe_matches_platform(self):
        import socket

        assert reuse_port_available() == hasattr(socket, "SO_REUSEPORT")


class TestSwapRaceFreedom:
    """The worker-side swap protocol under the lockset race detector.

    Mirrors ``tests/stream/test_hot_swap.py`` but drives the *pool's*
    code path: ``reload_index(..., drop_cache=False)`` followed by a
    version-targeted ``cache.retire`` — old-version entries keep serving
    until the retire lands, and nothing races.
    """

    def test_reload_then_retire_is_race_free(self, model, dataset, split, index):
        other = build_index(model, user_interactions=dataset.user_item)
        indexes = [index, other]
        assert indexes[0].version != indexes[1].version
        service = RecommendationService(index, cache_capacity=64, deadline_ms=None)
        valid = {ix.version for ix in indexes}
        errors = []
        num_readers = 6
        start = threading.Barrier(num_readers + 1)

        def reader(seed):
            rng = np.random.default_rng(seed)
            start.wait()
            for _ in range(120):
                group = int(rng.integers(dataset.groups.num_groups))
                try:
                    response = service.recommend(group, k=3)
                except Exception as exc:  # noqa: BLE001 - for the assert
                    errors.append(exc)
                    return
                if response["index_version"] not in valid:
                    errors.append(AssertionError(response["index_version"]))

        def swapper():
            start.wait()
            for i in range(20):
                nxt = indexes[(i + 1) % 2]
                old = service.index.version
                service.reload_index(nxt, drop_cache=False)
                service.cache.retire(old)

        with RaceDetector() as detector:
            detector.track(service)
            detector.track(service.cache)
            threads = [
                threading.Thread(target=reader, args=(200 + i,))
                for i in range(num_readers)
            ]
            threads.append(threading.Thread(target=swapper))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        try:
            assert not errors, errors[:3]
            assert not detector.violations, detector.violations
            stats = service.stats()
            assert stats["index"]["swaps"] == 20
            # Quiesced, run one deterministic reload-then-retire cycle:
            # the old-version entry survives the reload (drop_cache=False)
            # and is dropped — and counted — only by the targeted retire.
            old = service.index
            service.recommend(0, k=3)  # ensure an (0, old.version) entry
            nxt = indexes[0] if old is indexes[1] else indexes[1]
            service.reload_index(nxt, drop_cache=False)
            assert service.cache.get((0, old.version)) is not None
            before = service.cache.stats().retirements
            assert service.cache.retire(old.version) >= 1
            assert service.cache.stats().retirements > before
            live_version = service.index.version
            with service.cache._lock:
                stale = [
                    key
                    for key in service.cache._store
                    if key[1] != live_version
                ]
            assert not stale, stale
        finally:
            service.close()
