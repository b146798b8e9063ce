"""Satellite: concurrent hot-swap under the lockset race detector.

Eight reader threads hammer ``recommend`` while a swapper thread cycles
through three distinct indexes via ``reload_index``.  The
:class:`~repro.analysis.racecheck.RaceDetector` must report zero lockset
violations, and every response must carry an index version that was
installed *before* the response was produced.
"""

import threading

import numpy as np

from repro.analysis.racecheck import RaceDetector
from repro.core import KGAG
from repro.serve import RecommendationService, build_index

NUM_READERS = 8
CALLS_PER_READER = 150
NUM_SWAPS = 30


def _three_indexes(dataset, split, state, config):
    """Three indexes over the same model, distinct fingerprints.

    Different seen-item masks change the stored arrays, so each build
    gets its own content fingerprint — exactly what a retrain-and-swap
    cycle produces, without training three models.
    """
    model = KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        config,
    )
    state.load_model(model, prefer_best=False)
    indexes = [
        build_index(
            model,
            train_interactions=split.train,
            user_interactions=dataset.user_item,
        ),
        build_index(model, user_interactions=dataset.user_item),
        build_index(
            model,
            train_interactions=split.validation,
            user_interactions=dataset.user_item,
        ),
    ]
    assert len({ix.version for ix in indexes}) == 3
    return indexes


def test_concurrent_swaps_are_race_free(dataset, split, state, config):
    indexes = _three_indexes(dataset, split, state, config)
    service = RecommendationService(indexes[0], deadline_ms=None)
    installed = {indexes[0].version}
    errors = []
    bad_versions = []
    start = threading.Barrier(NUM_READERS + 1)

    def reader(seed: int):
        rng = np.random.default_rng(seed)
        start.wait()
        for _ in range(CALLS_PER_READER):
            group = int(rng.integers(dataset.groups.num_groups))
            try:
                resp = service.recommend(group, k=3)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)
                return
            if resp["index_version"] not in installed:
                bad_versions.append(resp["index_version"])

    def swapper():
        start.wait()
        for i in range(NUM_SWAPS):
            nxt = indexes[(i + 1) % len(indexes)]
            # Register the version before the swap: a reader must never
            # observe a version that was not yet declared installed.
            installed.add(nxt.version)
            service.reload_index(nxt)

    with RaceDetector() as detector:
        detector.track(service)
        detector.track(service.cache)
        threads = [
            threading.Thread(target=reader, args=(100 + i,), name=f"reader-{i}")
            for i in range(NUM_READERS)
        ]
        threads.append(threading.Thread(target=swapper, name="swapper"))
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    assert not errors, errors[:3]
    assert not bad_versions
    assert not detector.violations, detector.violations
    stats = service.stats()
    assert stats["index"]["swaps"] == NUM_SWAPS
    assert stats["cache"]["swap_invalidations"] == NUM_SWAPS
    assert stats["index"]["version"] in installed
    service.close()
