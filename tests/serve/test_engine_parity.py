"""Serving parity: the tape-free engine against the model and itself.

``RankingEngine.score_pairs`` and ``explain`` must equal the model's
tape exactly.  Full-catalog reads — ``RankingEngine.top_k`` over a
frozen index and ``GroupRecommender.recommend`` over the live model —
share the engine's catalog path, so here they must equal each other
item-for-item for every group and config switch, including the
interacted-item exclusion mask; their round-off agreement with the tape
is checked in ``tests/core/test_fused_training.py``.  Plus the
per-group single flight: concurrent misses of one group share one row.
"""

import threading

import numpy as np
import pytest

from repro.core import KGAG, KGAGConfig, GroupRecommender
from repro.serve import MicroBatcher, RankingEngine, ScoreCache, build_index

from .test_single_flight import wait_for_joined


@pytest.fixture(scope="module")
def engine(index):
    return RankingEngine(index)


class TestParity:
    def test_top_k_matches_recommender_every_group(self, engine, model, split):
        recommender = GroupRecommender(model, split.train)
        for group in range(model.groups.num_groups):
            expected = recommender.recommend(group, k=10)
            served = engine.top_k(group, k=10)
            assert [r.item for r in expected] == [r.item for r in served]
            assert [r.score for r in expected] == [r.score for r in served]
            assert [r.probability for r in expected] == [
                r.probability for r in served
            ]

    def test_exclusion_mask_applied(self, engine, index, split):
        for group in range(index.num_groups):
            seen = set(split.train.items_of(group).tolist())
            if not seen:
                continue
            served = {r.item for r in engine.top_k(group, k=index.num_items)}
            assert served.isdisjoint(seen)

    def test_exclude_seen_false_keeps_all_items(self, engine, index):
        served = engine.top_k(0, k=index.num_items, exclude_seen=False)
        assert len(served) == index.num_items

    def test_score_pairs_matches_model(self, engine, model):
        rng = np.random.default_rng(5)
        groups = rng.integers(0, model.groups.num_groups, size=64)
        items = rng.integers(0, model.num_items, size=64)
        model.eval()
        from repro.nn import no_grad

        with no_grad():
            expected = model.group_item_scores(groups, items).numpy()
        np.testing.assert_array_equal(engine.score_pairs(groups, items), expected)

    def test_explain_matches_model(self, engine, model):
        expected = model.explain(1, 2)
        served = engine.explain(1, 2)
        assert served["members"] == expected["members"]
        np.testing.assert_allclose(served["attention"], expected["attention"], atol=1e-12)
        np.testing.assert_allclose(served["sp"], expected["sp"], atol=1e-12)
        np.testing.assert_allclose(served["pi"], expected["pi"], atol=1e-12)
        assert served["score"] == pytest.approx(expected["score"], abs=1e-12)

    def test_recommender_delegates_to_index(self, model, split, index):
        naive = GroupRecommender(model, split.train)
        indexed = GroupRecommender(model, split.train, index=index)
        modelless = GroupRecommender(None, index=index)
        for group in range(index.num_groups):
            expected = [(r.item, r.score) for r in naive.recommend(group, k=6)]
            assert [(r.item, r.score) for r in indexed.recommend(group, k=6)] == expected
            assert [(r.item, r.score) for r in modelless.recommend(group, k=6)] == expected

    def test_recommend_with_explanations_builds_one_view(
        self, model, split, monkeypatch
    ):
        import repro.serve.engine as engine_module

        views = []

        class CountingView(engine_module.LiveModelIndex):
            def __init__(self, *args, **kwargs):
                views.append(self)
                super().__init__(*args, **kwargs)

        recommender = GroupRecommender(model, split.train)
        expected = [
            (rec.item, rec.score, recommender.explain(1, rec.item).influences)
            for rec in recommender.recommend(1, k=3)
        ]
        monkeypatch.setattr(engine_module, "LiveModelIndex", CountingView)
        explained = recommender.recommend_with_explanations(1, k=3)
        assert len(views) == 1
        assert [
            (rec.item, rec.score, why.influences) for rec, why in explained
        ] == expected

    def test_recommender_requires_model_or_index(self):
        with pytest.raises(ValueError):
            GroupRecommender(None)


class TestAblationParity:
    """The numpy mirror must track every config switch, not just defaults."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"aggregator": "graphsage"},
            {"uniform_neighbor_weights": True},
            {"use_kg": False},
            {"use_sp": False},
            {"use_pi": False},
            {"pi_pooling": "mean"},
            {"num_layers": 1},
        ],
    )
    def test_top_k_matches(self, dataset, split, overrides):
        base = {"embedding_dim": 8, "num_layers": 2, "num_neighbors": 3, "seed": 11}
        config = KGAGConfig(**{**base, **overrides})
        model = KGAG(
            dataset.kg,
            dataset.num_users,
            dataset.num_items,
            dataset.user_item.pairs,
            dataset.groups,
            config,
        )
        engine = RankingEngine(build_index(model, train_interactions=split.train))
        recommender = GroupRecommender(model, split.train)
        for group in range(dataset.groups.num_groups):
            expected = [(r.item, r.score) for r in recommender.recommend(group, k=8)]
            assert [(r.item, r.score) for r in engine.top_k(group, k=8)] == expected


class TestBatchingAndCache:
    def test_scores_for_groups_matches_single(self, index):
        engine = RankingEngine(index)
        matrix = engine.scores_for_groups([3, 1, 3])
        np.testing.assert_array_equal(matrix[0], engine.scores_for_group(3))
        np.testing.assert_array_equal(matrix[1], engine.scores_for_group(1))
        np.testing.assert_array_equal(matrix[2], matrix[0])
        # Every group, batched ahead of all the others: the served (and
        # cached) row has the bits of its one-group catalog block.
        groups = list(range(index.num_groups))
        for group in groups:
            others = [g for g in reversed(groups) if g != group]
            row = engine.scores_for_groups([group, *others])[0]
            np.testing.assert_array_equal(row, engine.score_matrix([group])[0])

    def test_engine_uses_cache(self, index):
        cache = ScoreCache(8)
        engine = RankingEngine(index, cache=cache)
        first = engine.scores_for_group(2)
        second = engine.scores_for_group(2)
        np.testing.assert_array_equal(first, second)
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses >= 1

    def test_unknown_group_rejected(self, index):
        engine = RankingEngine(index)
        with pytest.raises(KeyError):
            engine.scores_for_group(index.num_groups + 5)

    def test_micro_batcher_coalesces_concurrent_requests(self, index):
        # Two misses per group arrive while every flight is held: each
        # group is scored once and both of its requests get that row.
        expected = {g: RankingEngine(index).scores_for_group(g) for g in range(4)}
        engine = RankingEngine(index, cache=ScoreCache(32))
        batcher = MicroBatcher(engine)
        gate = threading.Event()
        score = engine.scores_for_groups

        def held(group_ids):
            gate.wait()
            return score(group_ids)

        engine.scores_for_groups = held
        results: list[tuple[int, np.ndarray]] = []
        errors: list[Exception] = []

        def worker(group):
            try:
                results.append((group, batcher.scores_for_group(group)))
            except Exception as error:  # surfaced in the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(g,)) for g in range(4) for _ in range(2)
        ]
        try:
            for thread in threads:
                thread.start()
            assert wait_for_joined(batcher, len(threads))
        finally:
            gate.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors
        assert batcher.requests_served == 8
        assert batcher.batches_run == 4  # one engine call per group
        for group, vector in results:
            np.testing.assert_array_equal(vector, expected[group])

    def test_micro_batcher_propagates_errors(self, index):
        engine = RankingEngine(index)
        batcher = MicroBatcher(engine)
        with pytest.raises(KeyError):
            batcher.scores_for_group(index.num_groups + 1)
